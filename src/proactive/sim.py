"""Deterministic simulator: an Android-like activity lifecycle, six
resource APIs, scripted faulty apps, and a leak oracle.

The simulator is the event sink of a PolicyEnforcer: every callback and
API call an app performs is routed through the enforcer (when one is
attached) before its effect is applied to the world.
"""

from __future__ import annotations

import enum
import re
import time
from dataclasses import dataclass
from typing import Optional

from .automata import ActionSymbol, Event, Kind, Origin, Trace
from .enforcer import InterventionRecord, PolicyEnforcer


class ActivityState(enum.Enum):
    CREATED = "created"
    STARTED = "started"
    RESUMED = "resumed"
    PAUSED = "paused"
    STOPPED = "stopped"
    DESTROYED = "destroyed"


class Checkpoint(enum.Enum):
    ON_STOP = "on-stop"
    ON_DESTROY = "on-destroy"
    END_OF_RUN = "end-of-run"


class Expectation(enum.Enum):
    HEALED = "healed"
    NO_VIOLATION = "no-violation"


class SimProtocolError(Exception):
    """An API call that mirrors a platform misuse error."""


class IllegalLifecycleError(Exception):
    pass


class ScenarioError(Exception):
    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


INTERFACES = ("AudioRecord", "Camera", "LocationManager", "SensorManager",
              "BluetoothAdapter", "RemoteCallbackList")

# Interfaces whose instances are created through a constructor hook and
# hold the underlying device exclusively.
_CONSTRUCTED = {"AudioRecord"}

_CALLBACK_STATE = {
    "onCreate": ActivityState.CREATED,
    "onStart": ActivityState.STARTED,
    "onResume": ActivityState.RESUMED,
    "onPause": ActivityState.PAUSED,
    "onStop": ActivityState.STOPPED,
    "onRestart": None,  # transitional; onStart follows immediately
    "onDestroy": ActivityState.DESTROYED,
}

_LAUNCH = ("onCreate", "onStart", "onResume")


def lifecycle_callbacks(state: Optional[ActivityState], command: str) -> list[str]:
    """Canonical callback sequence for a lifecycle command, or raise
    IllegalLifecycleError if the command is not legal in `state`."""
    if command == "launch":
        if state is None:
            return list(_LAUNCH)
        raise IllegalLifecycleError("activity already launched")
    if state is None:
        raise IllegalLifecycleError(f"{command!r} before launch")
    if command == "background":
        if state is ActivityState.RESUMED:
            return ["onPause", "onStop"]
        if state is ActivityState.PAUSED:
            return ["onStop"]
        raise IllegalLifecycleError(f"cannot background a {state.value} activity")
    if command == "foreground":
        if state is ActivityState.STOPPED:
            return ["onRestart", "onStart", "onResume"]
        if state is ActivityState.PAUSED:
            return ["onResume"]
        raise IllegalLifecycleError(f"cannot foreground a {state.value} activity")
    if command == "destroy":
        if state is ActivityState.RESUMED:
            return ["onPause", "onStop", "onDestroy"]
        if state is ActivityState.PAUSED:
            return ["onStop", "onDestroy"]
        if state is ActivityState.STOPPED:
            return ["onDestroy"]
        raise IllegalLifecycleError(f"cannot destroy a {state.value} activity")
    if command == "rotate":
        return lifecycle_callbacks(state, "destroy") + list(_LAUNCH)
    raise IllegalLifecycleError(f"unknown lifecycle command {command!r}")


@dataclass
class SimResource:
    """One simulated resource API.  active implies held; holder is set
    exactly while held."""

    interface: str
    held: bool = False
    active: bool = False
    holder: Optional[str] = None
    acquired_at: Optional[int] = None
    instance: Optional[str] = None
    registrations: int = 0

    def acquire(self, holder: str, seq: int) -> None:
        self.held = True
        self.holder = holder
        self.acquired_at = seq

    def release_all(self) -> None:
        self.held = False
        self.active = False
        self.holder = None
        self.acquired_at = None
        self.instance = None
        self.registrations = 0


@dataclass(frozen=True)
class LeakEntry:
    interface: str
    holder: Optional[str]
    acquired_at: Optional[int]
    checkpoint: Checkpoint


@dataclass(frozen=True)
class LeakReport:
    leaks: tuple[LeakEntry, ...]
    checkpoint: Checkpoint

    @property
    def clean(self) -> bool:
        return not self.leaks


@dataclass(frozen=True)
class ScenarioStep:
    command: str
    button: Optional[str] = None
    symbol: Optional[ActionSymbol] = None
    args: tuple = ()
    line: int = 0

    def label(self) -> str:
        if self.command == "tap":
            return f"tap {self.button}"
        if self.command == "call":
            return f"call {self.symbol}"
        return self.command


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    app: str
    steps: tuple[ScenarioStep, ...]
    expected: Optional[Expectation] = None


# Scripted button handlers per app: (app, button) -> app-level actions.
APP_BUTTONS: dict[tuple[str, str], tuple[tuple[ActionSymbol, tuple], ...]] = {
    ("HearHere", "START"): (
        (ActionSymbol.constructor("AudioRecord"), (8000, 16, 2, 1024, 0)),
        (ActionSymbol.call("AudioRecord", "startRecording"), ()),
    ),
    ("HearHere", "STOP"): (
        (ActionSymbol.call("AudioRecord", "stop"), ()),
        (ActionSymbol.call("AudioRecord", "release"), ()),
    ),
}


_INTEGER = re.compile(r"-?[0-9]+")


def parse_scenario(text: str, name: str,
                   expected: Optional[Expectation] = None) -> ScenarioScript:
    """Parse a .scn file: `app <name>` header then one command per line."""
    app: Optional[str] = None
    app_line = 0
    steps: list[ScenarioStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "app":
            if len(tokens) != 2:
                raise ScenarioError("app directive takes one name", lineno)
            if app is not None:
                raise ScenarioError(
                    f"duplicate 'app' directive (first on line {app_line})",
                    lineno)
            app, app_line = tokens[1], lineno
        elif head in ("launch", "background", "foreground", "rotate", "destroy"):
            if len(tokens) != 1:
                raise ScenarioError(f"{head} takes no arguments", lineno)
            steps.append(ScenarioStep(head, line=lineno))
        elif head == "tap":
            if len(tokens) != 2:
                raise ScenarioError("tap takes one button name", lineno)
            steps.append(ScenarioStep("tap", button=tokens[1], line=lineno))
        elif head == "call":
            if len(tokens) < 2:
                raise ScenarioError("call takes a target", lineno)
            if tokens[1] == "new":
                if len(tokens) < 3:
                    raise ScenarioError("call new takes an interface", lineno)
                symbol = ActionSymbol.constructor(tokens[2])
                raw_args = tokens[3:]
            else:
                if "." not in tokens[1]:
                    raise ScenarioError(
                        f"malformed call target {tokens[1]!r}", lineno)
                iface, method = tokens[1].split(".", 1)
                symbol = ActionSymbol.call(iface, method)
                raw_args = tokens[2:]
            args = tuple(int(a) if _INTEGER.fullmatch(a) else a
                         for a in raw_args)
            steps.append(ScenarioStep("call", symbol=symbol, args=args,
                                      line=lineno))
        else:
            raise ScenarioError(f"unknown command {head!r}", lineno)
    if app is None:
        raise ScenarioError("missing 'app' directive")
    if not steps or steps[0].command != "launch":
        raise ScenarioError("scenario must begin with launch")
    return ScenarioScript(name=name, app=app, steps=tuple(steps),
                          expected=expected)


class SimWorld:
    """Single-activity world; acts as the enforcer's event sink."""

    def __init__(self, app: str) -> None:
        self.app = app
        self.activity = f"{app}Activity"
        self.state: Optional[ActivityState] = None
        self.resources: dict[str, SimResource] = {
            iface: SimResource(iface) for iface in INTERFACES}
        self.trace: list[Event] = []
        self._seq = 0
        self._instance_counter = 0
        self._candidates: dict[str, LeakEntry] = {}

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def current_instance(self, interface: str) -> Optional[str]:
        return self.resources[interface].instance

    # -- sink interface -------------------------------------------------

    def execute(self, event: Event) -> Optional[str]:
        symbol = event.symbol
        instance: Optional[str] = None
        if symbol.kind is Kind.CALLBACK:
            self._apply_callback(symbol.method)
        elif symbol.kind is Kind.CONSTRUCTOR:
            instance = self._construct(symbol.interface, event)
            event = Event(symbol, event.seq, instance, event.args, event.origin)
        else:
            self._apply_call(symbol.interface, symbol.method, event)
        self.trace.append(event)
        if symbol.kind is Kind.CALLBACK and symbol.method == "onStop":
            self._checkpoint(Checkpoint.ON_STOP)
        elif symbol.kind is Kind.CALLBACK and symbol.method == "onDestroy":
            self._checkpoint(Checkpoint.ON_DESTROY)
        return instance

    # -- effects ---------------------------------------------------------

    def _apply_callback(self, method: str) -> None:
        if method not in _CALLBACK_STATE:
            return
        target = _CALLBACK_STATE[method]
        if target is not None:
            self.state = target

    def _construct(self, interface: str, event: Event) -> str:
        resource = self.resources.get(interface)
        if resource is None:
            raise SimProtocolError(f"unknown interface {interface!r}")
        if interface in _CONSTRUCTED and resource.held:
            raise SimProtocolError(
                f"{interface} is exclusively held; cannot acquire it twice")
        self._instance_counter += 1
        instance = f"{interface}#{self._instance_counter}"
        resource.acquire(self.activity, event.seq)
        resource.instance = instance
        return instance

    def _apply_call(self, interface: str, method: str, event: Event) -> None:
        resource = self.resources.get(interface)
        if resource is None:
            raise SimProtocolError(f"unknown interface {interface!r}")
        handler = _PROTOCOLS.get((interface, method))
        if handler is None:
            raise SimProtocolError(f"{interface} has no method {method!r}")
        handler(self, resource, event)

    # -- leak oracle ------------------------------------------------------

    def _checkpoint(self, checkpoint: Checkpoint) -> None:
        if self.state not in (ActivityState.STOPPED, ActivityState.DESTROYED):
            return
        for resource in self.resources.values():
            if resource.held and resource.interface not in self._candidates:
                self._candidates[resource.interface] = LeakEntry(
                    resource.interface, resource.holder,
                    resource.acquired_at, checkpoint)

    def leak_report(self) -> LeakReport:
        """A resource leaks when it is still held at end of run; the entry
        names the first onStop/onDestroy checkpoint that saw it held by a
        stopped/destroyed activity, if any."""
        leaks: list[LeakEntry] = []
        for resource in self.resources.values():
            if not resource.held:
                continue
            entry = self._candidates.get(resource.interface)
            if entry is None:
                entry = LeakEntry(resource.interface, resource.holder,
                                  resource.acquired_at, Checkpoint.END_OF_RUN)
            leaks.append(entry)
        leaks.sort(key=lambda e: (e.acquired_at or 0, e.interface))
        checkpoint = leaks[0].checkpoint if leaks else Checkpoint.END_OF_RUN
        return LeakReport(tuple(leaks), checkpoint)


# Per-interface protocol handlers.  Acquisition sets the holder; release
# clears it.  Releases and stops are tolerant no-ops when idle so that a
# synthesized cleanup after an app-side release cannot fail.

def _simple_acquire(world, resource, event):
    resource.acquire(world.activity, event.seq)


def _release(world, resource, event):
    resource.release_all()


def _start(world, resource, event):
    if not resource.held:
        raise SimProtocolError(
            f"{event.symbol.method} on an unheld {resource.interface}")
    resource.active = True


def _stop(world, resource, event):
    resource.active = False


def _camera_open(world, resource, event):
    if resource.held:
        raise SimProtocolError("Camera is exclusively held; cannot open it twice")
    resource.acquire(world.activity, event.seq)


def _register(world, resource, event):
    resource.registrations += 1
    if not resource.held:
        resource.acquire(world.activity, event.seq)


def _unregister(world, resource, event):
    resource.registrations = max(0, resource.registrations - 1)
    if resource.registrations == 0:
        resource.release_all()


_PROTOCOLS = {
    ("AudioRecord", "startRecording"): _start,
    ("AudioRecord", "stop"): _stop,
    ("AudioRecord", "release"): _release,
    ("Camera", "open"): _camera_open,
    ("Camera", "startPreview"): _start,
    ("Camera", "stopPreview"): _stop,
    ("Camera", "release"): _release,
    ("LocationManager", "requestLocationUpdates"): _simple_acquire,
    ("LocationManager", "removeUpdates"): _release,
    ("SensorManager", "registerListener"): _simple_acquire,
    ("SensorManager", "unregisterListener"): _release,
    ("BluetoothAdapter", "enable"): _simple_acquire,
    ("BluetoothAdapter", "disable"): _release,
    ("RemoteCallbackList", "register"): _register,
    ("RemoteCallbackList", "unregister"): _unregister,
    # kill unregisters every registered callback without unregister calls
    ("RemoteCallbackList", "kill"): _release,
}


@dataclass(frozen=True)
class ScenarioResult:
    trace: Trace
    leaks: LeakReport
    interventions: tuple[InterventionRecord, ...]
    step_times: tuple[float, ...]  # seconds per script step
    step_seq_ranges: tuple[tuple[int, int], ...]  # app-event seqs per step

    def interventions_per_step(self) -> tuple[int, ...]:
        counts = []
        for lo, hi in self.step_seq_ranges:
            counts.append(sum(1 for r in self.interventions
                              if lo <= r.at_seq <= hi))
        return tuple(counts)


def _busy_wait(seconds: float) -> None:
    if seconds <= 0:
        return
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def run_scenario(script: ScenarioScript,
                 enforcer: Optional[PolicyEnforcer] = None,
                 action_work_s: float = 0.0) -> ScenarioResult:
    """Deterministic replay of a scripted app, optionally enforced.

    action_work_s adds a fixed busy-wait per script step, standing in for
    the app work a real action performs; it exists so the benchmark
    measures enforcement overhead against a non-zero action cost.
    """
    world = SimWorld(script.app)
    if enforcer is not None:
        enforcer.sink = world
    step_times: list[float] = []
    step_seq_ranges: list[tuple[int, int]] = []

    def dispatch(symbol: ActionSymbol, args: tuple = ()) -> None:
        instance = None
        if symbol.kind is Kind.API_CALL:
            instance = world.current_instance(symbol.interface)
        event = Event(symbol=symbol, seq=world.next_seq(), instance=instance,
                      args=args, origin=Origin.APP)
        if enforcer is not None:
            enforcer.on_event(event)
        else:
            world.execute(event)

    for step in script.steps:
        started = time.perf_counter()
        first_seq = world._seq + 1
        try:
            if step.command in ("launch", "background", "foreground",
                                "rotate", "destroy"):
                for method in lifecycle_callbacks(world.state, step.command):
                    dispatch(ActionSymbol.callback(method))
            elif step.command == "tap":
                actions = APP_BUTTONS.get((script.app, step.button))
                if actions is None:
                    raise ScenarioError(
                        f"app {script.app!r} has no button {step.button!r}",
                        step.line)
                for symbol, args in actions:
                    dispatch(symbol, args)
            elif step.command == "call":
                dispatch(step.symbol, step.args)
            else:
                raise ScenarioError(f"unknown command {step.command!r}",
                                    step.line)
        except (SimProtocolError, IllegalLifecycleError) as exc:
            raise ScenarioError(str(exc), step.line) from exc
        _busy_wait(action_work_s)
        step_times.append(time.perf_counter() - started)
        step_seq_ranges.append((first_seq, world._seq))

    interventions = tuple(enforcer.intervention_log) if enforcer else ()
    return ScenarioResult(trace=Trace.of(world.trace),
                          leaks=world.leak_report(),
                          interventions=interventions,
                          step_times=tuple(step_times),
                          step_seq_ranges=tuple(step_seq_ranges))
