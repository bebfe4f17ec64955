"""Deterministic simulator: an Android-like activity lifecycle, six
resource APIs, scripted faulty apps, and a leak oracle.

The simulator is the event sink of a PolicyEnforcer: every callback and
API call an app performs is routed through the enforcer (when one is
attached) before its effect is applied to the world.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Optional

from .automata import ActionSymbol, Event, Kind, PolicyAuthoringError, _API_CALL, _APP
from .dsl import (INTEGER, DslDiagnostic, LineError, _LineParser,
                  _parse_symbol_atom, call_target, line_parsers)
from .enforcer import HealingFailureError, InterventionRecord, PolicyEnforcer


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


class ScenarioError(LineError):
    """A .scn parse error, or a replay refusal at its step's line, column 1."""


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

# The activity lifecycle: each command, the states it may start from, and
# the callbacks it runs there.  Rotating is destroying and launching again.
_LIFECYCLE: dict[str, dict[Optional[ActivityState], tuple[str, ...]]] = {
    "launch": {None: _LAUNCH},
    "background": {ActivityState.RESUMED: ("onPause", "onStop"),
                   ActivityState.PAUSED: ("onStop",)},
    "foreground": {ActivityState.STOPPED: ("onRestart", "onStart", "onResume"),
                   ActivityState.PAUSED: ("onResume",)},
    "destroy": {ActivityState.RESUMED: ("onPause", "onStop", "onDestroy"),
                ActivityState.PAUSED: ("onStop", "onDestroy"),
                ActivityState.STOPPED: ("onDestroy",)},
}
_LIFECYCLE["rotate"] = {state: callbacks + _LAUNCH
                        for state, callbacks in _LIFECYCLE["destroy"].items()}


def lifecycle_callbacks(state: Optional[ActivityState], command: str) -> list[str]:
    """Canonical callback sequence for a lifecycle command, or raise
    IllegalLifecycleError if the command is not legal in `state`."""
    callbacks = _LIFECYCLE.get(command, {}).get(state)
    if callbacks is not None:
        return list(callbacks)
    if command == "launch":
        raise IllegalLifecycleError("activity already launched")
    if state is None:
        raise IllegalLifecycleError(f"{command!r} before launch")
    if command not in _LIFECYCLE:
        raise IllegalLifecycleError(f"unknown lifecycle command {command!r}")
    verb = "destroy" if command == "rotate" else command
    raise IllegalLifecycleError(f"cannot {verb} a {state.value} activity")


@dataclass
class SimResource:
    """One simulated resource API; the world's one activity holds it
    while held is set."""

    interface: str
    held: bool = False
    acquired_at: Optional[int] = None
    instance: Optional[str] = None
    registrations: int = 0

    def acquire(self, seq: int) -> None:
        self.held = True
        self.acquired_at = seq

    def release_all(self) -> None:
        self.held = False
        self.acquired_at = None
        self.instance = None
        self.registrations = 0


@dataclass(frozen=True)
class LeakEntry:
    interface: str
    holder: str
    acquired_at: Optional[int]
    checkpoint: Checkpoint


@dataclass(frozen=True)
class LeakReport:
    leaks: tuple[LeakEntry, ...]

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


def parse_scenario(text: str, name: str,
                   expected: Optional[Expectation] = None) -> ScenarioScript:
    """Parse a .scn file: `app <name>` header then one command per line.
    Lines lex as .pol's do (proactive.dsl); the first error raises a
    ScenarioError."""
    diags: list[DslDiagnostic] = []
    lines = text.splitlines()
    app: Optional[str] = None
    app_line = 0
    steps: list[ScenarioStep] = []
    try:
        for lp in line_parsers(lines, diags):
            if diags:  # a lexical error on this line or an earlier one
                break
            lp.bare()
            head = lp.next("command")
            if head == "app":
                app_name = lp.next("app name")
                lp.done()
                if app is not None:
                    lp.fail("semantic", 0, "duplicate 'app' directive "
                            f"(first on line {app_line})")
                app, app_line = app_name, lp.lineno
            elif head in _LIFECYCLE or head == "tap":
                button = lp.next("button name") if head == "tap" else None
                lp.done()
                steps.append(ScenarioStep(head, button=button, line=lp.lineno))
            elif head == "call":
                steps.append(_parse_call(lp))
            else:
                lp.fail("syntax", 0, f"unknown command {head!r}")
    except LineError as error:
        diags.append(error.diagnostic)
    last = len(lines) or 1
    if app is None:
        diags.append(DslDiagnostic("syntax", last, 1,
                                   "missing 'app' directive", "app <name>"))
    elif not steps or steps[0].command != "launch":
        diags.append(DslDiagnostic("semantic", steps[0].line if steps else last,
                                   1, "scenario must begin with launch"))
    if diags:  # the first error, which stopped the parse
        raise ScenarioError(diags[0])
    return ScenarioScript(name=name, app=app, steps=tuple(steps),
                          expected=expected)


def _parse_call(lp: _LineParser) -> ScenarioStep:
    """A `call new <iface> [args]` or `call <iface>.<method> [args]` step."""
    symbol = _parse_symbol_atom(lp) if lp.peek() == "new" else call_target(lp)
    if symbol.interface not in INTERFACES:
        lp.fail("semantic", lp.pos - 1,
                f"unknown interface {symbol.interface!r}")
    if (symbol.kind is _API_CALL
            and (symbol.interface, symbol.method) not in _PROTOCOLS):
        lp.fail("semantic", lp.pos - 1,
                f"{symbol.interface} has no method {symbol.method!r}")
    args = tuple(int(a) if INTEGER.fullmatch(a) else a
                 for a in lp.tokens[lp.pos:])
    return ScenarioStep("call", symbol=symbol, args=args, line=lp.lineno)


class SimWorld:
    """Single-activity world; acts as the enforcer's event sink."""

    def __init__(self, app: str) -> None:
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
        resource.acquire(event.seq)
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
        for resource in self.resources.values():
            if resource.held and resource.interface not in self._candidates:
                self._candidates[resource.interface] = LeakEntry(
                    resource.interface, self.activity,
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
                entry = LeakEntry(resource.interface, self.activity,
                                  resource.acquired_at, Checkpoint.END_OF_RUN)
            leaks.append(entry)
        leaks.sort(key=lambda e: (e.acquired_at or 0, e.interface))
        return LeakReport(tuple(leaks))


# Per-interface protocol handlers.  Acquisition sets the hold; release
# clears it.  Releases and stops are tolerant no-ops when idle so that a
# synthesized cleanup after an app-side release cannot fail.

def _simple_acquire(world, resource, event):
    resource.acquire(event.seq)


def _release(world, resource, event):
    resource.release_all()


def _start(world, resource, event):
    if not resource.held:
        raise SimProtocolError(
            f"{event.symbol.method} on an unheld {resource.interface}")


def _stop(world, resource, event):
    """Stopping leaves the hold, all the leak oracle reads, as it is."""


def _camera_open(world, resource, event):
    if resource.held:
        raise SimProtocolError("Camera is exclusively held; cannot open it twice")
    resource.acquire(event.seq)


def _register(world, resource, event):
    resource.registrations += 1
    if not resource.held:
        resource.acquire(event.seq)


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

INTERFACES = tuple(dict.fromkeys(interface for interface, _ in _PROTOCOLS))


@dataclass(frozen=True)
class ScenarioResult:
    # The world's events as they executed, with the world's seqs: an
    # inserted event shares its trigger's seq, as LeakEntry.acquired_at does.
    trace: tuple[Event, ...]
    leaks: LeakReport
    interventions: tuple[InterventionRecord, ...]
    step_times: tuple[float, ...]  # seconds per script step
    interventions_per_step: tuple[int, ...]


def run_scenario(script: ScenarioScript,
                 enforcer: Optional[PolicyEnforcer] = None) -> ScenarioResult:
    """Deterministic replay of a scripted app, optionally enforced."""
    world = SimWorld(script.app)
    if enforcer is not None:
        enforcer.sink = world
        consume, log = enforcer.on_event, enforcer.intervention_log
    else:
        consume, log = world.execute, []
    step_times: list[float] = []
    interventions_per_step: list[int] = []

    def dispatch(symbol: ActionSymbol, args: tuple = ()) -> None:
        instance = None
        if symbol.kind is _API_CALL:
            instance = world.current_instance(symbol.interface)
        consume(Event(symbol, world.next_seq(), instance, args, _APP))

    for step in script.steps:
        logged = len(log)
        started = time.perf_counter()
        try:
            if step.command == "tap":
                actions = APP_BUTTONS.get((script.app, step.button))
                if actions is None:
                    raise ScenarioError(DslDiagnostic(
                        "replay", step.line, 1,
                        f"app {script.app!r} has no button {step.button!r}"))
                for symbol, args in actions:
                    dispatch(symbol, args)
            elif step.command == "call":
                dispatch(step.symbol, step.args)
            else:
                for method in lifecycle_callbacks(world.state, step.command):
                    dispatch(ActionSymbol.callback(method))
        except (SimProtocolError, IllegalLifecycleError) as exc:
            raise ScenarioError(
                DslDiagnostic("replay", step.line, 1, str(exc))) from exc
        except (HealingFailureError, PolicyAuthoringError) as exc:
            exc.line = step.line
            raise
        step_times.append(time.perf_counter() - started)
        interventions_per_step.append(len(log) - logged)

    return ScenarioResult(trace=tuple(world.trace),
                          leaks=world.leak_report(),
                          interventions=tuple(log),
                          step_times=tuple(step_times),
                          interventions_per_step=tuple(interventions_per_step))
