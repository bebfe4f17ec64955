"""Seeded session generators for the benchmark workloads.

Every generator takes its seed as an argument and returns the same
session for the same seed.  The two `pack-*` generators draw each step
uniformly from the steps that are legal in the current state of a
shadow model, so no session needs filtering: filtering illegal draws
from a naive uniform generator would keep only short sessions.

The shadow model tracks the activity state and what the bundled pack's
policies do to the world while they enforce: which policy automata are
armed, and whether the exclusively held Camera and AudioRecord are held.
It is written here from the policy texts, independently of the code
under test, so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from proactive.automata import ActionSymbol
from proactive.sim import ActivityState, ScenarioStep, lifecycle_callbacks

APP = "HearHere"
CTOR_ARGS = (8000, 16, 2, 1024, 0)

# Interface -> methods the simulator implements; AudioRecord is also
# constructed.  Clones rename these interfaces.
API_METHODS = {
    "AudioRecord": ("startRecording", "stop", "release"),
    "Camera": ("open", "startPreview", "stopPreview", "release"),
    "LocationManager": ("requestLocationUpdates", "removeUpdates"),
    "SensorManager": ("registerListener", "unregisterListener"),
    "BluetoothAdapter": ("enable", "disable"),
    "RemoteCallbackList": ("register", "unregister", "kill"),
}
CONSTRUCTED = ("AudioRecord",)

_INTERFACE_RE = re.compile(r"\b(" + "|".join(API_METHODS) + r")\b")

_CALLBACK_STATE = {"onCreate": ActivityState.CREATED,
                   "onStart": ActivityState.STARTED,
                   "onResume": ActivityState.RESUMED,
                   "onPause": ActivityState.PAUSED,
                   "onStop": ActivityState.STOPPED,
                   "onDestroy": ActivityState.DESTROYED}


# -- interned steps --------------------------------------------------------
# Sessions share step objects, so a pool of long sessions costs a pointer
# per step.

_STEPS: dict[tuple, ScenarioStep] = {}


def _step(command: str, button=None, symbol=None, args: tuple = ()) -> ScenarioStep:
    key = (command, button, symbol, args)
    step = _STEPS.get(key)
    if step is None:
        step = _STEPS[key] = ScenarioStep(command, button=button,
                                          symbol=symbol, args=args)
    return step


def _call(interface: str, method: str) -> ScenarioStep:
    return _step("call", symbol=ActionSymbol.call(interface, method))


TAP_START = _step("tap", button="START")   # new AudioRecord + startRecording
TAP_STOP = _step("tap", button="STOP")     # stop + release


@dataclass(frozen=True)
class Session:
    """One app session: the steps the app performs, and the number of
    app events they offer."""

    steps: tuple[ScenarioStep, ...]
    app_events: int


# -- shadow model of the enforced world -------------------------------------


class Shadow:
    """Activity state plus the bundled pack's effect on the world.

    Each boolean flag mirrors one policy automaton being out of its idle
    state 0.  `ar` mirrors the HearHere automaton's state.  Camera
    and AudioRecord are exclusive: Camera is held exactly while the
    open/release policy is armed, AudioRecord exactly while `ar` is 1 or
    2, because every acquisition and release of them moves the policy.
    """

    def __init__(self) -> None:
        self.activity: ActivityState | None = None
        self.ar = "0"            # 0 | 1 (constructed) | 2 (recording) | suspended
        self.camera = False      # foocam-camera-open-release armed == Camera held
        self.preview = False     # foocam-camera-preview armed
        self.location = False
        self.sensor = False
        self.bluetooth = False
        self.rcl = False         # getbackgps-remotecallbacklist armed
        self.events = 0

    @property
    def ar_held(self) -> bool:
        return self.ar in ("1", "2")

    def lifecycle(self, command: str) -> None:
        callbacks = lifecycle_callbacks(self.activity, command)
        for method in callbacks:
            self._callback(method)
        self.events += len(callbacks)

    def _callback(self, method: str) -> None:
        if method == "onPause":
            self.camera = self.location = self.sensor = False
        elif method == "onStop" and self.ar == "2":
            self.ar = "suspended"
        elif method == "onRestart" and self.ar == "suspended":
            self.ar = "2"
        elif method == "onDestroy":
            self.bluetooth = self.preview = self.rcl = False
        self.activity = _CALLBACK_STATE.get(method, self.activity)

    def apply(self, step: ScenarioStep) -> None:
        """Advance the model over one app step (not a lifecycle command)."""
        if step is TAP_START:
            self.ar = "2"
            self.events += 2
            return
        if step is TAP_STOP:
            self.ar = "0"
            self.events += 2
            return
        symbol = step.symbol
        method = symbol.method
        self.events += 1
        if symbol.interface == "Camera":
            if method == "open":
                self.camera = True
            elif method == "release":
                self.camera = False
            elif method == "startPreview":
                self.preview = True
            elif method == "stopPreview":
                self.preview = False
        elif symbol.interface == "LocationManager":
            self.location = method == "requestLocationUpdates"
        elif symbol.interface == "SensorManager":
            self.sensor = method == "registerListener"
        elif symbol.interface == "BluetoothAdapter":
            self.bluetooth = method == "enable"
        elif symbol.interface == "RemoteCallbackList":
            self.rcl = method == "register"


def _acquisitions(shadow: Shadow) -> list[ScenarioStep]:
    """Acquisitions and uses that are legal now; the exclusive devices
    cannot be acquired twice and need to be held to be started."""
    steps = [_call("LocationManager", "requestLocationUpdates"),
             _call("SensorManager", "registerListener"),
             _call("BluetoothAdapter", "enable"),
             _call("RemoteCallbackList", "register")]
    if not shadow.ar_held:
        steps.append(TAP_START)
    if shadow.camera:
        steps.append(_call("Camera", "startPreview"))
    else:
        steps.append(_call("Camera", "open"))
    return steps


def _finish(steps: list[ScenarioStep], shadow: Shadow) -> Session:
    return Session(tuple(steps), shadow.events)


def _run_lifecycle(steps: list, shadow: Shadow, command: str) -> None:
    steps.append(_step(command))
    shadow.lifecycle(command)


def heal_session(seed: int, moves: int) -> Session:
    """A short faulty session of `moves` steps after launch: the app
    acquires resources across all six APIs and goes through background,
    foreground and rotate cycles, but never cleans up; the session ends
    with destroy."""
    rng = random.Random(f"pack-heal/{moves}/{seed}")
    shadow = Shadow()
    steps: list[ScenarioStep] = []
    _run_lifecycle(steps, shadow, "launch")
    for _ in range(moves):
        if shadow.activity is ActivityState.STOPPED:
            _run_lifecycle(steps, shadow, rng.choice(("foreground", "rotate")))
        elif rng.random() < 0.3:
            _run_lifecycle(steps, shadow, rng.choice(("background", "rotate")))
        else:
            step = rng.choice(_acquisitions(shadow))
            steps.append(step)
            shadow.apply(step)
    _run_lifecycle(steps, shadow, "destroy")
    return _finish(steps, shadow)


def _cleanups(shadow: Shadow, command: str) -> list[ScenarioStep]:
    """Releases a well-behaved app performs before a lifecycle command,
    covering every policy whose guarded callback the command fires."""
    steps: list[ScenarioStep] = []
    if shadow.camera:
        steps.append(_call("Camera", "release"))
    if shadow.location:
        steps.append(_call("LocationManager", "removeUpdates"))
    if shadow.sensor:
        steps.append(_call("SensorManager", "unregisterListener"))
    if shadow.ar == "2":
        steps.append(TAP_STOP)
    if command in ("rotate", "destroy"):
        if shadow.preview:
            steps.append(_call("Camera", "stopPreview"))
        if shadow.bluetooth:
            steps.append(_call("BluetoothAdapter", "disable"))
        if shadow.rcl:
            steps.append(_call("RemoteCallbackList", "unregister"))
    return steps


def _clean_moves(shadow: Shadow) -> list[ScenarioStep]:
    """Legal steps of a well-behaved app: acquire what it does not hold,
    use or release what it does."""
    steps: list[ScenarioStep] = []
    steps.append(TAP_STOP if shadow.ar_held else TAP_START)
    if shadow.camera:
        steps.append(_call("Camera", "release"))
        steps.append(_call("Camera", "stopPreview" if shadow.preview
                           else "startPreview"))
    else:
        steps.append(_call("Camera", "open"))
    for flag, interface, acquire, release in (
            (shadow.location, "LocationManager", "requestLocationUpdates",
             "removeUpdates"),
            (shadow.sensor, "SensorManager", "registerListener",
             "unregisterListener"),
            (shadow.bluetooth, "BluetoothAdapter", "enable", "disable")):
        steps.append(_call(interface, release if flag else acquire))
    if shadow.rcl:
        steps.append(_call("RemoteCallbackList", "unregister"))
        steps.append(_call("RemoteCallbackList", "kill"))
    else:
        steps.append(_call("RemoteCallbackList", "register"))
    return steps


def clean_session(seed: int, target: int) -> Session:
    """A long well-behaved session of at least `target` app events: every
    acquisition is released before the callback its policy guards, so
    enforcement never intervenes."""
    rng = random.Random(f"pack-clean/{target}/{seed}")
    shadow = Shadow()
    steps: list[ScenarioStep] = []
    _run_lifecycle(steps, shadow, "launch")

    def lifecycle(command: str) -> None:
        cleanups = _cleanups(shadow, command)
        rng.shuffle(cleanups)
        for step in cleanups:
            steps.append(step)
            shadow.apply(step)
        _run_lifecycle(steps, shadow, command)

    while shadow.events < target:
        if shadow.activity is ActivityState.STOPPED:
            lifecycle(rng.choice(("foreground", "rotate")))
        elif rng.random() < 0.1:
            lifecycle(rng.choice(("background", "rotate")))
        else:
            step = rng.choice(_clean_moves(shadow))
            steps.append(step)
            shadow.apply(step)
    lifecycle("destroy")
    return _finish(steps, shadow)


# -- wide: clones on renamed interfaces ----------------------------------


def clone_text(text: str, group: int) -> str:
    """Rename every simulated interface in a policy text to `<iface><group>`
    and suffix the policy name, so clones of different groups share only
    lifecycle callbacks and never interfere."""
    renamed = _INTERFACE_RE.sub(lambda m: f"{m.group(1)}{group}", text)
    return re.sub(r"^policy (\S+)", rf"policy \1-c{group}", renamed,
                  count=1, flags=re.M)


def is_experimental(text: str) -> bool:
    return re.search(r"^experimental\s*(#.*)?$", text, re.M) is not None


def clone_texts(base_texts: list[str], count: int) -> list[str]:
    """`count` clones: clone i renames base policy i mod len(base) into
    group i // len(base)."""
    return [clone_text(base_texts[i % len(base_texts)], i // len(base_texts))
            for i in range(count)]


def wide_symbols(groups: int) -> list[tuple[ActionSymbol, tuple]]:
    """Every API action of every renamed interface group, with the args
    the app passes."""
    actions: list[tuple[ActionSymbol, tuple]] = []
    for group in range(groups):
        for interface, methods in API_METHODS.items():
            name = f"{interface}{group}"
            if interface in CONSTRUCTED:
                actions.append((ActionSymbol.constructor(name), CTOR_ARGS))
            actions.extend((ActionSymbol.call(name, m), ()) for m in methods)
    return actions


def wide_session(seed: int, groups: int, length: int) -> Session:
    """A long trace over `groups` renamed interface groups: lifecycle
    commands legal for the activity, between uniform draws of API actions.
    The recording sink accepts every event, so any draw is legal."""
    rng = random.Random(f"wide/{seed}/{groups}")
    actions = [_step("call", symbol=s, args=a) for s, a in wide_symbols(groups)]
    shadow = Shadow()
    steps: list[ScenarioStep] = []

    def lifecycle(command: str) -> None:
        # A recording sink keeps no activity state, so lifecycle commands
        # are expanded into their callbacks here.
        for method in lifecycle_callbacks(shadow.activity, command):
            steps.append(_step("call", symbol=ActionSymbol.callback(method)))
        shadow.lifecycle(command)

    lifecycle("launch")
    while shadow.events < length:
        if shadow.activity is ActivityState.STOPPED:
            lifecycle(rng.choice(("foreground", "rotate")))
        elif rng.random() < 0.05:
            lifecycle(rng.choice(("background", "rotate")))
        else:
            steps.append(rng.choice(actions))
            shadow.events += 1
    return _finish(steps, shadow)
