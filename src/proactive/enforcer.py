"""Policy enforcer: deploys proactive modules, intercepts app events,
lets modules transform the stream, and executes synthesized actions
against the event sink through a transparent resource manager.

One enforcer serves one simulated app session.  One walk of an event's
watchers instantiates every edit; the synthesized events then execute
and are never re-offered to any module, so enforcement cannot recurse.

Modules enter only through `PolicyEnforcer.deploy`, which files each one
in policy-name order under every symbol it watches; an event reaches only
the modules filed under its symbol, in that order.  Every deployed pair
has passed deploy's interference gate, so a deploy tests the new policy
against the deployed union: a clean deploy tests two sets; pairs are
listed only to report a conflict.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple, Optional, Protocol

from .automata import (
    ActionSymbol,
    Event,
    MissingTransitionError,
    Move,
    PolicyAuthoringError,
    Trace,
    _APP,
    _CONSTRUCTOR,
    _SYNTHESIZED,
    instantiate,
    slot_setters,
)
from .dsl import PolicyDoc
# check_set is unused here; the benchmark's self-test calls enforcer.check_set.
from .interference import InterferenceReport, check_pair, check_set


class InterferenceError(Exception):
    def __init__(self, report: InterferenceReport) -> None:
        self.report = report
        super().__init__(f"policies interfere:\n{report}")


class DuplicatePolicyError(Exception):
    pass


class StaleHandleError(Exception):
    pass


class HealingFailureError(Exception):
    """The sink rejected a synthesized event, named with the policy that
    synthesized it; the app event's own failure propagates as is.  No
    module moves and no record is logged, but executed events stay: a
    retry re-runs the whole heal, so a sink must tolerate a repeated
    cleanup (SimWorld's stop and release are no-ops when idle)."""

    def __init__(self, policy: str, event: Event, cause: Exception) -> None:
        self.policy = policy
        self.event = event
        self.cause = cause
        self.line: Optional[int] = None  # its scenario step's, set by run_scenario
        super().__init__(f"policy {policy!r} failed to execute {event}: {cause}")


class EventSink(Protocol):
    def execute(self, event: Event) -> Optional[str]:
        """Apply an event; returns a fresh instance id for constructors."""


class RecordingSink:
    """Default sink: records executed events and creates no instances."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def execute(self, event: Event) -> Optional[str]:
        self.events.append(event)
        return None


@dataclass
class ProactiveModule:
    """A deployed runtime monitor: policy plus per-session cursor state."""

    policy: PolicyDoc
    state: str
    enabled: bool = True
    cached_ctor_args: Optional[tuple] = None

    def reset(self) -> None:
        self.state = self.policy.automaton.initial
        self.cached_ctor_args = None


@dataclass(frozen=True, slots=True, init=False)
class InterventionRecord:
    """One enforcement modification: synthesized non-empty or suppressed."""

    trigger: Event
    policy: str
    synthesized: tuple[Event, ...]
    suppressed: bool

    def __init__(self, trigger: Event, policy: str, synthesized: tuple[Event, ...],
                 suppressed: bool) -> None:
        if not synthesized and not suppressed:
            raise ValueError("intervention records exist only for modifications")
        _set_trigger(self, trigger)
        _set_policy(self, policy)
        _set_synthesized(self, synthesized)
        _set_suppressed(self, suppressed)


(_set_trigger, _set_policy, _set_synthesized,
 _set_suppressed) = slot_setters(InterventionRecord)


class EnforcementOutcome(NamedTuple):
    """What one on_event did: a (delivered, records, suppressed) tuple."""

    delivered: tuple[Event, ...]
    records: tuple[InterventionRecord, ...]
    suppressed: bool


def _policy_name(watcher: tuple[ProactiveModule, dict[str, Move]]) -> str:
    return watcher[0].policy.name


class PolicyEnforcer:
    """Dispatches intercepted events to enabled modules in policy-name order."""

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.sink: EventSink = sink if sink is not None else RecordingSink()
        self.modules: list[ProactiveModule] = []
        # symbol -> (module, its moves on symbol by state), by policy name
        self.watchers: dict[ActionSymbol,
                            list[tuple[ProactiveModule, dict[str, Move]]]] = {}
        # The resource manager: the live instance per interface, so a module
        # can destroy and recreate the object without the app noticing.
        self.bindings: dict[str, Optional[str]] = {}
        self.intervention_log: list[InterventionRecord] = []
        self._names: set[str] = set()
        # Deployed touched symbols; the deployed vocabularies are watchers' keys.
        self._touched: set[ActionSymbol] = set()

    def deploy(self, policy: PolicyDoc) -> ProactiveModule:
        """Append a module for the policy and file it in policy-name order
        under every symbol it watches; rejects interference and duplicate
        names.  A clean deploy tests two sets against the deployed union;
        pairs are listed with check_pair only to report a conflict."""
        if policy.name in self._names:
            raise DuplicatePolicyError(policy.name)
        automaton = policy.automaton
        touched = automaton.effects.touched
        if (not self.watchers.keys().isdisjoint(touched)
                or not self._touched.isdisjoint(automaton.vocabulary)):
            pairs = [pair for m in self.modules
                     for pair in check_pair(m.policy, policy).pairs]
            if pairs:
                raise InterferenceError(InterferenceReport(tuple(pairs)))
        module = ProactiveModule(policy=policy, state=automaton.initial)
        self.modules.append(module)
        self._names.add(policy.name)
        self._touched |= touched
        moves = automaton.moves
        for symbol in automaton.vocabulary:
            insort(self.watchers.setdefault(symbol, []), (module, moves[symbol]),
                   key=_policy_name)
        return module

    def set_enabled(self, handle: ProactiveModule, on: bool) -> None:
        """Enable/disable a module; turning on resets it to the initial
        state and clears the cached constructor args."""
        if not any(m is handle for m in self.modules):
            raise StaleHandleError(handle.policy.name)
        if on and not handle.enabled:
            handle.reset()
        handle.enabled = on

    def on_event(self, event: Event) -> EnforcementOutcome:
        """Offer one app event to the modules and execute the result.

        One walk of the watchers, in policy-name order, queues each enabled
        module's move and instantiates an editing move's template at once.
        With no edit the event executes as is, and a forward-only self-loop
        on a non-constructor commits nothing.  Otherwise the synthesized
        events before the forwarded input execute, then the app event,
        then those after it, module by module in policy-name order, as the
        records are; deploy order changes neither.  If any editing template
        omits the input, the app event is suppressed (suppression dominates
        forwarding).  Modules move only after every delivered event executed;
        a PolicyAuthoringError names the module's policy in `policy`."""
        if event.origin is not _APP:
            raise ValueError("only app events may enter the enforcer")
        constructor = event.symbol.kind is _CONSTRUCTOR
        # (module, next state, next cached constructor args)
        moved: list[tuple[ProactiveModule, str, Optional[tuple]]] = []
        # (module, synthesized, how many execute before the input, forwards)
        edits: list[tuple[ProactiveModule, tuple[Event, ...], int, bool]] = []
        for module, moves in self.watchers.get(event.symbol, ()):
            if not module.enabled:
                continue
            move = moves.get(module.state)
            if move is None:
                raise MissingTransitionError(module.state, event.symbol)
            next_state, template = move
            if template is not None:
                try:
                    synthesized, cached_ctor_args = instantiate(
                        template, event, module.cached_ctor_args, self.bindings)
                except PolicyAuthoringError as exc:
                    exc.policy = module.policy.name
                    raise
                moved.append((module, next_state, cached_ctor_args))
                edits.append((module, synthesized, template.pre, template.forwards))
            elif constructor or next_state != module.state:
                moved.append((module, next_state, event.args if constructor
                              else module.cached_ctor_args))

        if not edits:
            if constructor:
                event = self._execute(event)
            else:
                self.sink.execute(event)
            for module, next_state, cached_ctor_args in moved:
                module.state = next_state
                module.cached_ctor_args = cached_ctor_args
            # Skips the NamedTuple's __new__, a Python function.
            return tuple.__new__(EnforcementOutcome, ((event,), (), False))

        suppressed = False
        records: list[InterventionRecord] = []
        for module, synthesized, _, forwards in edits:
            if not forwards:
                suppressed = True
            if synthesized or not forwards:
                records.append(InterventionRecord(
                    event, module.policy.name, synthesized, not forwards))

        execute = self._execute
        delivered: list[Event] = []
        current = event
        try:
            for module, synthesized, pre, _ in edits:
                for current in synthesized[:pre]:
                    delivered.append(execute(current))
            if not suppressed:
                current = event
                delivered.append(execute(event))
            for module, synthesized, pre, _ in edits:
                for current in synthesized[pre:]:
                    delivered.append(execute(current))
        except Exception as exc:
            if current is event:
                raise
            raise HealingFailureError(module.policy.name, current, exc) from exc

        for module, next_state, cached_ctor_args in moved:
            module.state = next_state
            module.cached_ctor_args = cached_ctor_args
        self.intervention_log.extend(records)
        return tuple.__new__(EnforcementOutcome,
                             (tuple(delivered), tuple(records), suppressed))

    def _execute(self, event: Event) -> Event:
        """Execute an event on the sink and bind a constructor's instance.
        The sink's instance replaces a synthesized event's, and fills in
        an app event's only when the app gave none."""
        instance = self.sink.execute(event)
        if event.symbol.kind is _CONSTRUCTOR:
            if instance is not None and (event.instance is None
                                         or event.origin is _SYNTHESIZED):
                event = Event(event.symbol, event.seq, instance, event.args,
                              event.origin)
            self.bindings[event.symbol.interface] = event.instance
        return event

    def run_enforced(self, trace: Trace) -> tuple[Trace, list[InterventionRecord]]:
        """Batch driver: fold of on_event with output seq renumbered."""
        emitted: list[Event] = []
        records: list[InterventionRecord] = []
        for event in trace:
            outcome = self.on_event(event)
            emitted.extend(outcome.delivered)
            records.extend(outcome.records)
        return Trace.of(emitted), records
