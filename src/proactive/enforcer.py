"""Policy enforcer: deploys proactive modules, intercepts app events,
lets modules transform the stream, and executes synthesized actions
against the event sink through a transparent resource manager.

One enforcer serves one simulated app session.  An event on a quiet symbol,
one outside every deployed `EditAutomaton.editable`, executes first; then
each watcher moves in place.  On any other, one walk of the watchers
instantiates every edit and builds its record, an immutable tuple made with
`tuple.__new__`; the synthesized events then execute, only constructors
through `_execute`, and are never re-offered to any module, so enforcement
cannot recurse.  An idle watcher has no move: one dict probe passes it.
Each call returns the events it delivered as one `EnforcementOutcome` tuple.

Modules enter only through `PolicyEnforcer.deploy`, which files each one
as a (policy name, module, moves) triple in name order under every symbol
it watches; an event reaches only the modules filed under its symbol, in
that order.  Every deployed pair has passed deploy's interference gate,
so a deploy tests the new policy against the deployed union: a clean
deploy tests two sets; pairs are listed only to report a conflict.
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
    _MISSING,
    _SYNTHESIZED,
    instantiate,
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
        """Apply an event; returns a fresh instance id, or None, for a
        constructor, and None, which the enforcer never reads, otherwise."""


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
    cached_ctor_args: Optional[tuple] = None


class _InterventionFields(NamedTuple):
    trigger: Event
    policy: str
    synthesized: tuple[Event, ...]
    suppressed: bool


class InterventionRecord(_InterventionFields):
    """One enforcement modification: synthesized non-empty or suppressed.
    The call and `_make` (so `_replace`) refuse a record that modifies
    neither; on_event builds its own with _tuple_new."""

    __slots__ = ()

    def __new__(cls, trigger: Event, policy: str, synthesized: tuple[Event, ...],
                suppressed: bool) -> "InterventionRecord":
        if not synthesized and not suppressed:
            raise ValueError("intervention records exist only for modifications")
        return tuple.__new__(cls, (trigger, policy, synthesized, suppressed))

    @classmethod
    def _make(cls, iterable) -> "InterventionRecord":
        return cls(*iterable)


class EnforcementOutcome(tuple):
    """The events one on_event delivered, in execution order; its call is
    tuple's, in C.  `records`, () by class default, is set once as an edit's
    outcome is built, and equality compares it; `suppressed` reads it."""

    records: tuple[InterventionRecord, ...] = ()
    __match_args__ = ("delivered", "records", "suppressed")
    delivered = property(lambda self: self)  # the outcome itself: no copy
    suppressed = property(lambda self: any(r.suppressed for r in self.records))
    __hash__ = tuple.__hash__
    __setattr__, __delattr__ = Event.__setattr__, Event.__delattr__  # frozen as Event is

    def __eq__(self, other):
        if isinstance(other, EnforcementOutcome) and self.records != other.records:
            return False
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __repr__(self) -> str:
        return "EnforcementOutcome(delivered=%s, records=%r, suppressed=%r)" % (
            tuple.__repr__(self), self.records, self.suppressed)


_tuple_new = tuple.__new__
_new_event = Event.__new__  # called directly: no class call, no object_init


class PolicyEnforcer:
    """Dispatches intercepted events to the deployed modules in policy-name order."""

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.sink: EventSink = sink if sink is not None else RecordingSink()
        self.modules: list[ProactiveModule] = []
        # symbol -> (unique policy name, module, its moves on symbol by state), sorted
        self.watchers: dict[ActionSymbol,
                            list[tuple[str, ProactiveModule, dict[str, Move]]]] = {}
        # The resource manager: the live instance per interface, so a module
        # can destroy and recreate the object without the app noticing.
        self.bindings: dict[str, Optional[str]] = {}
        self.intervention_log: list[InterventionRecord] = []
        self._names: set[str] = set()
        # Deployed touched and editable symbols; the deployed vocabularies are watchers' keys.
        self._touched: set[ActionSymbol] = set()
        self._editable: set[ActionSymbol] = set()

    def deploy(self, policy: PolicyDoc) -> ProactiveModule:
        """Append a module for the policy and file it in policy-name order
        under every symbol it watches; rejects interference and duplicate
        names.  A clean deploy tests two sets against the deployed union;
        pairs are listed with check_pair only to report a conflict."""
        if policy.name in self._names:
            raise DuplicatePolicyError(policy.name)
        automaton = policy.automaton
        touched = automaton.touched
        if (not self.watchers.keys().isdisjoint(touched)
                or not self._touched.isdisjoint(automaton.vocabulary)):
            pairs = [pair for m in self.modules
                     for pair in check_pair(m.policy, policy).pairs]
            if pairs:
                raise InterferenceError(InterferenceReport(tuple(pairs)))
        module = ProactiveModule(policy, automaton.initial)
        self.modules.append(module)
        self._names.add(policy.name)
        self._touched |= touched
        self._editable |= automaton.editable
        for symbol, moves in automaton.moves.items():
            insort(self.watchers.setdefault(symbol, []), (policy.name, module, moves))
        return module

    def on_event(self, event: Event) -> EnforcementOutcome:
        """Offer one app event to the modules and execute the result.

        Unless the symbol is quiet, one walk of the watchers, in policy-name
        order, builds each editing move's events and record at once, and
        raises MissingTransitionError on a _MISSING move.  With no edit the
        event executes as is.  Otherwise the synthesized events before the
        input execute, then the app event, then those after it, module by
        module in policy-name order, as the records are; deploy order
        changes neither.  Only constructors pass through _execute, which
        binds their instance.  If any editing template omits the input, the
        app event is suppressed (suppression dominates forwarding).  Modules
        move only after every delivered event executed; a
        PolicyAuthoringError names the module's policy in `policy`."""
        if event.origin is not _APP:
            raise ValueError("only app events may enter the enforcer")
        symbol = event.symbol
        constructor = symbol.kind is _CONSTRUCTOR
        if symbol not in self._editable:  # quiet: no move edits or fails
            if constructor:
                event = self._execute(event)
            else:
                self.sink.execute(event)
            for name, module, moves in self.watchers.get(symbol, ()):
                move = moves.get(module.state)
                if move is not None:
                    module.state = move[0]
                    if constructor:
                        module.cached_ctor_args = event.args
            return EnforcementOutcome((event,))
        # Each move's (module, next state, next cached constructor args); the
        # inserted events that execute before the input, then those after it,
        # and the records, in policy-name order, made only at the first edit.
        moved: list[tuple[ProactiveModule, str, Optional[tuple]]] = []
        before: Optional[list[Event]] = None
        records: Optional[list[InterventionRecord]] = None
        suppressed = False
        for name, module, moves in self.watchers[symbol]:
            move = moves.get(module.state)
            if move is None:
                continue
            next_state, transition = move
            if transition is not None:
                try:
                    synthesized, cached_ctor_args = instantiate(
                        transition, event, module.cached_ctor_args, self.bindings)
                except PolicyAuthoringError as exc:
                    exc.policy = name
                    raise
                moved.append((module, next_state, cached_ctor_args))
                if records is None:
                    before, after, records = [], (), []
                pre = transition.pre  # sliced only if an inserted event follows the input
                if pre == len(synthesized):
                    before += synthesized
                else:
                    before += synthesized[:pre]
                    after += synthesized[pre:]
                drops = not transition.forwards
                suppressed |= drops
                if synthesized or drops:
                    records.append(_tuple_new(
                        InterventionRecord, (event, name, synthesized, drops)))
            elif move is _MISSING:
                raise MissingTransitionError(module.state, symbol)
            else:
                moved.append((module, next_state, event.args if constructor
                              else module.cached_ctor_args))

        if records is None:
            if constructor:
                event = self._execute(event)
            else:
                self.sink.execute(event)
        else:
            if not suppressed:
                before.append(event)
            before += after
            execute, bind = self.sink.execute, self._execute
            delivered: list[Event] = []
            try:
                for current in before:
                    if current.symbol.kind is _CONSTRUCTOR:
                        current = bind(current)
                    else:
                        execute(current)
                    delivered.append(current)
            except Exception as exc:
                if current is event:
                    raise
                for record in records:  # a loop: a closure would cost a cell per call
                    if id(current) in map(id, record.synthesized):
                        raise HealingFailureError(record.policy, current, exc) from exc
                raise

        for module, next_state, cached_ctor_args in moved:
            module.state = next_state
            module.cached_ctor_args = cached_ctor_args
        if records is None:
            return EnforcementOutcome((event,))
        self.intervention_log.extend(records)
        outcome = EnforcementOutcome(delivered)
        outcome.__dict__["records"] = tuple(records)  # past __setattr__'s refusal
        return outcome

    def _execute(self, event: Event) -> Event:
        """Execute a constructor on the sink and bind its instance.  The
        sink's instance replaces a synthesized event's, and fills in an
        app event's only when the app gave none."""
        instance = self.sink.execute(event)
        if instance is not None and (event.instance is None
                                     or event.origin is _SYNTHESIZED):
            event = _new_event(Event, event.symbol, event.seq, instance,
                               event.args, event.origin)
        self.bindings[event.symbol.interface] = event.instance
        return event

    def run_enforced(self, trace: Trace) -> tuple[Trace, list[InterventionRecord]]:
        """Batch driver: fold of on_event with output seq renumbered."""
        emitted: list[Event] = []
        records: list[InterventionRecord] = []
        for event in trace:
            outcome = self.on_event(event)
            emitted.extend(outcome)
            records.extend(outcome.records)
        return Trace.of(emitted), records
