"""Policy enforcer: deploys proactive modules, intercepts app events,
lets modules transform the stream, and executes synthesized actions
against the event sink through a transparent resource manager.

One enforcer serves one simulated app session.  Synthesized events are
executed immediately and never re-offered to any module, so enforcement
cannot recurse.

Modules enter only through `PolicyEnforcer.deploy`, which files each one
under every symbol it watches; an event reaches only the modules filed
under its symbol.  Every deployed pair has passed deploy's interference
gate, so a deploy checks only the new policy against the deployed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Protocol

from .automata import (
    ActionSymbol,
    BindingContext,
    Event,
    Kind,
    Origin,
    Trace,
    step,
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
    """The sink rejected a synthesized event; healing could not complete.
    No module moves and no record is logged, but events the sink executed
    before the rejected one stay executed."""

    def __init__(self, policy: str, event: Event, cause: Exception) -> None:
        self.policy = policy
        self.event = event
        self.cause = cause
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


class ResourceManager:
    """Transparent intermediary holding the live instance per interface,
    so a module can destroy and recreate the object without the app
    noticing.  At most one binding per interface per app session."""

    def __init__(self) -> None:
        self.bindings: dict[str, Optional[str]] = {}

    def bind(self, interface: str, instance: Optional[str]) -> None:
        self.bindings[interface] = instance

    def lookup(self, interface: str) -> Optional[str]:
        return self.bindings.get(interface)


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


@dataclass(frozen=True)
class InterventionRecord:
    """One enforcement modification: synthesized non-empty or suppressed."""

    trigger: Event
    policy: str
    synthesized: tuple[Event, ...]
    suppressed: bool
    at_seq: int

    def __post_init__(self) -> None:
        if not self.synthesized and not self.suppressed:
            raise ValueError("intervention records exist only for modifications")


@dataclass(frozen=True)
class EnforcementOutcome:
    delivered: tuple[Event, ...]
    records: tuple[InterventionRecord, ...]
    suppressed: bool


class PolicyEnforcer:
    """Dispatches intercepted events to enabled modules in deploy order."""

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.sink: EventSink = sink if sink is not None else RecordingSink()
        self.modules: list[ProactiveModule] = []
        self.watchers: dict[ActionSymbol, list[ProactiveModule]] = {}
        self.manager = ResourceManager()
        self.intervention_log: list[InterventionRecord] = []

    def deploy(self, policy: PolicyDoc) -> ProactiveModule:
        """Append a module for the policy and file it under every symbol
        it watches; rejects interference and duplicate names.  Every
        deployed pair passed this gate, so only the new pairs are checked."""
        if any(m.policy.name == policy.name for m in self.modules):
            raise DuplicatePolicyError(policy.name)
        pairs = [pair for m in self.modules
                 for pair in check_pair(m.policy, policy).pairs]
        if pairs:
            raise InterferenceError(InterferenceReport(tuple(pairs)))
        module = ProactiveModule(policy=policy, state=policy.automaton.initial)
        self.modules.append(module)
        for symbol in policy.automaton.vocabulary:
            self.watchers.setdefault(symbol, []).append(module)
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

        Synthesized events positioned before the forwarded input execute
        before the app event reaches the sink; items after it execute
        after.  If any matching module's template omits the input, the
        app event is suppressed (suppression dominates forwarding).
        Matched modules move only after every delivered event executed."""
        if event.origin is not Origin.APP:
            raise ValueError("only app events may enter the enforcer")
        suppressed = False
        records: list[InterventionRecord] = []
        # (module, next state, next cached constructor args, pre, post)
        matches: list[tuple[ProactiveModule, str, Optional[tuple],
                            list[Event], list[Event]]] = []

        for module in self.watchers.get(event.symbol, ()):
            if not module.enabled:
                continue
            context = BindingContext(module.cached_ctor_args,
                                     self.manager.bindings)
            next_state, emitted = step(module.policy.automaton, module.state,
                                       event, context)
            pre: list[Event] = []
            post: list[Event] = []
            forwarded = False
            for out in emitted:
                if out is event:
                    forwarded = True
                elif forwarded:
                    post.append(out)
                else:
                    pre.append(out)
            if not forwarded:
                suppressed = True
            synthesized = tuple(pre + post)
            if synthesized or not forwarded:
                records.append(InterventionRecord(
                    trigger=event, policy=module.policy.name,
                    synthesized=synthesized, suppressed=not forwarded,
                    at_seq=event.seq))
            matches.append((module, next_state, context.cached_ctor_args,
                            pre, post))

        # Synthesized events from different modules execute in policy-name
        # order so the delivered stream is independent of deployment order
        # (template order within one policy is preserved).
        ordered = sorted(matches, key=lambda m: m[0].policy.name)
        delivered = [self._execute_synthesized(module, synth)
                     for module, _, _, pre, _ in ordered for synth in pre]
        if not suppressed:
            instance = self.sink.execute(event)
            executed = event
            if event.symbol.kind is Kind.CONSTRUCTOR:
                if instance is not None and event.instance is None:
                    executed = replace(event, instance=instance)
                self.manager.bind(event.symbol.interface, executed.instance)
            delivered.append(executed)
        delivered.extend(self._execute_synthesized(module, synth)
                         for module, _, _, _, post in ordered for synth in post)

        for module, next_state, cached_ctor_args, _, _ in matches:
            module.state = next_state
            module.cached_ctor_args = cached_ctor_args
        self.intervention_log.extend(records)
        return EnforcementOutcome(tuple(delivered), tuple(records), suppressed)

    def _execute_synthesized(self, module: ProactiveModule, event: Event) -> Event:
        try:
            instance = self.sink.execute(event)
        except Exception as exc:
            raise HealingFailureError(module.policy.name, event, exc) from exc
        if event.symbol.kind is Kind.CONSTRUCTOR:
            if instance is not None:
                event = replace(event, instance=instance)
            self.manager.bind(event.symbol.interface, event.instance)
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
