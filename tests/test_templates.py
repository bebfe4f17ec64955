"""Compiled templates: the template path of `step` and `on_event` against
the item-by-item reference step, the edge cases of splitting a template
around its input, and the slotted event and record types."""

import copy
import dataclasses
import itertools
import pickle

import pytest

import proactive.automata as automata_module
import proactive.enforcer as enforcer_module
from proactive.automata import (
    ActionSymbol,
    ArgSource,
    BindingContext,
    EditAutomaton,
    Event,
    Guard,
    Kind,
    MissingTransitionError,
    Origin,
    OutputItem,
    PolicyAuthoringError,
    Trace,
    Transition,
    step,
)
from proactive.enforcer import InterventionRecord, PolicyEnforcer, RecordingSink

from helpers import (
    DOA,
    DOB,
    ReferenceBindingContext,
    fwd,
    make_doc,
    policy_files,
    random_policy_doc,
    reference_step,
)
from test_automata import INVALID

NEW_API = ActionSymbol.constructor("Api")
CACHED_CHOICES = (None, (7, "cached"))


def reference_docs():
    """The bundled policies, the fixtures, 200 generated policies and the
    invalid automata, which miss a move or clash."""
    return (policy_files() + [random_policy_doc(seed) for seed in range(200)]
            + [make_doc(name, automaton) for name, automaton in INVALID.items()])


def inputs_for(symbol):
    """A constructor input with an instance and one without; any other
    symbol as a plain app event."""
    if symbol.kind is Kind.CONSTRUCTOR:
        return (Event(symbol, 5, f"{symbol.interface}#app", (1, "ctor")),
                Event(symbol, 5, None, (2, "ctor")))
    return (Event(symbol, 5),)


def bindings_for(automaton):
    """A bound instance for every vocabulary interface except Activity,
    so items on callbacks look up an unbound interface."""
    return {s.interface: f"{s.interface}#bound" for s in automaton.vocabulary
            if s.kind is not Kind.CALLBACK}


def shapes(events, trigger):
    return [(e.symbol, e.seq, e.instance, e.args, e.origin, e is trigger)
            for e in events]


def outcome_of(run):
    """run's result, or the name of the contract error it raised."""
    try:
        return run()
    except (PolicyAuthoringError, MissingTransitionError) as exc:
        return type(exc).__name__


def cases(doc):
    automaton = doc.automaton
    states = automaton.states | {t.source for t in automaton.transitions}
    for state in sorted(states):
        for symbol in sorted(automaton.vocabulary, key=str):
            for event in inputs_for(symbol):
                for cached in CACHED_CHOICES:
                    yield state, event, cached


def expected_on_event(doc, state, event, cached, bindings):
    """What on_event on a RecordingSink does for one module, derived from
    reference_step: split the output around the input by identity."""
    context = ReferenceBindingContext(cached, bindings)
    next_state, emitted = reference_step(doc.automaton, state, event, context)
    pre, post, forwarded = [], [], False
    for out in emitted:
        if out is event:
            forwarded = True
        else:
            (post if forwarded else pre).append(out)
    delivered = pre + ([event] if forwarded else []) + post
    records = []
    if pre or post or not forwarded:
        records.append((True, doc.name, shapes(pre + post, event),
                        not forwarded))
    bound = dict(bindings)
    bound.update((e.symbol.interface, e.instance) for e in delivered
                 if e.symbol.kind is Kind.CONSTRUCTOR)
    return (shapes(delivered, event), records, not forwarded,
            next_state, context.cached_ctor_args, bound)


def record_shapes(records, trigger):
    return [(r.trigger is trigger, r.policy, shapes(r.synthesized, trigger),
             r.suppressed) for r in records]


class TestAgainstReferenceStep:
    def test_step(self):
        checked = 0
        for doc in reference_docs():
            automaton = doc.automaton
            bindings = bindings_for(automaton)
            for state, event, cached in cases(doc):
                def compiled():
                    context = BindingContext(cached, bindings)
                    target, out = step(automaton, state, event, context)
                    return target, shapes(out, event), context.cached_ctor_args

                def reference():
                    context = ReferenceBindingContext(cached, bindings)
                    target, out = reference_step(automaton, state, event, context)
                    return target, shapes(out, event), context.cached_ctor_args

                assert outcome_of(compiled) == outcome_of(reference), \
                    (doc.name, state, event, cached)
                checked += 1
        assert checked > 4000

    def test_on_event(self):
        raised = set()
        for doc in reference_docs():
            enforcer = PolicyEnforcer(RecordingSink())
            module = enforcer.deploy(doc)
            bindings = bindings_for(doc.automaton)
            for state, event, cached in cases(doc):
                module.state, module.cached_ctor_args = state, cached
                enforcer.bindings = dict(bindings)
                enforcer.sink.events.clear()
                enforcer.intervention_log.clear()

                def compiled():
                    outcome = enforcer.on_event(event)
                    assert enforcer.sink.events == list(outcome.delivered)
                    assert enforcer.intervention_log == list(outcome.records)
                    return (shapes(outcome.delivered, event),
                            record_shapes(outcome.records, event),
                            outcome.suppressed, module.state,
                            module.cached_ctor_args, enforcer.bindings)

                got = outcome_of(compiled)
                want = outcome_of(lambda: expected_on_event(
                    doc, state, event, cached, bindings))
                assert got == want, (doc.name, state, event, cached)
                if isinstance(want, str):
                    raised.add(want)
                    # A contract error moves no module and executes nothing.
                    assert (module.state, module.cached_ctor_args) \
                        == (state, cached)
                    assert enforcer.sink.events == []
                    assert enforcer.intervention_log == []
        assert raised == {"PolicyAuthoringError", "MissingTransitionError"}


def one_state(*transitions):
    return EditAutomaton(frozenset({"0"}), "0", transitions)


def loop(guard, output):
    return Transition("0", guard, output, "0")


def test_step_and_on_event_share_one_instantiation(monkeypatch):
    calls = []
    original = automata_module.instantiate

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(automata_module, "instantiate", counting)
    monkeypatch.setattr(enforcer_module, "instantiate", counting)
    automaton = one_state(loop(Guard.exactly(DOA), (OutputItem(DOB), fwd())),
                          loop(Guard.any_except([DOA]), (fwd(),)))
    transition = automaton.moves[DOA]["0"][1]
    step(automaton, "0", Event(DOA, seq=1))
    enforcer = PolicyEnforcer()
    enforcer.deploy(make_doc("shared", automaton))
    enforcer.on_event(Event(DOA, seq=2))
    step(automaton, "0", Event(DOB, seq=3))
    assert len(calls) == 2 and all(t is transition for t in calls)


class TestTemplateEdgeCases:
    def test_literal_constructor_feeds_a_later_cached_item(self):
        automaton = one_state(
            loop(Guard.exactly(DOA),
                 (OutputItem(NEW_API, ArgSource.LITERALS, (3, "lit")),
                  OutputItem(DOB, ArgSource.CACHED), fwd())),
            loop(Guard.any_except([DOA]), (fwd(),)))
        context = BindingContext(cached_ctor_args=(9,))
        _, out = step(automaton, "0", Event(DOA, seq=1), context)
        assert [(e.symbol, e.args) for e in out] == [
            (NEW_API, (3, "lit")), (DOB, (3, "lit")), (DOA, ())]
        assert context.cached_ctor_args == (3, "lit")

        enforcer = PolicyEnforcer()
        module = enforcer.deploy(make_doc("literal-ctor", automaton))
        module.cached_ctor_args = (9,)
        outcome = enforcer.on_event(Event(DOA, seq=1))
        assert [(e.symbol, e.args) for e in outcome.delivered] == [
            (NEW_API, (3, "lit")), (DOB, (3, "lit")), (DOA, ())]
        assert module.cached_ctor_args == (3, "lit")

    def test_item_on_the_app_constructors_interface_gets_its_instance(self):
        automaton = one_state(
            loop(Guard.exactly(NEW_API),
                 (OutputItem(DOA), fwd(), OutputItem(DOB))),
            loop(Guard.any_except([NEW_API]), (fwd(),)))
        event = Event(NEW_API, seq=2, instance="Api#app", args=(1,))
        context = BindingContext(instances={"Api": "Api#old"})
        _, out = step(automaton, "0", event, context)
        assert [e.instance for e in out] == ["Api#app"] * 3

        enforcer = PolicyEnforcer()
        enforcer.deploy(make_doc("own-instance", automaton))
        enforcer.bindings["Api"] = "Api#old"
        outcome = enforcer.on_event(event)
        assert [(e.symbol, e.instance) for e in outcome.delivered] == [
            (DOA, "Api#app"), (NEW_API, "Api#app"), (DOB, "Api#app")]
        assert outcome.records[0].synthesized[0].instance == "Api#app"

    def test_two_inputs_are_refused(self):
        with pytest.raises(ValueError, match="forwards the input more than once"):
            loop(Guard.exactly(DOA), (fwd(), OutputItem(DOB), fwd()))

    def test_every_short_output_is_refused_or_delivered_as_step_emits(self):
        """All 40 outputs of at most three items: Transition refuses exactly
        those that forward the input twice or more, and for every other one
        on_event delivers what step emits, with cached args set and unset."""
        pool = (fwd(), OutputItem(DOB), OutputItem(NEW_API, ArgSource.CACHED))
        outputs = [o for n in range(4) for o in itertools.product(pool, repeat=n)]
        assert len(outputs) == 40
        refused = 0
        for output in outputs:
            doubled = output.count(fwd()) > 1
            try:
                transition = loop(Guard.exactly(DOA), output)
            except ValueError:
                assert doubled, output
                refused += 1
                continue
            assert not doubled, output
            automaton = one_state(transition, loop(Guard.any_except([DOA]), (fwd(),)))
            enforcer = PolicyEnforcer(RecordingSink())
            module = enforcer.deploy(make_doc("short", automaton))
            for cached in CACHED_CHOICES:
                event = Event(DOA, seq=3)
                module.state, module.cached_ctor_args = "0", cached

                def emitted():
                    _, out = step(automaton, "0", event, BindingContext(cached))
                    return shapes(out, event)

                def delivered():
                    return shapes(enforcer.on_event(event).delivered, event)

                assert outcome_of(delivered) == outcome_of(emitted), (output, cached)
        assert refused == 8

    def test_bare_suppression_logs_a_record(self):
        automaton = one_state(loop(Guard.exactly(DOA), ()),
                              loop(Guard.any_except([DOA]), (fwd(),)))
        enforcer = PolicyEnforcer()
        enforcer.deploy(make_doc("suppress", automaton))
        event = Event(DOA, seq=4)
        outcome = enforcer.on_event(event)
        assert outcome.delivered == () and outcome.suppressed
        assert enforcer.sink.events == []
        [record] = outcome.records
        assert (record.trigger, record.policy, record.synthesized,
                record.suppressed) == (event, "suppress", (), True)
        assert enforcer.intervention_log == [record]


class TestSlottedTypes:
    EVENT = Event(NEW_API, seq=3, instance="Api#1", args=(1, "x"),
                  origin=Origin.SYNTHESIZED)

    def test_event_copies_pickles_and_hashes(self):
        for clone in (copy.deepcopy(self.EVENT), copy.copy(self.EVENT),
                      pickle.loads(pickle.dumps(self.EVENT))):
            assert clone == self.EVENT
            assert hash(clone) == hash(self.EVENT)
        assert not hasattr(self.EVENT, "__dict__")

    def test_event_replace_renumbers_a_trace(self):
        trace = Trace.of([self.EVENT, Event(DOA, seq=9)])
        assert [e.seq for e in trace] == [1, 2]
        assert trace.events[0] == dataclasses.replace(self.EVENT, seq=1)

    def test_event_fields_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.EVENT.seq = 4

    def test_record_is_frozen_and_slotted(self):
        record = InterventionRecord(self.EVENT, "p", (), True)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.suppressed = False
        with pytest.raises(AttributeError):
            record.note = "x"
        for clone in (copy.deepcopy(record), copy.copy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is InterventionRecord
            assert clone == record
            assert hash(clone) == hash(record)

    def test_record_that_neither_synthesizes_nor_suppresses_is_refused(self):
        with pytest.raises(ValueError):
            InterventionRecord(self.EVENT, "p", (), False)
