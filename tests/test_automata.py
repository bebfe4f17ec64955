import itertools

import pytest

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
    is_valid,
    run,
    run_from,
    state_sort_key,
    step,
    validate,
    violations,
)
from proactive.dsl import parse
from proactive.pack import bundled_pack_dir

from helpers import (
    DOA,
    DOB,
    DOX,
    FIXTURES,
    NEW_AR,
    ON_STOP,
    RELEASE_AR,
    START_REC,
    STOP_REC,
    event_shapes,
    fwd,
    random_policy_doc,
    reference_effect_sets,
    reference_matching,
    reference_validate,
    synth,
)


def loop(state, guard, output, target=None):
    return Transition(state, guard, output, target if target is not None else state)


NONDETERMINISTIC = EditAutomaton(
    frozenset({"0"}), "0",
    (loop("0", Guard.exactly(DOA), (fwd(),)),
     loop("0", Guard.any(), (fwd(),))))
DANGLING_TARGET = EditAutomaton(
    frozenset({"0"}), "0",
    (Transition("0", Guard.any(), (fwd(),), "9"),))
BAD_INITIAL = EditAutomaton(frozenset({"0"}), "9",
                            (loop("0", Guard.any(), (fwd(),)),))
MULTIPLE_FORWARDS = EditAutomaton(frozenset({"0"}), "0",
                                  (loop("0", Guard.any(), (fwd(), fwd())),))
# A clash declared catch-all first, where only the catch-all suppresses.
SUPPRESSING_CLASH = EditAutomaton(
    frozenset({"0"}), "0",
    (loop("0", Guard.any(), ()),
     loop("0", Guard.exactly(DOA), (fwd(),))))
# doB enters the vocabulary through the template only; state 0 has no
# transition matching it.
INCOMPLETE = EditAutomaton(
    frozenset({"0"}), "0",
    (loop("0", Guard.exactly(DOA), (synth(DOB), fwd())),))
INVALID = {"nondeterministic": NONDETERMINISTIC,
           "dangling-target": DANGLING_TARGET,
           "bad-initial": BAD_INITIAL,
           "multiple-forwards": MULTIPLE_FORWARDS,
           "suppressing-clash": SUPPRESSING_CLASH,
           "incomplete": INCOMPLETE}


class TestActionSymbol:
    def test_structural_equality_ignores_nothing_else(self):
        assert ActionSymbol.call("A", "m") == ActionSymbol.call("A", "m")
        assert ActionSymbol.call("A", "m") != ActionSymbol.call("B", "m")
        assert ActionSymbol.call("A", "m") != ActionSymbol.callback("m")

    def test_constructor_reuses_interface_as_method(self):
        symbol = ActionSymbol.constructor("AudioRecord")
        assert symbol.method == "AudioRecord"
        assert symbol.kind is Kind.CONSTRUCTOR

    def test_rendering(self):
        assert str(DOA) == "call Api.doA"
        assert str(ON_STOP) == "callback onStop"
        assert str(NEW_AR) == "new AudioRecord"


class TestTrace:
    def test_rejects_non_increasing_seq(self):
        events = (Event(DOA, seq=2), Event(DOB, seq=2))
        with pytest.raises(ValueError):
            Trace(events)

    def test_of_renumbers(self):
        trace = Trace.of([Event(DOA, seq=7), Event(DOB, seq=7)])
        assert [e.seq for e in trace] == [1, 2]

    def test_empty_ok(self):
        assert len(Trace()) == 0


class TestGuard:
    def test_set_guards_require_symbols(self):
        with pytest.raises(ValueError):
            Guard.any_except([])
        with pytest.raises(ValueError):
            Guard.any_of([])

    def test_exactly_takes_one_symbol(self):
        with pytest.raises(ValueError):
            Guard(Guard.exactly(DOA).kind, frozenset([DOA, DOB]))

    def test_matching(self):
        assert Guard.any().matches(DOA)
        assert Guard.exactly(DOA).matches(DOA)
        assert not Guard.exactly(DOA).matches(DOB)
        assert Guard.any_except([DOA]).matches(DOB)
        assert not Guard.any_except([DOA]).matches(DOA)

    def test_text_sorts_set_elements(self):
        guard = Guard.any_except([DOB, DOA])
        assert guard.text() == "any-except {call Api.doA call Api.doB}"


class TestStateOrder:
    def test_every_permutation_sorts_the_same_way(self):
        states = ["3", "03", "003", "\u00b2", "a"]
        orders = {tuple(sorted(p, key=state_sort_key))
                  for p in itertools.permutations(states)}
        assert orders == {("003", "03", "3", "a", "\u00b2")}


class TestValidate:
    def test_single_any_self_loop_is_valid(self):
        automaton = EditAutomaton(frozenset({"0"}), "0",
                                  (loop("0", Guard.any(), (fwd(),)),))
        assert is_valid(automaton)

    def test_nondeterminism_names_state_and_symbol(self):
        diags = validate(NONDETERMINISTIC)
        assert [d.code for d in diags] == ["nondeterministic"]
        assert diags[0].state == "0"
        assert diags[0].symbol == DOA

    def test_dangling_target_state(self):
        assert "dangling-state" in [d.code for d in validate(DANGLING_TARGET)]

    def test_bad_initial(self):
        assert "bad-initial" in [d.code for d in validate(BAD_INITIAL)]

    def test_multiple_forwards(self):
        assert "multiple-forwards" in [d.code for d in validate(MULTIPLE_FORWARDS)]

    def test_incomplete_over_synthesized_symbol(self):
        diags = validate(INCOMPLETE)
        assert [d.code for d in diags] == ["incomplete"]
        assert diags[0].symbol == DOB

    def test_valid_fixture_models(self, substitution, forced_release):
        assert is_valid(substitution)
        assert is_valid(forced_release)


class TestStep:
    def test_out_of_vocabulary_bypasses(self, substitution):
        alien = Event(ActionSymbol.call("Alien", "ping"), seq=1)
        state, out = step(substitution, "1", alien)
        assert state == "1"
        assert out == [alien]

    def test_forwarded_input_is_the_same_object(self, substitution):
        event = Event(DOB, seq=1)
        _, out = step(substitution, "0", event)
        assert out[0] is event

    def test_substitution_in_state_1(self, substitution):
        event = Event(DOA, seq=3)
        state, out = step(substitution, "1", event)
        assert state == "1"
        assert [e.symbol for e in out] == [DOA, DOX]
        assert out[0].origin is Origin.APP
        assert out[1].origin is Origin.SYNTHESIZED

    def test_acquisition_advances_release_model(self, forced_release):
        state, out = step(forced_release, "0", Event(NEW_AR, seq=1))
        assert state == "1"
        assert [e.symbol for e in out] == [NEW_AR]

    def test_forced_release_on_stop(self, forced_release):
        state, out = step(forced_release, "2", Event(ON_STOP, seq=4))
        assert state == "0"
        assert [e.symbol for e in out] == [STOP_REC, RELEASE_AR, ON_STOP]
        assert [e.origin for e in out] == [Origin.SYNTHESIZED,
                                           Origin.SYNTHESIZED, Origin.APP]

    def test_cached_args_resolved_from_context(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA),
                  (synth(NEW_AR, ArgSource.CACHED), fwd())),
             loop("0", Guard.any_except([DOA]), (fwd(),))))
        context = BindingContext()
        context.observe(Event(NEW_AR, seq=1, args=(8000, 16), instance="AR#1"))
        _, out = step(automaton, "0", Event(DOA, seq=2), context)
        assert out[0].args == (8000, 16)
        assert out[0].instance == "AR#1"

    def test_cached_args_without_constructor_is_authoring_fault(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA),
                  (synth(NEW_AR, ArgSource.CACHED), fwd())),
             loop("0", Guard.any_except([DOA]), (fwd(),))))
        with pytest.raises(PolicyAuthoringError):
            step(automaton, "0", Event(DOA, seq=1))

    def test_literal_args(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA),
                  (synth(DOB, ArgSource.LITERALS, (1, "x")), fwd())),
             loop("0", Guard.any_except([DOA]), (fwd(),))))
        _, out = step(automaton, "0", Event(DOA, seq=1))
        assert out[0].args == (1, "x")

    def test_missing_transition_signals_skipped_validation(self):
        # doB is in the vocabulary via the template, but no transition
        # matches it; validation would have caught this.
        with pytest.raises(MissingTransitionError):
            step(INCOMPLETE, "0", Event(DOB, seq=1))


class TestRun:
    def test_empty_trace(self, substitution):
        assert run(substitution, Trace()) == Trace()

    def test_substitution_example(self, substitution):
        trace = Trace.from_symbols([DOA, DOA, DOB, DOA])
        out = run(substitution, trace)
        assert list(out.symbols()) == [DOX, DOX, DOB, DOA, DOX]
        assert [e.seq for e in out] == [1, 2, 3, 4, 5]

    def test_forced_release_example(self, forced_release):
        trace = Trace.from_symbols([NEW_AR, START_REC, ON_STOP])
        out = run(forced_release, trace)
        assert list(out.symbols()) == [NEW_AR, START_REC, STOP_REC,
                                       RELEASE_AR, ON_STOP]

    def test_input_trace_unmodified(self, substitution):
        trace = Trace.from_symbols([DOA, DOB])
        before = tuple(trace)
        run(substitution, trace)
        assert tuple(trace) == before

    def test_run_is_pure(self, forced_release):
        trace = Trace.from_symbols([NEW_AR, START_REC, ON_STOP, NEW_AR])
        assert event_shapes(run(forced_release, trace)) \
            == event_shapes(run(forced_release, trace))

    def test_run_from_carries_context(self, forced_release):
        events = list(Trace.from_symbols([NEW_AR, START_REC, ON_STOP]))
        context = BindingContext()
        state, first = run_from(forced_release, "0", events[:2], context)
        state, rest = run_from(forced_release, state, events[2:], context)
        assert state == "0"
        assert [e.symbol for e in first + rest] == \
            [NEW_AR, START_REC, STOP_REC, RELEASE_AR, ON_STOP]


class TestEffectSets:
    def test_forced_release(self, forced_release):
        effects = forced_release.effects
        assert effects.inserted == frozenset({STOP_REC, RELEASE_AR})
        assert effects.suppressible == frozenset()

    def test_pure_forwarder(self):
        automaton = EditAutomaton(frozenset({"0"}), "0",
                                  (loop("0", Guard.any(), (fwd(),)),))
        effects = automaton.effects
        assert effects.inserted == frozenset()
        assert effects.suppressible == frozenset()

    def test_empty_template_suppresses(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA), ()),
             loop("0", Guard.any_except([DOA]), (fwd(),))))
        assert automaton.effects.suppressible == frozenset({DOA})

    def test_suppressing_catch_all_covers_matching_vocabulary(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA), (fwd(),)),
             loop("0", Guard.exactly(DOB), (synth(DOX), fwd())),
             loop("0", Guard.any_except([DOA, DOB]), ()),))
        assert automaton.effects.suppressible == frozenset({DOX})


class TestViolations:
    def test_compliant_trace_has_none(self, forced_release):
        trace = Trace.from_symbols([NEW_AR, START_REC, STOP_REC, RELEASE_AR,
                                    ON_STOP])
        assert violations(forced_release, trace) == []

    def test_faulty_trace_flags_the_trigger(self, forced_release):
        trace = Trace.from_symbols([NEW_AR, START_REC, ON_STOP])
        found = violations(forced_release, trace)
        assert [e.symbol for e in found] == [ON_STOP]

    def test_healed_output_is_clean(self, forced_release):
        trace = Trace.from_symbols([NEW_AR, START_REC, ON_STOP])
        assert violations(forced_release, run(forced_release, trace)) == []


class TestAutomatonEquality:
    def test_transition_order_is_irrelevant(self, forced_release):
        reordered = EditAutomaton(forced_release.states,
                                  forced_release.initial,
                                  tuple(reversed(forced_release.transitions)))
        assert reordered == forced_release

    def test_different_initial_differs(self, forced_release):
        other = EditAutomaton(forced_release.states, "1",
                              forced_release.transitions)
        assert other != forced_release


def reference_cases():
    """Every bundled policy and fixture, 200 generated policies and the
    invalid automata above, by name."""
    files = sorted(bundled_pack_dir().glob("*.pol")) + sorted(FIXTURES.glob("*.pol"))
    cases = {p.name: parse(p.read_text(encoding="utf-8")).automaton for p in files}
    cases.update((f"generated-{seed}", random_policy_doc(seed).automaton)
                 for seed in range(200))
    cases.update(INVALID)
    return cases


class TestTableAgreesWithReference:
    def test_table_lists_every_match_in_declaration_order(self):
        for name, automaton in reference_cases().items():
            sources = automaton.states | {t.source for t in automaton.transitions}
            expected = {}
            for state in sources:
                for symbol in automaton.vocabulary:
                    matching = reference_matching(automaton, state, symbol)
                    if matching:
                        expected[(state, symbol)] = tuple(matching)
            assert automaton.table == expected, name

    def test_step_takes_the_first_match(self):
        for name, automaton in reference_cases().items():
            for (state, symbol), matching in automaton.table.items():
                first = matching[0]
                target, out = step(automaton, state, Event(symbol, seq=1),
                                   BindingContext(cached_ctor_args=()))
                assert (target, [e.symbol for e in out]) == (
                    first.target, [i.symbol or symbol for i in first.output]), \
                    (name, state, symbol)

    def test_effect_sets(self):
        for name, automaton in reference_cases().items():
            assert automaton.effects == reference_effect_sets(automaton), name

    def test_validate_codes_and_order(self):
        for name, automaton in reference_cases().items():
            def key(diags):
                return [(d.code, d.message, d.state, d.symbol) for d in diags]
            assert key(validate(automaton)) == key(reference_validate(automaton)), name
