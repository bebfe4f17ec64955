import collections
import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading
import uuid

import pytest

from proactive.automata import (
    ActionSymbol,
    ArgSource,
    BindingContext,
    EditAutomaton,
    Event,
    Guard,
    GuardKind,
    Kind,
    MissingTransitionError,
    Origin,
    OutputItem,
    PolicyAuthoringError,
    Trace,
    Transition,
    _MISSING,
    run,
    run_from,
    state_sort_key,
    step,
    validate,
    violations,
)
from proactive.dsl import parse, serialize
from proactive.enforcer import PolicyEnforcer
from proactive.interference import check_set
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
    make_doc,
    policy_texts,
    random_policy_doc,
    random_trace,
    reference_effect_sets,
    reference_matches,
    reference_matching,
    reference_validate,
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
# A clash declared catch-all first, where only the catch-all suppresses.
SUPPRESSING_CLASH = EditAutomaton(
    frozenset({"0"}), "0",
    (loop("0", Guard.any(), ()),
     loop("0", Guard.exactly(DOA), (fwd(),))))
# doB enters the vocabulary through the template only; state 0 has no
# transition matching it.
INCOMPLETE = EditAutomaton(
    frozenset({"0"}), "0",
    (loop("0", Guard.exactly(DOA), (OutputItem(DOB), fwd())),))
# doA matched twice and doB never: the guards' sizes sum to the vocabulary's
# size, but they do not cover it.
CLASH_AND_GAP = EditAutomaton(
    frozenset({"0"}), "0",
    (loop("0", Guard.exactly(DOA), (OutputItem(DOB), fwd())),
     loop("0", Guard.exactly(DOA), (fwd(),))))
INVALID = {"nondeterministic": NONDETERMINISTIC,
           "dangling-target": DANGLING_TARGET,
           "bad-initial": BAD_INITIAL,
           "suppressing-clash": SUPPRESSING_CLASH,
           "incomplete": INCOMPLETE,
           "clash-and-gap": CLASH_AND_GAP}


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

    def test_factories_return_one_object_per_symbol(self):
        assert ActionSymbol.call("Api", "doA") is DOA
        assert ActionSymbol.callback("onStop") is ON_STOP
        assert ActionSymbol.constructor("AudioRecord") is NEW_AR
        assert ActionSymbol.call("Api", "doB") is not DOA

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy,
        lambda symbol: pickle.loads(pickle.dumps(symbol)),
        lambda symbol: ActionSymbol(symbol.kind, symbol.interface, symbol.method),
        copy.copy,
        dataclasses.replace,
    ], ids=["deepcopy", "pickle", "direct", "copy", "replace"])
    def test_a_copy_is_equal_and_hashes_equal(self, duplicate):
        for symbol in (DOA, ON_STOP, NEW_AR):
            copied = duplicate(symbol)
            assert copied is symbol
            assert {symbol: "found"}.get(copied) == "found"

    def test_replacing_a_field_gives_that_symbol(self):
        assert dataclasses.replace(DOA, method="doB") is DOB

    def test_a_callback_and_a_call_of_one_name_are_distinct(self):
        callback = ActionSymbol.callback("onStop")
        call = ActionSymbol.call(callback.interface, "onStop")
        assert call is not callback and call != callback
        assert {callback: "callback"}.get(call) is None
        assert {call: "call"}.get(callback) is None

    def test_hash_and_equality_are_identity(self):
        assert ActionSymbol.__hash__ is object.__hash__
        assert ActionSymbol.__eq__ is object.__eq__

    def test_threads_building_one_fresh_symbol_get_one_object(self):
        threads, names = 8, 400
        interface = f"Race{uuid.uuid4().hex}"
        barrier = threading.Barrier(threads)
        built: list[list[ActionSymbol]] = [[] for _ in range(threads)]

        def build(out: list[ActionSymbol]) -> None:
            barrier.wait(timeout=10)
            out.extend(ActionSymbol.call(interface, f"m{i}") for i in range(names))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(out,))
                       for out in built]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(len(out) == names for out in built)
        for symbols in zip(*built):
            assert all(s is symbols[0] for s in symbols)

    def test_hash_agrees_with_equality_on_every_known_symbol(self):
        symbols = [symbol for automaton in reference_cases().values()
                   for t in automaton.transitions
                   for symbol in itertools.chain(
                       t.guard.symbols, (i.symbol for i in t.output
                                         if not i.is_forward))]
        by_fields: dict[tuple, list[ActionSymbol]] = {}
        for symbol in symbols:
            by_fields.setdefault((symbol.kind, symbol.interface, symbol.method),
                                 []).append(symbol)
        assert len(by_fields) > 10
        for fields, equal in by_fields.items():
            pickled = pickle.loads(pickle.dumps(equal[0]))
            assert {hash(s) for s in equal} == {hash(pickled)}, fields
            assert all(s == pickled for s in equal), fields
            # parse and the test builders use the factories: one object each.
            assert all(s is equal[0] for s in equal), fields


class TestTrace:
    def test_rejects_non_increasing_seq(self):
        events = (Event(DOA, seq=2), Event(DOB, seq=2))
        with pytest.raises(ValueError):
            Trace(events)

    def test_of_renumbers(self):
        trace = Trace.of([Event(DOA, seq=7), Event(DOB, seq=7)])
        assert [e.seq for e in trace] == [1, 2]

    def test_of_equals_renumbering_each_event_with_replace(self):
        vocabulary = [DOA, DOB, NEW_AR, ON_STOP]
        for seed in range(50):
            rng = random.Random(seed)
            events = [dataclasses.replace(
                e, seq=rng.randrange(100), instance=rng.choice([None, "x#1"]),
                args=rng.choice([(), (1, "a")]), origin=rng.choice(list(Origin)))
                for e in random_trace(rng, vocabulary, max_len=40)]
            expected = tuple(dataclasses.replace(e, seq=i)
                             for i, e in enumerate(events, start=1))
            trace = Trace.of(iter(events))
            assert trace.events == expected, seed

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
        with pytest.raises(ValueError, match="any guard takes no symbols"):
            Guard(GuardKind.ANY, frozenset([DOA]))

    def test_accepted(self):
        vocabulary = frozenset({DOA, DOB, DOX})
        assert Guard.any().accepted(vocabulary) == vocabulary
        assert Guard.exactly(DOA).accepted(vocabulary) == {DOA}
        assert Guard.any_of([DOA, DOB]).accepted(vocabulary) == {DOA, DOB}
        assert Guard.any_except([DOA]).accepted(vocabulary) == {DOB, DOX}

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
        assert not validate(automaton)

    def test_nondeterminism_names_state_and_symbol(self):
        diags = validate(NONDETERMINISTIC)
        assert [d.code for d in diags] == ["nondeterministic"]
        assert diags[0].state == "0"
        assert diags[0].symbol == DOA

    def test_dangling_target_state(self):
        assert "dangling-state" in [d.code for d in validate(DANGLING_TARGET)]

    def test_bad_initial(self):
        assert "bad-initial" in [d.code for d in validate(BAD_INITIAL)]

    def test_incomplete_over_synthesized_symbol(self):
        diags = validate(INCOMPLETE)
        assert [d.code for d in diags] == ["incomplete"]
        assert diags[0].symbol == DOB

    def test_valid_fixture_models(self, substitution, forced_release):
        assert not validate(substitution)
        assert not validate(forced_release)


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
                  (OutputItem(NEW_AR, ArgSource.CACHED), fwd())),
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
                  (OutputItem(NEW_AR, ArgSource.CACHED), fwd())),
             loop("0", Guard.any_except([DOA]), (fwd(),))))
        with pytest.raises(PolicyAuthoringError):
            step(automaton, "0", Event(DOA, seq=1))

    def test_literal_args(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA),
                  (OutputItem(DOB, ArgSource.LITERALS, (1, "x")), fwd())),
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
        assert forced_release.inserted == frozenset({STOP_REC, RELEASE_AR})
        assert forced_release.suppressible == frozenset()

    def test_pure_forwarder(self):
        automaton = EditAutomaton(frozenset({"0"}), "0",
                                  (loop("0", Guard.any(), (fwd(),)),))
        assert automaton.inserted == frozenset()
        assert automaton.suppressible == frozenset()

    def test_empty_template_suppresses(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA), ()),
             loop("0", Guard.any_except([DOA]), (fwd(),))))
        assert automaton.suppressible == frozenset({DOA})

    def test_suppressing_catch_all_covers_matching_vocabulary(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (loop("0", Guard.exactly(DOA), (fwd(),)),
             loop("0", Guard.exactly(DOB), (OutputItem(DOX), fwd())),
             loop("0", Guard.any_except([DOA, DOB]), ()),))
        assert automaton.suppressible == frozenset({DOX})


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
        assert forced_release.__eq__("0") is NotImplemented
        assert forced_release != "0"

    @staticmethod
    def automata():
        """Every bundled policy and fixture, then 200 generated policies."""
        return ([parse(text).automaton for text in policy_texts()]
                + [random_policy_doc(seed).automaton for seed in range(200)])

    def test_shuffled_or_repeated_transitions_are_equal_and_hash_equal(self):
        rng = random.Random(26)
        for automaton in self.automata():
            shuffled = list(automaton.transitions)
            rng.shuffle(shuffled)
            for transitions in (shuffled, shuffled + shuffled[:1]):
                other = EditAutomaton(automaton.states, automaton.initial,
                                      tuple(transitions))
                assert other == automaton, transitions
                assert hash(other) == hash(automaton), transitions

    def test_one_changed_target_differs(self):
        for automaton in self.automata():
            transitions = automaton.transitions
            for index, transition in enumerate(transitions):
                target = min(automaton.states - {transition.target},
                             default=transition.target + "'")
                changed = dataclasses.replace(transition, target=target)
                other = EditAutomaton(
                    automaton.states, automaton.initial,
                    transitions[:index] + (changed,) + transitions[index + 1:])
                assert other != automaton, changed


def compiled(transition):
    return transition.items, transition.pre, transition.forwards


class TestCompiledTransition:
    """A transition's compiled template is no dataclass field: what reads
    the fields sees none of it, and every way of building a transition
    keeps or recompiles it."""

    @staticmethod
    def transitions():
        return [t for automaton in TestAutomatonEquality.automata()
                for t in automaton.transitions]

    def test_equal_fields_compare_hash_and_serialize_equal(self):
        # A fresh output tuple is compiled even when it only forwards.
        for doc in [parse(text) for text in policy_texts()]:
            automaton = doc.automaton
            twins = tuple(Transition(t.source, t.guard, tuple(list(t.output)),
                                     t.target, t.line + 1)
                          for t in automaton.transitions)
            for t, twin in zip(automaton.transitions, twins):
                assert twin == t and hash(twin) == hash(t), t
                assert compiled(twin) == compiled(t) == reference_template(t), t
            twin_doc = dataclasses.replace(doc, automaton=EditAutomaton(
                automaton.states, automaton.initial, twins))
            assert serialize(twin_doc) == serialize(doc)

    def test_repr_shows_the_fields_alone(self):
        for t in self.transitions():
            assert repr(t) == (f"Transition(source={t.source!r}, guard={t.guard!r}, "
                               f"output={t.output!r}, target={t.target!r})")

    def test_pickle_copy_and_replace_keep_or_recompile_it(self):
        for t in self.transitions():
            for other in (pickle.loads(pickle.dumps(t)), copy.copy(t),
                          copy.deepcopy(t), dataclasses.replace(t)):
                assert other == t and compiled(other) == compiled(t), t
            changed = dataclasses.replace(t, output=t.output[::-1])
            assert compiled(changed) == reference_template(changed), t


def reference_template(transition):
    """(items, pre, forwards) of a transition's template, walking its
    output: each synthesized item as (symbol, its args or None when they
    are cached, whether it constructs), how many come before the first
    input (all of them when there is none), and whether there is one."""
    items, pre, forwards = [], 0, False
    for item in transition.output:
        if item.is_forward:
            forwards = True
            continue
        args = {ArgSource.CACHED: None, ArgSource.LITERALS: item.literals,
                ArgSource.NONE: ()}[item.arg_source]
        items.append((item.symbol, args, item.symbol.kind is Kind.CONSTRUCTOR))
        if not forwards:
            pre += 1
    return tuple(items), pre, forwards


def reference_cases():
    """Every bundled policy and fixture, 200 generated policies and the
    invalid automata above, by name."""
    files = sorted(bundled_pack_dir().glob("*.pol")) + sorted(FIXTURES.glob("*.pol"))
    cases = {p.name: parse(p.read_text(encoding="utf-8")).automaton for p in files}
    cases.update((f"generated-{seed}", random_policy_doc(seed).automaton)
                 for seed in range(200))
    cases.update(INVALID)
    cases.update(near_valid_cases())
    return cases


def near_valid_cases():
    """Each of the 200 generated automata with one transition dropped
    (incomplete), and with one transition's guard copied onto a new
    transition at a random position (nondeterministic): states whose
    guards almost partition the vocabulary."""
    cases = {}
    for seed in range(200):
        automaton = random_policy_doc(seed).automaton
        rng = random.Random(seed)
        transitions = list(automaton.transitions)
        dropped = transitions[:]
        del dropped[rng.randrange(len(dropped))]
        copied = rng.choice(transitions)
        transitions.insert(rng.randint(0, len(transitions)), Transition(
            copied.source, copied.guard, rng.choice([(fwd(),), (), copied.output]),
            rng.choice(sorted(automaton.states))))
        for kind, ts in (("dropped", dropped), ("duplicated", transitions)):
            cases[f"{kind}-{seed}"] = EditAutomaton(automaton.states,
                                                    automaton.initial, tuple(ts))
    return cases


def matches(automaton):
    """(source state, vocabulary symbol, its matching transitions in
    declaration order) for every pair with a match, by reference_matching."""
    sources = automaton.states | {t.source for t in automaton.transitions}
    for state in sources:
        for symbol in automaton.vocabulary:
            matching = reference_matching(automaton, state, symbol)
            if matching:
                yield state, symbol, matching


class TestTableAgreesWithReference:
    def test_step_takes_the_first_match(self):
        for name, automaton in reference_cases().items():
            for state, symbol, matching in matches(automaton):
                first = matching[0]
                target, out = step(automaton, state, Event(symbol, seq=1),
                                   BindingContext(cached_ctor_args=()))
                assert (target, [e.symbol for e in out]) == (
                    first.target, [i.symbol or symbol for i in first.output]), \
                    (name, state, symbol)

    def test_accepted_is_the_guard_walked_symbol_by_symbol(self):
        for name, automaton in reference_cases().items():
            vocabulary = automaton.vocabulary
            for t in automaton.transitions:
                assert t.guard.accepted(vocabulary) == {
                    s for s in vocabulary if reference_matches(t.guard, s)}, (name, t)

    def test_effect_sets(self):
        for name, automaton in reference_cases().items():
            inserted, suppressible = reference_effect_sets(automaton)
            assert (automaton.inserted, automaton.suppressible,
                    automaton.touched) == (inserted, suppressible,
                                           inserted | suppressible), name

    def test_validate_codes_and_order(self):
        for name, automaton in reference_cases().items():
            def key(diags):
                # By identity: a copied transition can equal its original.
                return [(d.code, d.message, d.state, d.symbol, id(d.transition))
                        for d in diags]
            assert key(validate(automaton)) == key(reference_validate(automaton)), name

    def test_near_valid_cases_are_mostly_flagged(self):
        # A dropped or copied guard that accepts nothing (an any-except of
        # the whole vocabulary) leaves the automaton valid.
        flagged = {"dropped": 0, "duplicated": 0}
        for name, automaton in near_valid_cases().items():
            kind = name.split("-")[0]
            code = "incomplete" if kind == "dropped" else "nondeterministic"
            flagged[kind] += code in {d.code for d in validate(automaton)}
        assert min(flagged.values()) > 150, flagged


def known_states(automaton):
    """Every state a module of the automaton can be put in: declared,
    initial, or an end of a transition."""
    return automaton.states | {automaton.initial} | {
        s for t in automaton.transitions for s in (t.source, t.target)}


class TestMovesAgreeWithTable:
    def test_each_move_is_the_first_match(self):
        # Over every known state and vocabulary symbol: no match is
        # _MISSING; a forward-only self-loop on a non-constructor does
        # nothing and is absent; any other first match is present, its
        # target and compiled template from that very transition.
        forward_only = (fwd(),)
        for name, automaton in reference_cases().items():
            assert automaton.moves.keys() == automaton.vocabulary, name
            states = known_states(automaton)
            for symbol in automaton.vocabulary:
                by_state = automaton.moves[symbol]
                assert by_state.keys() <= states, (name, symbol)
                for state in states:
                    where = (name, state, symbol)
                    matching = reference_matching(automaton, state, symbol)
                    if not matching:
                        assert by_state[state] is _MISSING, where
                        continue
                    first = matching[0]
                    if (first.output == forward_only and first.target == state
                            and symbol.kind is not Kind.CONSTRUCTOR):
                        assert state not in by_state, where
                        continue
                    target, transition = by_state[state]
                    assert by_state[state] is not _MISSING, where
                    assert target == first.target, where
                    if first.output == forward_only:
                        assert transition is None, where
                    else:
                        assert transition is first, where
                        assert (transition.items, transition.pre, transition.forwards
                                ) == reference_template(first), where

    def test_editable_is_a_scan_of_every_move(self):
        # A symbol is editable when its first match in some known state
        # edits, or when some known state has no match (_MISSING).
        cases = reference_cases()
        cases.update((f"generated-{seed}", random_policy_doc(seed).automaton)
                     for seed in range(200, 300))
        kinds = collections.Counter()
        for name, automaton in cases.items():
            scanned = frozenset(
                symbol for symbol in automaton.vocabulary
                for state in known_states(automaton)
                if not (matching := reference_matching(automaton, state, symbol))
                or matching[0].output != (fwd(),))
            assert automaton.editable == scanned, name
            kinds.update((s in scanned, s.kind) for s in automaton.vocabulary)
        assert len(kinds) == 6, kinds


class TestMissingTransitionFromUndeclaredStates:
    """A state that is undeclared but initial, or only a dangling target,
    has a move on every vocabulary symbol, so on_event, step and
    violations still raise where no transition leaves it."""

    UNDECLARED_INITIAL = EditAutomaton(
        frozenset({"0"}), "start", (loop("0", Guard.any_of([DOA, DOB]), (fwd(),)),))
    DANGLING_TARGET = EditAutomaton(
        frozenset({"0"}), "0", (loop("0", Guard.exactly(DOA), (fwd(),), "gone"),
                                loop("0", Guard.exactly(DOB), (fwd(),))))
    CASES = [(UNDECLARED_INITIAL, [DOB]), (DANGLING_TARGET, [DOA, DOB])]

    @pytest.mark.parametrize("automaton, symbols", CASES)
    def test_step_and_violations_raise(self, automaton, symbols):
        stuck = "start" if automaton.initial == "start" else "gone"
        for symbol in (DOA, DOB):
            with pytest.raises(MissingTransitionError):
                step(automaton, stuck, Event(symbol, seq=1))
        with pytest.raises(MissingTransitionError):
            violations(automaton, Trace.from_symbols(symbols))
        # From declared state 0, each move is a forward-only one.
        assert step(automaton, "0", Event(DOB, seq=1))[0] == "0"
        assert violations(automaton, Trace.from_symbols([DOX])) == []

    @pytest.mark.parametrize("automaton, symbols", CASES)
    def test_on_event_raises(self, automaton, symbols):
        *leading, last = symbols
        enforcer = PolicyEnforcer()
        enforcer.deploy(make_doc("stuck", automaton))
        for seq, symbol in enumerate(leading, start=1):
            enforcer.on_event(Event(symbol, seq=seq))
        with pytest.raises(MissingTransitionError):
            enforcer.on_event(Event(last, seq=len(symbols)))
        assert enforcer.sink.events == [Event(s, seq=n) for n, s
                                        in enumerate(leading, start=1)]

    def test_a_state_the_automaton_never_names_is_idle_on_every_path(self):
        # No initial state or transition puts a module there, so moves
        # holds nothing for it: step and on_event both stay and forward.
        # violations starts from the initial state and never gets there.
        automaton = self.DANGLING_TARGET
        for symbol in (DOA, DOB, DOX):
            event = Event(symbol, seq=1)
            assert step(automaton, "nowhere", event) == ("nowhere", [event])
        enforcer = PolicyEnforcer()
        module = enforcer.deploy(make_doc("stuck", automaton))
        module.state = "nowhere"
        event = Event(DOB, seq=1)
        outcome = enforcer.on_event(event)
        assert (outcome.delivered, outcome.records, outcome.suppressed) \
            == ((event,), (), False)
        assert module.state == "nowhere"


def bundled_policies():
    return [parse(p.read_text(encoding="utf-8"))
            for p in sorted(bundled_pack_dir().glob("*.pol"))]


class TestOneCompiledForm:
    def test_parse_and_deploy_build_no_table(self):
        # moves is the one compiled form: parse builds none, deploy builds it.
        for doc in bundled_policies():
            assert "moves" not in doc.automaton.__dict__, doc.name
            PolicyEnforcer().deploy(doc)
            assert "moves" in doc.automaton.__dict__, doc.name
        assert not hasattr(EditAutomaton, "table")

    def test_each_guard_is_read_once_from_parse_to_first_deploy(self, monkeypatch):
        # Building an automaton compiles its accepted and effect sets;
        # validate, check_set and deploy read them, and only deploy builds
        # moves.
        texts = [p.read_text(encoding="utf-8")
                 for p in sorted(bundled_pack_dir().glob("*.pol"))]
        texts += [serialize(random_policy_doc(seed)) for seed in range(200)]
        calls = []
        accepted = Guard.accepted
        monkeypatch.setattr(Guard, "accepted", lambda guard, vocabulary: (
            calls.append(guard), accepted(guard, vocabulary))[1])
        docs = [parse(text) for text in texts]
        assert all(validate(doc.automaton) == [] for doc in docs)
        check_set(docs)
        for doc in docs:
            assert "moves" not in doc.automaton.__dict__, doc.name
            PolicyEnforcer().deploy(doc)
            assert "moves" in doc.automaton.__dict__, doc.name
        assert sorted(map(id, calls)) == sorted(
            id(t.guard) for doc in docs for t in doc.automaton.transitions)

    def test_each_editing_move_holds_the_transition_parse_built(self):
        # Forward-only transitions share one output and store no template.
        editing = 0
        for doc in bundled_policies():
            built = doc.automaton.transitions
            for moves in doc.automaton.moves.values():
                for _, transition in moves.values():
                    if transition is not None:
                        editing += 1
                        assert any(transition is t for t in built), doc.name
            fields = {f.name for f in dataclasses.fields(Transition)}
            for t in built:
                if t.output == (fwd(),):
                    assert vars(t).keys() == fields, t
        assert editing

    def test_the_forward_item_is_shared(self):
        assert OutputItem.forward() is OutputItem.forward()
        for doc in bundled_policies():
            for t in doc.automaton.transitions:
                for item in t.output:
                    assert item.symbol is not None or item is OutputItem.forward()
