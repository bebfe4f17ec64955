"""Property suites over the automaton core, the DSL, and the enforcer."""

import random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from proactive.automata import (
    BindingContext,
    Event,
    PolicyAuthoringError,
    Trace,
    run,
    run_from,
    violations,
)
from proactive.dsl import parse, serialize

from helpers import (
    ALIEN,
    deployed,
    event_shapes,
    forced_release_automaton,
    random_policy_doc,
    random_trace,
)

FIG3 = forced_release_automaton()


def vocab_events(automaton, extra=()):
    symbols = sorted(automaton.vocabulary, key=str) + list(extra)
    return st.lists(
        st.sampled_from(symbols).map(lambda s: Event(symbol=s, args=(1, 2))),
        max_size=30)


@given(vocab_events(FIG3))
def test_transparency_on_compliant_traces(events):
    trace = Trace.of(events)
    assume(not violations(FIG3, trace))
    assert event_shapes(run(FIG3, trace)) == event_shapes(trace)


@given(vocab_events(FIG3))
def test_soundness_of_enforced_output(events):
    trace = Trace.of(events)
    assert violations(FIG3, run(FIG3, trace)) == []


@given(vocab_events(FIG3), st.lists(st.integers(min_value=0), max_size=5))
def test_vocabulary_opacity(events, positions):
    trace = Trace.of(events)
    injected = list(events)
    for p in positions:
        injected.insert(p % (len(injected) + 1), Event(symbol=ALIEN))
    out = run(FIG3, Trace.of(injected))
    filtered = [e for e in out if e.symbol != ALIEN]
    assert event_shapes(filtered) == event_shapes(run(FIG3, trace))
    assert sum(1 for e in out if e.symbol == ALIEN) == len(positions)


@given(vocab_events(FIG3), st.integers(min_value=0))
def test_step_run_coherence(events, cut):
    cut = cut % (len(events) + 1)
    whole_state, whole = run_from(FIG3, FIG3.initial, events)
    context = BindingContext()
    state, first = run_from(FIG3, FIG3.initial, events[:cut], context)
    state, rest = run_from(FIG3, state, events[cut:], context)
    assert state == whole_state
    assert event_shapes(first + rest) == event_shapes(whole)


@given(vocab_events(FIG3, extra=[ALIEN]))
def test_run_is_deterministic(events):
    trace = Trace.of(events)
    assert event_shapes(run(FIG3, trace)) == event_shapes(run(FIG3, trace))


@given(st.integers(min_value=0, max_value=10_000))
def test_dsl_round_trip_on_random_docs(seed):
    doc = random_policy_doc(seed)
    assert parse(serialize(doc)) == doc
    assert serialize(parse(serialize(doc))) == serialize(doc)


# A single deployed policy emits what run emits, or both raise
# PolicyAuthoringError.  Seed 81 inserts `new Api` with no args and later
# inserts events with cached constructor args: both sides must replay the
# inserted (empty) args.
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(81)
def test_enforcer_matches_plain_run_for_random_policy(seed):
    policy = random_policy_doc(seed)
    trace = random_trace(random.Random(seed), policy.automaton.vocabulary,
                         max_len=20, extra=[ALIEN])
    enforcer = deployed([policy])

    def emitted(transform):
        try:
            return [(e.symbol, e.origin, e.args) for e in transform()]
        except PolicyAuthoringError:
            return PolicyAuthoringError

    assert (emitted(lambda: enforcer.run_enforced(trace)[0])
            == emitted(lambda: run(policy.automaton, trace)))
