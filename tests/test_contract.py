"""Exhaustive checks of the edit-automaton contract (Ligatti, Bauer and
Walker, "Edit automata", 2005) for each bundled policy and the paper's
Fig. 3 forced-release model.

Guards read only the symbol, so the states an enforcer can reach are few
and helpers.explore visits them all; a failure names the shortest event
sequence to it.  Each state pairs the enforcer's joint state with the
state of the policy's checker, which walks the guards and flags every
event that takes an editing move, as `violations` does.

- Soundness: the checker, run over what the enforcer delivers, never
  takes an editing move.
- Transparency: an input the checker accepts takes only forward-only
  moves in the enforcer, so it is delivered unchanged and unrecorded.
- Agreement with step: each vocabulary symbol, and an alien event, is
  delivered as `automata.step` emits it from the same state and
  BindingContext, leaving the same state, cached args and bindings; or
  both raise PolicyAuthoringError.
"""

import pytest

from proactive.automata import (BindingContext, Kind, PolicyAuthoringError, _MISSING,
                               step)
from proactive.pack import bundled_pack_dir, load_policies

from helpers import (ALIEN, event_shapes, explore, forced_release_automaton, fwd,
                     joint_state, make_doc, reachable, reference_matching, witness)

BUNDLED, _ = load_policies(bundled_pack_dir())
FIG3 = make_doc("forced-release", forced_release_automaton(), target="AudioRecord")
CONTRACT = {**BUNDLED, FIG3.name: FIG3}


def checker_step(automaton, state, symbol):
    """(next state, whether the event takes an editing move) of the
    checker; an out-of-vocabulary event bypasses it."""
    if symbol not in automaton.vocabulary:
        return state, False
    first = reference_matching(automaton, state, symbol)[0]
    return first.target, first.output != (fwd(),)


def test_every_bundled_policy_is_explored():
    assert len(BUNDLED) == 8


def test_witness_is_the_shortest_route():
    graph = {"s": [("a", "p"), ("d", "t")], "p": [("b", "q")],
             "q": [("c", "t"), ("e", None)], "t": []}
    parents = reachable("s", graph.get)
    assert parents.keys() == graph.keys()
    assert [witness(parents, s) for s in "sqt"] == [[], ["a", "b"], ["d"]]

    def failing(state):
        assert state != "q", "q is bad"
        return graph[state]

    shown = r"(?s)^q is bad\n.*\nshortest witness: \[a, b\]$"
    with pytest.raises(AssertionError, match=shown):
        reachable("s", failing)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_soundness(name):
    doc = CONTRACT[name]
    automaton = doc.automaton

    def offer(enforcer, checked, event):
        outcome = enforcer.on_event(event)
        for out in outcome.delivered:
            checked, edits = checker_step(automaton, checked, out.symbol)
            assert not edits, (name, event, outcome.delivered)
        return checked

    reached = explore([doc], offer, automaton.initial)
    assert len(reached) >= len(automaton.states)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_transparency(name):
    doc = CONTRACT[name]
    automaton = doc.automaton

    def offer(enforcer, checked, event):
        checked, edits = checker_step(automaton, checked, event.symbol)
        if edits:
            return None  # the input stops being compliant here
        [module] = enforcer.modules
        # A compliant input takes a forward-only move, or none at all: an
        # absent move is an idle self-loop on a non-constructor.
        move = automaton.moves[event.symbol].get(module.state)
        if move is None:
            assert (checked == module.state
                    and event.symbol.kind is not Kind.CONSTRUCTOR), \
                (name, module.state, event)
        else:
            assert move is not _MISSING and move[1] is None, \
                (name, module.state, event)
        outcome = enforcer.on_event(event)
        assert (outcome.delivered, outcome.records, outcome.suppressed) \
            == ((event,), (), False), (name, event)
        assert enforcer.sink.events == [event]
        assert module.state == checked
        return checked

    reached = explore([doc], offer, automaton.initial)
    # A compliant input keeps the enforcer and the checker in step.
    assert all(modules[0][1] == checked for (modules, _), checked in reached)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_enforcer_matches_step(name):
    doc = BUNDLED[name]

    def offer(enforcer, _, event):
        ((_, state, cached),), bindings = joint_state(enforcer)
        context = BindingContext(cached, dict(bindings))
        try:
            state, emitted = step(doc.automaton, state, event, context)
            expected = (event_shapes(emitted),
                        ((name, state, context.cached_ctor_args),),
                        tuple(sorted(context.instances.items())))
        except PolicyAuthoringError:
            expected = None
        try:
            delivered = enforcer.on_event(event).delivered
            got = (event_shapes(delivered), *joint_state(enforcer))
        except PolicyAuthoringError:
            got = None
        assert got == expected, (name, event)
        return None if got is None else ()

    assert len(explore([doc], offer, (), [ALIEN])) >= len(doc.automaton.states)
