"""Exhaustive checks of the edit-automaton contract (Ligatti, Bauer and
Walker, "Edit automata", 2005) for each bundled policy.

Guards read only the symbol, so the states an enforcer and a checker can
reach are few and are explored completely rather than sampled.  A state
of the exploration is (enforcer state, constructor seen, checker state):
the module's state, whether it holds cached constructor args, and the
state of the policy's checker.  The checker walks the guards directly
and flags every event that takes an editing move, as `violations` does.

- Soundness: the checker, run over what the enforcer delivers, never
  takes an editing move.
- Transparency: an input the checker accepts takes only forward-only
  moves in the enforcer, so it is delivered unchanged and unrecorded.
"""

from collections import deque

import pytest

from proactive.automata import Event, Kind, _MISSING
from proactive.enforcer import PolicyEnforcer, RecordingSink
from proactive.pack import bundled_pack_dir, load_policies

from helpers import fwd, reference_matching

CTOR_ARGS = (44100, "ctor")
BUNDLED, _ = load_policies(bundled_pack_dir())


def checker_step(automaton, state, symbol):
    """(next state, whether the event takes an editing move) of the
    checker; an out-of-vocabulary event bypasses it."""
    if symbol not in automaton.vocabulary:
        return state, False
    first = reference_matching(automaton, state, symbol)[0]
    return first.target, first.output != (fwd(),)


def explore(doc, offer):
    """Every (enforcer state, constructor seen, checker state) reachable
    from the initial one, each successor computed by offer(enforcer,
    checker state, event), which returns the checker's next state or None
    to stop there.  Each event is offered to a module set to the state
    being expanded."""
    automaton = doc.automaton
    enforcer = PolicyEnforcer(RecordingSink())
    module = enforcer.deploy(doc)
    symbols = sorted(automaton.vocabulary, key=str)
    start = (automaton.initial, False, automaton.initial)
    reached = {start}
    queue = deque([start])
    while queue:
        state, seen, checked = queue.popleft()
        for symbol in symbols:
            module.state = state
            module.cached_ctor_args = CTOR_ARGS if seen else None
            enforcer.sink.events.clear()
            enforcer.intervention_log.clear()
            args = CTOR_ARGS if symbol.kind is Kind.CONSTRUCTOR else ()
            checked_next = offer(enforcer, checked, Event(symbol, 1, None, args))
            if checked_next is None:
                continue
            nxt = (module.state, module.cached_ctor_args is not None, checked_next)
            if nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)
    return reached


def test_every_bundled_policy_is_explored():
    assert len(BUNDLED) == 8


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_soundness(name):
    doc = BUNDLED[name]
    automaton = doc.automaton

    def offer(enforcer, checked, event):
        outcome = enforcer.on_event(event)
        for out in outcome.delivered:
            checked, edits = checker_step(automaton, checked, out.symbol)
            assert not edits, (name, event, outcome.delivered)
        return checked

    reached = explore(doc, offer)
    assert len(reached) >= len(automaton.states)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_transparency(name):
    doc = BUNDLED[name]
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
        assert outcome == ((event,), (), False), (name, event)
        assert enforcer.sink.events == [event]
        assert module.state == checked
        return checked

    reached = explore(doc, offer)
    # A compliant input keeps the enforcer and the checker in step.
    assert all(state == checked for state, _, checked in reached)
