"""Exhaustive check that what the enforcer does never depends on the order
the policies were deployed in.

For every subset of one to three deployable policies, every joint state
the deployed modules can reach is explored: each module's state and its
cached constructor args, plus the resource manager's bindings.  Each
constructor symbol comes with its own args and instance, so a replay of
cached args or of a bound instance is compared and not abstracted away;
"constructor seen" is a module's cached args being set.  From each
joint state, every vocabulary symbol of the subset is offered to one
enforcer per deploy order, and all of them must deliver the same events,
log the same records in the same order, suppress alike, and leave every
module in the same state.  Records list their policies by name, the order
their synthesized events execute in.  A template that reads cached args
before any constructor must fail alike under every order too.
"""

import itertools
from collections import deque

import pytest

from proactive.automata import Event, Kind, PolicyAuthoringError
from proactive.enforcer import PolicyEnforcer, RecordingSink
from proactive.pack import load_bundled_pack

from helpers import event_shapes

DEPLOYABLE = sorted(load_bundled_pack().deployable(), key=lambda p: p.name)
SUBSETS = [subset for size in (1, 2, 3)
           for subset in itertools.combinations(DEPLOYABLE, size)]


def app_event(symbol) -> Event:
    """An app event whose constructor args and instance name its interface."""
    if symbol.kind is Kind.CONSTRUCTOR:
        return Event(symbol, 1, f"{symbol.interface}#app",
                     (symbol.interface, len(symbol.interface)))
    return Event(symbol, 1)


def joint_state(enforcer):
    """Module (state, cached args) by policy name, and the bindings."""
    return (tuple(sorted((m.policy.name, m.state, m.cached_ctor_args)
                         for m in enforcer.modules)),
            tuple(sorted(enforcer.manager.bindings.items())))


def restore(enforcer, state) -> None:
    modules, bindings = state
    by_name = {m.policy.name: m for m in enforcer.modules}
    for name, module_state, cached in modules:
        by_name[name].state = module_state
        by_name[name].cached_ctor_args = cached
    enforcer.manager.bindings = dict(bindings)
    enforcer.sink.events.clear()
    enforcer.intervention_log.clear()


def offer(enforcer, state, event):
    """What one enforcer does with event from state, and the joint state
    it leaves (None after a PolicyAuthoringError)."""
    restore(enforcer, state)
    try:
        outcome = enforcer.on_event(event)
    except PolicyAuthoringError:
        return "authoring error", None
    records = tuple((r.policy, tuple(event_shapes(r.synthesized)), r.suppressed)
                    for r in outcome.records)
    assert [r[0] for r in records] == sorted(r[0] for r in records)
    seen = (tuple(event_shapes(outcome.delivered)), records,
            outcome.suppressed, tuple(event_shapes(enforcer.sink.events)),
            tuple(r.policy for r in enforcer.intervention_log))
    after = joint_state(enforcer)
    return (seen, after), after


def explore(subset):
    """Visit every reachable joint state of subset; returns how many, and
    how many offers logged records from more than one policy."""
    enforcers = []
    for order in itertools.permutations(subset):
        enforcer = PolicyEnforcer(RecordingSink())
        for policy in order:
            enforcer.deploy(policy)
        enforcers.append(enforcer)
    symbols = sorted(set().union(*(p.automaton.vocabulary for p in subset)),
                     key=str)
    events = [app_event(symbol) for symbol in symbols]
    start = joint_state(enforcers[0])
    reached = {start}
    queue = deque([start])
    joint_heals = 0
    while queue:
        state = queue.popleft()
        for event in events:
            first, after = offer(enforcers[0], state, event)
            for enforcer in enforcers[1:]:
                assert offer(enforcer, state, event)[0] == first, \
                    ([p.name for p in subset], state, event)
            joint_heals += after is not None and len(first[0][1]) > 1
            if after is not None and after not in reached:
                reached.add(after)
                queue.append(after)
    return len(reached), joint_heals


def test_subsets_cover_the_deployable_pack():
    assert len(DEPLOYABLE) == 7
    assert len(SUBSETS) == 7 + 21 + 35


@pytest.mark.parametrize("size", (1, 2, 3))
def test_every_deploy_order_gives_the_same_outcome(size):
    subsets = [s for s in SUBSETS if len(s) == size]
    results = [explore(subset) for subset in subsets]
    # Every module leaves its initial state somewhere in each subset, and
    # with two policies or more some heal edits for two of them at once.
    assert all(reached > 1 for reached, _ in results)
    assert (sum(joint for _, joint in results) > 0) == (size > 1)
