"""Exhaustive check that what the enforcer does never depends on the order
the policies were deployed in.

For every subset of one to three deployable policies, and for every pair
and triple of generated policies that the interference gate accepts and
that share vocabulary, every joint state the deployed modules can reach
is explored: each module's state and its cached constructor args, plus
the enforcer's bindings.  Each constructor symbol comes with its own
args and instance, so a replay of cached args or of a bound instance is
compared and not abstracted away.  From each joint state, every
vocabulary symbol of the subset and one alien event are offered to one
enforcer per deploy order, and all of them must deliver the same events,
log the same records in the same order, suppress alike, and leave every
module in the same state.  Records list their policies by name, the order
their synthesized events execute in.  A template that reads cached args
before any constructor must fail alike under every order too.
"""

import itertools

import pytest

from proactive.interference import check_pair
from proactive.pack import load_bundled_pack

from helpers import explore_orders, random_policy_doc

DEPLOYABLE = sorted(load_bundled_pack().deployable(), key=lambda p: p.name)
SUBSETS = [subset for size in (1, 2, 3)
           for subset in itertools.combinations(DEPLOYABLE, size)]


def test_subsets_cover_the_deployable_pack():
    assert len(DEPLOYABLE) == 7
    assert len(SUBSETS) == 7 + 21 + 35


@pytest.mark.parametrize("size", (1, 2, 3))
def test_every_deploy_order_gives_the_same_outcome(size):
    subsets = [s for s in SUBSETS if len(s) == size]
    results = [explore_orders(subset) for subset in subsets]
    # Every module leaves its initial state somewhere in each subset, and
    # with two policies or more some heal edits for two of them at once.
    assert all(reached > 1 for reached, _ in results)
    assert (sum(joint for _, joint in results) > 0) == (size > 1)


def gate_accepted(size, seeds):
    """Every set of size non-experimental generated policies whose pairs the
    gate all accepts and some two of which share vocabulary: a set that
    shares none is trivially order-independent."""
    docs = [d for d in map(random_policy_doc, range(seeds)) if not d.experimental]
    vocabularies = [d.automaton.vocabulary for d in docs]
    accepted = {(i, j) for i, j in itertools.combinations(range(len(docs)), 2)
                if check_pair(docs[i], docs[j]).ok}
    return [[docs[i] for i in subset]
            for subset in itertools.combinations(range(len(docs)), size)
            if all(pair in accepted for pair in itertools.combinations(subset, 2))
            and any(not vocabularies[i].isdisjoint(vocabularies[j])
                    for i, j in itertools.combinations(subset, 2))]


@pytest.mark.parametrize("size, seeds, expected", ((2, 300, 264), (3, 120, 192)))
def test_every_set_the_gate_accepts_is_order_independent(size, seeds, expected):
    # explore_orders deploys each set in every order, so the gate must accept it.
    subsets = gate_accepted(size, seeds)
    results = [explore_orders(subset) for subset in subsets]
    assert len(subsets) == expected
    assert sum(joint for _, joint in results) > 0
