"""Non-interference check across policies.

Two policies may run concurrently with order-independent results when
neither inserts nor suppresses a symbol the other monitors.  Forwarding
the matched input counts as neither insertion nor suppression, so
policies that merely share a lifecycle callback do not interfere.

This is a sound syntactic sufficient condition, not a product-automaton
analysis; a set with an empty report is safe to co-deploy.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .automata import ActionSymbol
from .dsl import PolicyDoc


class Direction(enum.Enum):
    A_INSERTS_INTO_B = "a-inserts-into-b"
    A_SUPPRESSES_FROM_B = "a-suppresses-from-b"
    B_INSERTS_INTO_A = "b-inserts-into-a"
    B_SUPPRESSES_FROM_A = "b-suppresses-from-a"


_MIRROR = {
    Direction.A_INSERTS_INTO_B: Direction.B_INSERTS_INTO_A,
    Direction.A_SUPPRESSES_FROM_B: Direction.B_SUPPRESSES_FROM_A,
    Direction.B_INSERTS_INTO_A: Direction.A_INSERTS_INTO_B,
    Direction.B_SUPPRESSES_FROM_A: Direction.A_SUPPRESSES_FROM_B,
}


@dataclass(frozen=True)
class InterferencePair:
    policy_a: str
    policy_b: str
    direction: Direction
    symbols: frozenset[ActionSymbol]

    def mirrored(self) -> "InterferencePair":
        return InterferencePair(self.policy_b, self.policy_a,
                                _MIRROR[self.direction], self.symbols)

    def __str__(self) -> str:
        rendered = ", ".join(sorted(str(s) for s in self.symbols))
        return (f"{self.policy_a} / {self.policy_b}: "
                f"{self.direction.value} [{rendered}]")


@dataclass(frozen=True)
class InterferenceReport:
    pairs: tuple[InterferencePair, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.pairs

    def __str__(self) -> str:
        if self.ok:
            return "no interference"
        return "\n".join(str(p) for p in self.pairs)


def check_pair(a: PolicyDoc, b: PolicyDoc) -> InterferenceReport:
    """Report every symbol a's effects touch in b's vocabulary and vice versa."""
    effects_a = a.automaton.effects
    effects_b = b.automaton.effects
    vocab_a = a.automaton.vocabulary
    vocab_b = b.automaton.vocabulary
    pairs: list[InterferencePair] = []
    for direction, symbols in (
        (Direction.A_INSERTS_INTO_B, effects_a.inserted & vocab_b),
        (Direction.A_SUPPRESSES_FROM_B, effects_a.suppressible & vocab_b),
        (Direction.B_INSERTS_INTO_A, effects_b.inserted & vocab_a),
        (Direction.B_SUPPRESSES_FROM_A, effects_b.suppressible & vocab_a),
    ):
        if symbols:
            pairs.append(InterferencePair(a.name, b.name, direction,
                                          frozenset(symbols)))
    return InterferenceReport(tuple(pairs))


def check_set(policies) -> InterferenceReport:
    """Union of check_pair over all unordered pairs."""
    pairs: list[InterferencePair] = []
    for a, b in itertools.combinations(policies, 2):
        pairs.extend(check_pair(a, b).pairs)
    return InterferenceReport(tuple(pairs))
