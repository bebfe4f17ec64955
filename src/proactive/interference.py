"""Non-interference check across policies.

Two policies may run concurrently with order-independent results when
neither inserts nor suppresses a symbol the other monitors, that is when
neither automaton's `touched` set meets the other's `vocabulary`.
Forwarding the matched input counts as neither insertion nor suppression,
so policies that merely share a lifecycle callback do not interfere.
check_pair takes the four directed intersections only to report a hit;
the deploy gate runs the same two tests against the deployed union.

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


@dataclass(frozen=True)
class InterferencePair:
    policy_a: str
    policy_b: str
    direction: Direction
    symbols: frozenset[ActionSymbol]

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


_NO_INTERFERENCE = InterferenceReport()


def check_pair(a: PolicyDoc, b: PolicyDoc) -> InterferenceReport:
    """Report every symbol a touches in b's vocabulary and vice versa."""
    auto_a = a.automaton
    auto_b = b.automaton
    if (auto_a.touched.isdisjoint(auto_b.vocabulary)
            and auto_b.touched.isdisjoint(auto_a.vocabulary)):
        return _NO_INTERFERENCE
    pairs: list[InterferencePair] = []
    for direction, symbols in (
        (Direction.A_INSERTS_INTO_B, auto_a.inserted & auto_b.vocabulary),
        (Direction.A_SUPPRESSES_FROM_B, auto_a.suppressible & auto_b.vocabulary),
        (Direction.B_INSERTS_INTO_A, auto_b.inserted & auto_a.vocabulary),
        (Direction.B_SUPPRESSES_FROM_A, auto_b.suppressible & auto_a.vocabulary),
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
