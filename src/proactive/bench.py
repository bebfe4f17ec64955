"""Enforcement-overhead benchmark: per-action median timings over
repeated scenario executions with and without the proactive modules.

Each repetition uses a fresh world and a fresh enforcer so no state
carries over; timing covers scenario execution only, never report
serialization.  The per-action intervention counts come from the timed
enforced replays themselves, which all agree: replay is deterministic.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Optional

from .dsl import PolicyDoc
from .enforcer import PolicyEnforcer
from .sim import ScenarioScript, run_scenario

DEFAULT_REPETITIONS = 50
ACTION_WORK_S = 0.001


def overhead_percent(median_with_ms: float, median_without_ms: float) -> float:
    """100 * (with - without) / without, rounded to two decimals."""
    return round(100.0 * (median_with_ms - median_without_ms)
                 / median_without_ms, 2)


@dataclass(frozen=True)
class ActionTiming:
    index: int
    label: str
    median_with_ms: float
    median_without_ms: float
    interventions: int

    @property
    def overhead_us(self) -> float:
        """Absolute cost of enforcement on the action: with minus without."""
        return (self.median_with_ms - self.median_without_ms) * 1000.0

    @property
    def overhead_percent(self) -> float:
        """Relative cost of enforcement on the action, in percent."""
        return overhead_percent(self.median_with_ms, self.median_without_ms)


@dataclass(frozen=True)
class BenchResult:
    actions: tuple[ActionTiming, ...]
    repetitions: int

    def highest_overhead(self) -> Optional[ActionTiming]:
        if not self.actions:
            return None
        return max(self.actions, key=lambda a: a.overhead_percent)


def _fresh_enforcer(policies: Iterable[PolicyDoc]) -> PolicyEnforcer:
    enforcer = PolicyEnforcer()
    for policy in policies:
        enforcer.deploy(policy)
    return enforcer


def run_benchmark(script: ScenarioScript, policies: list[PolicyDoc],
                  repetitions: int = DEFAULT_REPETITIONS) -> BenchResult:
    """Median per-action execution time with and without enforcement.  Each
    step time gets ACTION_WORK_S added, standing in for the app work a real
    action performs, so overhead is measured against a non-zero action cost."""
    if repetitions < 3:
        raise ValueError("benchmark needs at least 3 repetitions")

    with_times: list[list[float]] = [[] for _ in script.steps]
    without_times: list[list[float]] = [[] for _ in script.steps]
    for _ in range(repetitions):
        enforced = run_scenario(script, _fresh_enforcer(policies))
        for i, t in enumerate(enforced.step_times):
            with_times[i].append(t + ACTION_WORK_S)
        plain = run_scenario(script, None)
        for i, t in enumerate(plain.step_times):
            without_times[i].append(t + ACTION_WORK_S)

    actions = []
    for i, step in enumerate(script.steps):
        actions.append(ActionTiming(
            index=i, label=step.label(),
            median_with_ms=statistics.median(with_times[i]) * 1000.0,
            median_without_ms=statistics.median(without_times[i]) * 1000.0,
            interventions=enforced.interventions_per_step[i]))
    return BenchResult(actions=tuple(actions), repetitions=repetitions)
