"""Tests of the benchmark's own parts: the session generators, the
reference digests and the tracer's self-time accounting.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

from proactive.enforcer import PolicyEnforcer
from proactive.sim import ScenarioScript, run_scenario

import sessions
import tracer as tracer_module
import workloads
from tracer import Tracer

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=["pack-heal", "pack-clean"])
def pack_workload(request):
    workload = workloads.WORKLOADS[request.param]()
    return workload, workload.setup(None)


def test_reference_covers_every_session_key():
    for name, cls in workloads.WORKLOADS.items():
        assert sorted(REFERENCE[name]) == sorted(cls().universe()), name


def test_pools_are_seeded_and_stratified():
    for cls in workloads.WORKLOADS.values():
        workload = cls()
        assert workload.pool(7) == workload.pool(7)
        assert set(workload.pool(7)) <= set(workload.universe())
    heal = workloads.PackHeal()
    classes = [key.split("/")[0] for key in heal.pool(3)]
    assert all(classes.count(c) == heal.per_class for c in set(classes))


def test_pack_sessions_replay_cleanly_and_deterministically(pack_workload):
    """Every session a pool can hold is legal under enforcement: the
    program's own scenario replay accepts it, and the benchmark's replay
    passes every check and matches the reference."""
    workload, policies = pack_workload
    for key in workload.universe():
        session = workload.session(key)
        assert session == workload.session(key), key
        enforcer = PolicyEnforcer()
        for policy in policies:
            enforcer.deploy(policy)
        script = ScenarioScript(key, sessions.APP, session.steps)
        scenario = run_scenario(script, enforcer)
        result = workload.run_session(policies, session, key,
                                      REFERENCE[workload.name])
        assert result.failures == [], key
        assert result.interventions == len(scenario.interventions), key
        assert result.app_events == session.app_events, key
        if workload.name == "pack-clean":
            assert scenario.interventions == () and scenario.leaks.clean, key


def test_heal_sessions_exercise_every_api_and_heal():
    workload = workloads.PackHeal()
    policies = workload.setup(None)
    used, healed = set(), 0
    for key in workload.universe()[:200]:
        session = workload.session(key)
        used.update(s.symbol.interface for s in session.steps if s.symbol)
        used.update("AudioRecord" for s in session.steps if s.command == "tap")
        healed += workload.run_session(policies, session, key, None).interventions > 0
    assert used == set(sessions.API_METHODS)
    assert healed > 150


def test_wide_clones_do_not_interfere_and_sessions_are_deterministic():
    workload = workloads.Wide()
    inputs = workload.make_inputs(0)
    policies = workload.setup(inputs)
    assert len({p.name for p in policies}) == workloads.WIDE_CLONES
    assert workload.session("5") == workload.session("5")
    result = workload.run_session(policies, workload.session("5"), "5",
                                  REFERENCE["wide"])
    assert result.failures == []
    assert result.app_events >= workloads.WIDE_LENGTH


def test_tracer_self_time_excludes_children(monkeypatch):
    """A child covers its whole wrapper, so the tracer's own clock reads
    around a child (here 10 ns each) are not the parent's self time; the
    calibrated wrapper costs come off every span and, per child, off its
    parent's self time."""
    clock = iter(range(0, 1000, 10))
    monkeypatch.setattr(tracer_module, "perf_counter_ns", lambda: next(clock))
    tracer = Tracer()
    tracer.own_ns, tracer.child_ns = 2, 5
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer = tracer.totals_for("setup", "outer")
    inner = tracer.totals_for("setup", "inner")
    assert (outer.calls, outer.total_ns, outer.self_ns) == (1, 88, 18)
    assert (inner.calls, inner.total_ns, inner.self_ns) == (2, 16, 16)
    parents = list(tracer.columns["parent"])
    assert parents == [0, 0, -1]


def test_tracer_calibration_measures_a_wrapper_cost():
    tracer = Tracer()
    tracer.calibrate()
    assert tracer.own_ns > 0 and tracer.child_ns > 0


def test_tracer_keeps_whole_top_level_spans(monkeypatch):
    monkeypatch.setattr(tracer_module, "KEEP_SPANS", 1)
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert list(tracer.columns["id"]) == [1, 0]
    assert tracer.totals_for("setup", "outer").calls == 2


def test_tracer_counts_pairs_checked_by_the_program():
    from proactive import enforcer, interference

    policies = workloads.PackHeal().setup(None)
    original = interference.check_pair
    tracer = Tracer()
    tracer.patch_function(original, "interference.check_pair", count_only=True)
    with tracer.installed():
        enforcer.check_set(policies)
    assert interference.check_pair is original
    n = len(policies)
    assert tracer.counts == {("setup", "interference.check_pair"): n * (n - 1) // 2}
