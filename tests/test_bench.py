import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proactive import bench
from proactive.bench import BenchResult, overhead_percent, run_benchmark
from proactive.sim import run_scenario


class TestOverheadFormula:
    def test_published_inputs(self):
        assert overhead_percent(2135, 2039) == 4.71

    def test_identical_medians(self):
        assert overhead_percent(100, 100) == 0.0

    def test_ten_percent(self):
        assert overhead_percent(110, 100) == 10.0

    def test_negative_overhead_allowed(self):
        assert overhead_percent(95, 100) == -5.0


class TestRunBenchmark:
    def test_rejects_too_few_repetitions(self, pack, scenarios):
        with pytest.raises(ValueError):
            run_benchmark(scenarios["hearhere"], pack.deployable(),
                          repetitions=2)

    def test_per_action_result(self, pack, scenarios):
        result = run_benchmark(scenarios["hearhere"], pack.deployable(),
                               repetitions=3, action_work_s=0.0002)
        assert result.repetitions == 3
        assert len(result.actions) == 3
        assert [a.label for a in result.actions] \
            == ["launch", "tap START", "background"]
        assert [a.interventions for a in result.actions] == [0, 0, 1]
        for action in result.actions:
            assert action.median_with_ms > 0
            assert action.median_without_ms > 0
            assert action.overhead_percent == overhead_percent(
                action.median_with_ms, action.median_without_ms)
            assert action.overhead_us == pytest.approx(
                (action.median_with_ms - action.median_without_ms) * 1000.0)

    def test_replays_once_per_repetition_and_mode(self, pack, scenarios,
                                                  monkeypatch):
        calls = []

        def counting(script, enforcer=None, action_work_s=0.0):
            calls.append(enforcer is not None)
            return run_scenario(script, enforcer, action_work_s)

        monkeypatch.setattr(bench, "run_scenario", counting)
        result = run_benchmark(scenarios["hearhere"], pack.deployable(),
                               repetitions=4, action_work_s=0.0)
        assert calls == [True, False] * 4
        assert [a.interventions for a in result.actions] == [0, 0, 1]

    def test_highest_overhead_is_an_action(self, pack, scenarios):
        result = run_benchmark(scenarios["bluechat"], pack.deployable(),
                               repetitions=3, action_work_s=0.0002)
        assert result.highest_overhead() in result.actions

    def test_empty_result_has_no_highest(self):
        assert BenchResult(actions=(), repetitions=3).highest_overhead() is None


class TestColdStartTool:
    def test_two_rounds_alternate_and_record_the_bytecode_setting(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        out = tmp_path / "cold.json"
        subprocess.run([sys.executable, str(root / "tools" / "cold_start.py"),
                        "--rounds", "2", "--out", str(out)],
                       check=True, capture_output=True)
        report = json.loads(out.read_text(encoding="utf-8"))
        assert [r["first"] for r in report["runs"]] == ["bare", "run"]
        for r in report["runs"]:
            assert r["run_ms"] > 0 and r["bare_ms"] > 0
            assert r["over_bare_ms"] == pytest.approx(r["run_ms"] - r["bare_ms"],
                                                      abs=0.02)
        assert report["pythondontwritebytecode"] \
            == os.environ.get("PYTHONDONTWRITEBYTECODE")
