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
                               repetitions=3)
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

        def counting(script, enforcer=None):
            calls.append(enforcer is not None)
            return run_scenario(script, enforcer)

        monkeypatch.setattr(bench, "run_scenario", counting)
        result = run_benchmark(scenarios["hearhere"], pack.deployable(),
                               repetitions=4)
        assert calls == [True, False] * 4
        assert [a.interventions for a in result.actions] == [0, 0, 1]

    def test_highest_overhead_is_an_action(self, pack, scenarios):
        result = run_benchmark(scenarios["bluechat"], pack.deployable(),
                               repetitions=3)
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


STUB_RUN = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as log:
    print(json.dumps([{side!r}, args]), file=log)
value = {base} + int(args["--seed"]) % 3
print("a line before the result")
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0, "metrics": {{
    name: {{"value": value, "unit": "x"}} for name in {names!r}}}}}))
'''


class TestBenchPairsTool:
    def test_pairs_alternate_share_a_seed_and_summarize_every_metric(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        end_to_end = json.loads((root / "BENCHMARK.json").read_text(
            encoding="utf-8"))["end_to_end"]
        names = [m["name"] for m in end_to_end]
        log = tmp_path / "calls.jsonl"
        for side, base in (("parent", 20), ("change", 10)):
            (tmp_path / side / "perfbench").mkdir(parents=True)
            (tmp_path / side / "perfbench" / "run.py").write_text(
                STUB_RUN.format(log=str(log), side=side, base=base, names=names),
                encoding="utf-8")
        out = tmp_path / "pairs.json"
        subprocess.run([sys.executable, str(root / "tools" / "bench_pairs.py"),
                        str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--seed", "40", "--pairs", "3", "--seconds", "0.5",
                        "--workload", "wide", "--workload", "pack-heal",
                        "--out", str(out)], check=True, capture_output=True)

        calls = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(side, args["--workload"], args["--seed"]) for side, args in calls] == [
            ("parent", "wide", "40"), ("change", "wide", "40"),
            ("change", "wide", "41"), ("parent", "wide", "41"),
            ("parent", "wide", "42"), ("change", "wide", "42"),
            ("parent", "pack-heal", "43"), ("change", "pack-heal", "43"),
            ("change", "pack-heal", "44"), ("parent", "pack-heal", "44"),
            ("parent", "pack-heal", "45"), ("change", "pack-heal", "45")]
        assert {(args["--seconds"], args["--trace"]) for _, args in calls} \
            == {("0.5", "0")}

        report = json.loads(out.read_text(encoding="utf-8"))
        assert [(r["side"], r["first"]) for r in report["runs"][:4]] == [
            ("parent", True), ("change", False), ("change", True), ("parent", False)]
        assert all(r["correct"] and r["metrics"].keys() == set(names)
                   for r in report["runs"])
        wide = report["summary"]["wide"]
        assert (wide["runs"], wide["correct_runs"], wide["failed_sessions"]) == (6, 6, 0)
        for metric in end_to_end:
            # Seeds 40-42 give the parent 21, 22, 20 and the change 11, 12, 10.
            compared = wide[metric["name"]]
            lower = metric["better"] == "lower"
            assert compared["parent_median"] == 21 and compared["change_median"] == 11
            assert compared["parent_quartiles"] == [20, 22]
            assert compared["change_wins"] == (3 if lower else 0)
            assert compared["pairs"] == 3 and compared["bound"] == metric["bound"]
            assert compared["change_worse_by"] == round((-10 if lower else 10) / 21, 4)
            assert compared["parent_iqr_over_median"] == round(2 / 21, 4)
            assert compared["medians_apart_over_parent_iqr"] == 5.0
