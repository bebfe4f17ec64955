import json

import pytest

from proactive.cli import main
from proactive.pack import bundled_pack_dir, bundled_scenarios_dir

from helpers import FIXTURES


def scn(name):
    return str(bundled_scenarios_dir() / f"{name}.scn")


class TestValidate:
    def test_bundled_policies_pass(self, capsys):
        paths = [str(p) for p in sorted(bundled_pack_dir().glob("*.pol"))]
        assert main(["validate", *paths]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == len(paths)

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pol"
        bad.write_text("policy\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_decimal_digit_state_id(self, tmp_path, capsys):
        path = tmp_path / "p.pol"
        path.write_text('policy p\nstatement "s"\ntarget T\nstates 0 \u00b2\n'
                        "initial 0\non any from 0 to 0 emit input\n",
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: ok (policy p)\n"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.pol")]) == 2
        assert capsys.readouterr().err

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestInterference:
    def test_bundled_pack_clean(self, capsys):
        assert main(["interference"]) == 0
        out = capsys.readouterr().out
        assert "no interference" in out
        assert "excluded (experimental): audiorecord-single-acquire" in out

    def test_conflicting_fixture_found(self, tmp_path, capsys):
        for path in bundled_pack_dir().glob("*.pol"):
            (tmp_path / path.name).write_text(path.read_text())
        conflict = FIXTURES / "conflict-camera.pol"
        (tmp_path / conflict.name).write_text(conflict.read_text())
        assert main(["interference", "--pack", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "foocam-camera-open-release" in out
        assert "call Camera.release" in out

    def test_missing_pack_dir(self, tmp_path, capsys):
        assert main(["interference", "--pack", str(tmp_path / "x")]) == 2

    def test_env_var_pack(self, monkeypatch, capsys):
        monkeypatch.setenv("PROACTIVE_PACK", str(bundled_pack_dir()))
        assert main(["interference"]) == 0


class TestRun:
    def test_enforced_hearhere_is_healed(self, capsys):
        assert main(["run", "--scenario", scn("hearhere")]) == 0
        out = capsys.readouterr().out
        assert "healed" in out
        assert "leaks: none" in out

    def test_unenforced_hearhere_leaks(self, capsys):
        assert main(["run", "--scenario", scn("hearhere"),
                     "--no-enforce"]) == 1
        out = capsys.readouterr().out
        assert "leaked" in out
        assert "AudioRecord" in out
        assert "interventions: 0" in out

    def test_rcl_no_violation(self, capsys):
        assert main(["run", "--scenario", scn("getbackgps-rcl")]) == 0
        assert "no-violation" in capsys.readouterr().out

    def test_disabling_the_policy_reintroduces_the_leak(self, capsys):
        assert main(["run", "--scenario", scn("hearhere"), "--disable",
                     "hearhere-audiorecord-release"]) == 1
        assert "leaked" in capsys.readouterr().out

    def test_unknown_disable_name(self, capsys):
        assert main(["run", "--scenario", scn("hearhere"), "--disable",
                     "nope"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_out_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["run", "--scenario", scn("hearhere"), "--out",
                     str(out_path)]) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        report = payload["reports"][0]
        assert report["scenario"] == "hearhere"
        assert report["outcome"] == "healed"
        assert report["interventions"]["count"] == 1
        assert report["leaks"] == []

    def test_parallel_runs_isolated_worlds(self, capsys):
        code = main(["run", "--scenario", scn("hearhere"), "--scenario",
                     scn("bluechat"), "--parallel"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("healed") == 2

    def test_non_integer_call_args_run(self, tmp_path, capsys):
        path = tmp_path / "odd.scn"
        path.write_text("app HearHere\nlaunch\ncall AudioRecord.stop --5 \u00b2\n",
                        encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 0
        assert "no-violation" in capsys.readouterr().out

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "x.scn")]) == 2


class TestBench:
    def test_reps_must_be_at_least_three(self, capsys):
        assert main(["bench", "--scenario", scn("hearhere"), "--reps",
                     "2"]) == 2

    def test_bench_report(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--scenario", scn("hearhere"), "--reps", "3",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "highest overhead" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        bench = payload["benchmarks"][0]
        assert bench["repetitions"] == 3
        assert len(bench["actions"]) == 3
        intervention_counts = [a["interventions"] for a in bench["actions"]]
        assert intervention_counts == [0, 0, 1]
