import contextlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import proactive
from proactive import cli, enforcer, interference
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

    def test_non_utf8_file_is_one_usage_line(self, tmp_path, capsys):
        path = tmp_path / "bad.pol"
        path.write_bytes(b"policy p\n\xff\n")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: 'utf-8' codec can't decode")
        assert captured.err.count("\n") == 1

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

    def test_non_utf8_policy_in_pack(self, tmp_path, capsys):
        (tmp_path / "bad.pol").write_bytes(b"\xff")
        assert main(["interference", "--pack", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad.pol: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_missing_pack_dir(self, tmp_path, capsys):
        assert main(["interference", "--pack", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", [
        ["interference"], ["run", "--scenario", scn("hearhere")]],
        ids=["interference", "run"])
    def test_directory_named_like_a_policy_is_one_usage_line(
            self, tmp_path, capsys, command):
        (tmp_path / "x.pol").mkdir()
        assert main([*command, "--pack", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("x.pol: [Errno 21] Is a directory")
        assert err.count("\n") == 1

    def test_directory_named_manifest_is_one_usage_line(self, tmp_path, capsys):
        (tmp_path / "manifest").mkdir()
        assert main(["run", "--pack", str(tmp_path), "--scenario",
                     scn("hearhere")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest: [Errno 21] Is a directory")
        assert err.count("\n") == 1

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

    def test_unwritable_out_is_one_usage_line(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "report.json"
        assert main(["run", "--scenario", scn("hearhere"), "--out",
                     str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "healed" in captured.out
        assert captured.err.startswith(f"{out_path}: ")
        assert captured.err.count("\n") == 1

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

    def test_non_utf8_scenario_is_one_usage_line(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"app HearHere\nlaunch\n\xff\n")
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_non_utf8_manifest_is_one_usage_line(self, tmp_path, capsys):
        for path in bundled_pack_dir().glob("*.pol"):
            (tmp_path / path.name).write_text(path.read_text())
        (tmp_path / "manifest").write_bytes(b"hearhere healed\n\xff\n")
        assert main(["run", "--pack", str(tmp_path), "--scenario",
                     scn("hearhere")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_unknown_call_target_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "foo.scn"
        path.write_text("app HearHere\nlaunch\ncall Foo.bar\n",
                        encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err \
            == f"{path}: line 3: unknown interface 'Foo'\n"

    @pytest.mark.parametrize("text, message", [
        ("app HearHere\nlaunch\ntap NOPE\n",
         "line 3: app 'HearHere' has no button 'NOPE'"),
        ("app FooCam\nlaunch\nlaunch\n", "line 3: activity already launched"),
        ("app FooCam\nlaunch\ncall Camera.open\ncall Camera.open\n",
         "line 4: Camera is exclusively held; cannot open it twice"),
        ("app FooCam\nlaunch\nforeground\n",
         "line 3: cannot foreground a resumed activity"),
    ], ids=["unknown-button", "second-launch", "second-open",
            "resumed-foreground"])
    @pytest.mark.parametrize("extra", [[], ["--parallel"]],
                             ids=["serial", "parallel"])
    def test_replay_error_is_one_usage_line(self, tmp_path, capsys, text,
                                            message, extra):
        path = tmp_path / "bad.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--scenario", scn("hearhere"), "--scenario",
                     str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {message}\n"

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "x.scn")]) == 2

    def test_only_load_pack_checks_pairs(self, monkeypatch, capsys):
        # Each scenario deploys the clean pack again; those deploys test
        # two sets and check no pair.
        callers = []
        original = interference.check_pair

        def recording(a, b):
            callers.append({frame.name for frame in traceback.extract_stack()})
            return original(a, b)

        monkeypatch.setattr(interference, "check_pair", recording)
        monkeypatch.setattr(enforcer, "check_pair", recording)
        scenarios = sorted(bundled_scenarios_dir().glob("*.scn"))
        assert len(scenarios) == 7
        args = ["run"]
        for path in scenarios:
            args += ["--scenario", str(path)]
        assert main(args) == 0
        assert len(callers) == 21
        assert all("load_pack" in names for names in callers)


# A policy whose heal the simulator rejects: on pause it starts a preview
# on a camera the app never opened.
BAD_PREVIEW = """\
policy bad-preview
version 1
statement "starts a preview on pause"
target Camera
states 0
initial 0
on callback onPause from 0 to 0 emit insert call Camera.startPreview, input
on any-except {callback onPause} from 0 to 0 emit input
"""


def bad_preview_inputs(tmp_path, policy=BAD_PREVIEW):
    pack = tmp_path / "pack"
    pack.mkdir()
    (pack / "manifest").write_text("", encoding="utf-8")
    (pack / "bad.pol").write_text(policy, encoding="utf-8")
    path = tmp_path / "x.scn"
    path.write_text("app HearHere\nlaunch\nbackground\n", encoding="utf-8")
    return pack, path


class TestFailedHeal:
    @pytest.mark.parametrize("command", [
        ["run"], ["run", "--parallel"], ["bench", "--reps", "3"]],
        ids=["run", "run-parallel", "bench"])
    def test_is_one_finding_line(self, tmp_path, capsys, command):
        pack, path = bad_preview_inputs(tmp_path)
        scenarios = ["--scenario", str(path)] * (2 if "--parallel" in command else 1)
        assert main([*command, "--pack", str(pack), *scenarios]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: line 3: policy 'bad-preview' failed to execute "
            "+call Camera.startPreview@4: startPreview on an unheld Camera\n")

    def test_serial_run_stops_at_the_first_failure(self, tmp_path, capsys,
                                                   monkeypatch):
        pack, path = bad_preview_inputs(tmp_path)
        replayed = []
        run_one = cli.run_one
        monkeypatch.setattr(cli, "run_one", lambda script, *rest: (
            replayed.append(script), run_one(script, *rest))[1])
        assert main(["run", "--pack", str(pack), "--scenario", str(path),
                     "--scenario", scn("hearhere")]) == 1
        assert len(replayed) == 1
        assert capsys.readouterr().err.count("\n") == 1


# Its template reads cached args, but it never sees a constructor.
UNCACHED_STOP = """\
policy uncached-stop
statement "stop with cached args"
target AudioRecord
states 0
initial 0
on callback onStop from 0 to 0 emit insert call AudioRecord.stop args cached, input
on any-except {callback onStop} from 0 to 0 emit input
"""


class TestAuthoringError:
    @pytest.mark.parametrize("command", [
        ["run"], ["run", "--parallel"], ["bench", "--reps", "3"]],
        ids=["run", "run-parallel", "bench"])
    def test_is_one_finding_line(self, tmp_path, capsys, command):
        pack, path = bad_preview_inputs(tmp_path, UNCACHED_STOP)
        scenarios = ["--scenario", str(path)] * (2 if "--parallel" in command else 1)
        assert main([*command, "--pack", str(pack), *scenarios]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: line 3: policy 'uncached-stop': template synthesizes "
            "call AudioRecord.stop with cached constructor args, but no "
            "constructor has been intercepted yet\n")


class TestHashSeed:
    def test_output_does_not_depend_on_the_hash_seed(self):
        scenarios = [str(p) for p in sorted(bundled_scenarios_dir().glob("*.scn"))]
        policies = [str(p) for p in sorted(bundled_pack_dir().glob("*.pol"))]
        assert len(scenarios) == 7
        commands = [
            ["run", *(arg for path in scenarios for arg in ("--scenario", path))],
            ["run", "--no-enforce",
             *(arg for path in scenarios for arg in ("--scenario", path))],
            ["interference"],
            ["validate", *policies],
        ]
        src = str(Path(proactive.__file__).parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            env.pop("PROACTIVE_PACK", None)
            outputs.append([
                subprocess.run([sys.executable, "-m", "proactive.cli", *command],
                               env=env, capture_output=True, text=True,
                               timeout=60).stdout
                for command in commands])
        assert all(outputs[0])
        assert outputs[0] == outputs[1]


class TestColdStart:
    def test_cli_imports_bench_and_threads_only_where_used(self):
        src = str(Path(proactive.__file__).parents[1])
        code = ("import sys, proactive.cli; print([m for m in ("
                "'proactive.bench', 'statistics', 'concurrent.futures') "
                "if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", code],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, timeout=60)
        assert result.stdout == "[]\n", result.stderr

    def test_dsl_imports_no_runtime_module(self):
        # The package root imports nothing, so a parse-only client does
        # not pay for the enforcer, the simulator or the CLI.
        src = str(Path(proactive.__file__).parents[1])
        code = ("import sys, proactive.dsl; print([m for m in ("
                "'proactive.sim', 'proactive.enforcer', 'proactive.pack', "
                "'proactive.interference', 'proactive.cli') "
                "if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", code],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, timeout=60)
        assert result.stdout == "[]\n", result.stderr


class TestBench:
    def test_reps_must_be_at_least_three(self, capsys):
        assert main(["bench", "--scenario", scn("hearhere"), "--reps",
                     "2"]) == 2

    def test_replay_error_is_one_usage_line(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("app HearHere\nlaunch\ntap NOPE\n", encoding="utf-8")
        assert main(["bench", "--scenario", str(path), "--reps", "3"]) == 2
        assert capsys.readouterr().err \
            == f"{path}: line 3: app 'HearHere' has no button 'NOPE'\n"

    def test_unwritable_out_is_one_usage_line(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "bench.json"
        assert main(["bench", "--scenario", scn("hearhere"), "--reps", "3",
                     "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "highest overhead" in captured.out
        assert captured.err.startswith(f"{out_path}: ")
        assert captured.err.count("\n") == 1

    def test_bench_report(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--scenario", scn("hearhere"), "--reps", "3",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "highest overhead" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        bench = payload["benchmarks"][0]
        for action in bench["actions"]:
            percent = f"({action['overhead_percent']:+.2f}%)"
            assert re.search(rf"{action['label']}: .* overhead [+-]\d+\.\d us "
                             + re.escape(percent), out)
        assert bench["repetitions"] == 3
        assert len(bench["actions"]) == 3
        intervention_counts = [a["interventions"] for a in bench["actions"]]
        assert intervention_counts == [0, 0, 1]


# -- fuzzed input ----------------------------------------------------------

_BASES = [path.read_bytes() for path in sorted(bundled_pack_dir().glob("*.pol"))
          + sorted(bundled_scenarios_dir().glob("*.scn"))]
_LINES = sorted({line for base in _BASES for line in base.splitlines()})
_TOKENS = sorted({token for line in _LINES for token in line.split()}) + [
    b"", b"{", b"}", b"(", b",", b'"', b"#", b"-1", b"99999999999999999999",
    b"Camera.", b".open", b"Foo.bar", b"\x00", b"\xc3\xa9", b"\xff", b"\r"]


@st.composite
def fuzzed_files(draw):
    """A bundled .pol or .scn file with a few edits: a valid line of either
    kind inserted, a token replaced, a line dropped, or raw bytes
    inserted."""
    lines = draw(st.sampled_from(_BASES)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.integers(0, 3))
        if edit == 0:
            lines.insert(at, draw(st.sampled_from(_LINES)))
        elif edit == 1 and at < len(lines) and lines[at].split():
            tokens = lines[at].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(_TOKENS))
            lines[at] = b" ".join(tokens)
        elif edit == 2 and at < len(lines):
            del lines[at]
        else:
            lines.insert(at, draw(st.binary(max_size=12)))
    return b"\n".join(lines) + b"\n"


class TestFuzzedInput:
    """No input file makes the CLI raise: every run ends with exit 0 (ok),
    1 (a finding) or 2 (a usage or input error)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed_files(), fuzzed_files())
    def test_no_exception_escapes(self, tmp_path, policy, scenario):
        pol, scn_path = tmp_path / "fuzzed.pol", tmp_path / "fuzzed.scn"
        pol.write_bytes(policy)
        scn_path.write_bytes(scenario)
        for argv in (["validate", str(pol)],
                     ["run", "--scenario", str(scn_path)],
                     ["bench", "--scenario", str(scn_path), "--reps", "3"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
