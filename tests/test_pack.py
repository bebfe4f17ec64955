import pytest

from proactive.automata import ActionSymbol, Guard, OutputItem
from proactive.interference import check_set
from proactive.pack import (
    PackLoadError,
    bundled_pack_dir,
    load_pack,
    load_policies,
)
from proactive.sim import Expectation

TABLE_STATEMENTS = {
    "bluechat-bluetooth-disable":
        "If enable() is invoked, invoke disable() when onDestroy()",
    "foocam-camera-open-release":
        "If open() is invoked, invoke release() when onPause()",
    "foocam-camera-preview":
        "If startPreview() is invoked, invoke stopPreview() when onDestroy()",
    "getbackgps-location-updates":
        "If requestLocationUpdates() is invoked, invoke removeUpdates() "
        "when onPause()",
    "getbackgps-sensor-listener":
        "If registerListener() is invoked, invoke unregisterListener() "
        "when onPause()",
    "getbackgps-remotecallbacklist":
        "If register() is invoked, invoke unregister() when onDestroy()",
    "hearhere-audiorecord-release":
        "If new AudioRecord() is invoked, invoke release() when onStop()",
}


class TestBundledPack:
    def test_eight_policies_loaded(self, pack):
        assert len(pack) == 8
        assert set(TABLE_STATEMENTS) < set(pack.policies)
        assert "audiorecord-single-acquire" in pack.policies

    def test_statements_verbatim(self, pack):
        for name, statement in TABLE_STATEMENTS.items():
            assert pack.policies[name].statement == statement

    def test_experimental_excluded_from_deployable(self, pack):
        deployable = {p.name for p in pack.deployable()}
        assert len(deployable) == 7
        assert "audiorecord-single-acquire" not in deployable
        assert pack.policies["audiorecord-single-acquire"].experimental

    def test_deployable_set_is_interference_free(self, pack):
        assert check_set(pack.deployable()).ok

    def test_expectations_cover_all_scenarios(self, pack, scenarios):
        assert set(pack.expectations) == set(scenarios)
        healed = {n for n, e in pack.expectations.items()
                  if e is Expectation.HEALED}
        assert healed == {"bluechat", "foocam-preview", "getbackgps-location",
                          "getbackgps-sensor", "hearhere"}

    def test_audiorecord_policy_contains_release_skeleton(self, pack):
        automaton = pack.policies["hearhere-audiorecord-release"].automaton
        assert {"0", "1", "2"} < automaton.states
        new_ar = ActionSymbol.constructor("AudioRecord")
        start = ActionSymbol.call("AudioRecord", "startRecording")
        on_stop = ActionSymbol.callback("onStop")
        by_guard = {(t.source, t.guard.text()): t
                    for t in automaton.transitions}
        assert by_guard[("0", Guard.exactly(new_ar).text())].target == "1"
        assert by_guard[("1", Guard.exactly(start).text())].target == "2"
        heal = by_guard[("2", Guard.exactly(on_stop).text())]
        assert [i.symbol.method for i in heal.output if not i.is_forward] \
            == ["stop", "release"]
        assert heal.output[-1] == OutputItem.forward()

    def test_reacquisition_uses_cached_constructor_args(self, pack):
        automaton = pack.policies["hearhere-audiorecord-release"].automaton
        on_restart = ActionSymbol.callback("onRestart")
        reacquire = [t for t in automaton.transitions
                     if t.guard.matches(on_restart) and t.source == "suspended"
                     and any(not i.is_forward for i in t.output)]
        assert len(reacquire) == 1
        first = reacquire[0].output[0]
        assert first.symbol == ActionSymbol.constructor("AudioRecord")
        assert first.arg_source.value == "cached"

    def test_rcl_vocabulary_includes_kill(self, pack):
        vocabulary = pack.policies["getbackgps-remotecallbacklist"] \
            .automaton.vocabulary
        assert ActionSymbol.call("RemoteCallbackList", "kill") in vocabulary


class TestLoadPack:
    def test_empty_directory_is_empty_pack(self, tmp_path):
        pack = load_pack(tmp_path)
        assert len(pack) == 0
        assert pack.expectations == {}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(PackLoadError, match="does not exist"):
            load_pack(tmp_path / "nope")

    def test_malformed_file_aborts_naming_it(self, tmp_path):
        (tmp_path / "bad.pol").write_text("policy\n", encoding="utf-8")
        with pytest.raises(PackLoadError, match="bad.pol"):
            load_pack(tmp_path)

    def test_duplicate_names_reported(self, tmp_path):
        text = ('policy dup\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                "on any from 0 to 0 emit input\n")
        (tmp_path / "a.pol").write_text(text, encoding="utf-8")
        (tmp_path / "b.pol").write_text(text, encoding="utf-8")
        with pytest.raises(PackLoadError, match="duplicate policy name"):
            load_pack(tmp_path)

    def test_bad_manifest_line(self, tmp_path):
        (tmp_path / "manifest").write_text("scen maybe\n", encoding="utf-8")
        with pytest.raises(PackLoadError, match="unknown expectation"):
            load_pack(tmp_path)

    def test_scenario_listed_twice_in_manifest(self, tmp_path):
        (tmp_path / "manifest").write_text(
            "a healed\nb healed\na no-violation\n", encoding="utf-8")
        with pytest.raises(PackLoadError) as exc:
            load_pack(tmp_path)
        assert exc.value.problems \
            == ["manifest:3: duplicate scenario 'a' (first on line 1)"]

    def test_interfering_deployable_pack_rejected(self, tmp_path):
        base = ('policy {name}\nstatement "s"\ntarget T\nstates 0 1\ninitial 0\n'
                "on any-except {{call T.x}} from 0 to 0 emit input\n"
                "on call T.x from 0 to 1 emit insert call T.y, input\n"
                "on any from 1 to 1 emit input\n")
        watcher = ('policy watcher\nstatement "s"\ntarget T\nstates 0\n'
                   "initial 0\non any-except {call T.y} from 0 to 0 emit input\n"
                   "on call T.y from 0 to 0 emit input\n")
        (tmp_path / "a.pol").write_text(base.format(name="inserter"),
                                        encoding="utf-8")
        (tmp_path / "b.pol").write_text(watcher, encoding="utf-8")
        with pytest.raises(PackLoadError, match="interfere"):
            load_pack(tmp_path)

    def test_load_policies_collects_problems_without_raising(self, tmp_path):
        (tmp_path / "bad.pol").write_text("???\n", encoding="utf-8")
        docs, problems = load_policies(tmp_path)
        assert docs == {}
        assert problems and "bad.pol" in problems[0]

    def test_bundled_dir_exists(self):
        assert bundled_pack_dir().is_dir()
