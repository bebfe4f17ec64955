import pytest

from proactive.automata import ActionSymbol, Event, Origin
from proactive.enforcer import PolicyEnforcer
from proactive.sim import (
    ActivityState,
    Checkpoint,
    IllegalLifecycleError,
    ScenarioError,
    SimProtocolError,
    SimWorld,
    lifecycle_callbacks,
    parse_scenario,
    run_scenario,
)

from helpers import event_shapes


def deploy_all(pack):
    enforcer = PolicyEnforcer()
    for policy in pack.deployable():
        enforcer.deploy(policy)
    return enforcer


def feed(world, *symbols):
    for symbol in symbols:
        world.execute(Event(symbol, seq=world.next_seq()))


class TestLifecycle:
    def test_background_from_resumed(self):
        assert lifecycle_callbacks(ActivityState.RESUMED, "background") \
            == ["onPause", "onStop"]

    def test_foreground_from_stopped(self):
        assert lifecycle_callbacks(ActivityState.STOPPED, "foreground") \
            == ["onRestart", "onStart", "onResume"]

    def test_destroy_from_resumed(self):
        assert lifecycle_callbacks(ActivityState.RESUMED, "destroy") \
            == ["onPause", "onStop", "onDestroy"]

    def test_rotate_is_destroy_plus_recreate(self):
        assert lifecycle_callbacks(ActivityState.RESUMED, "rotate") \
            == ["onPause", "onStop", "onDestroy",
                "onCreate", "onStart", "onResume"]

    def test_launch_only_once(self):
        assert lifecycle_callbacks(None, "launch") \
            == ["onCreate", "onStart", "onResume"]
        with pytest.raises(IllegalLifecycleError):
            lifecycle_callbacks(ActivityState.RESUMED, "launch")

    def test_illegal_commands(self):
        with pytest.raises(IllegalLifecycleError):
            lifecycle_callbacks(None, "background")
        with pytest.raises(IllegalLifecycleError):
            lifecycle_callbacks(ActivityState.DESTROYED, "foreground")
        with pytest.raises(IllegalLifecycleError):
            lifecycle_callbacks(ActivityState.STOPPED, "background")


class TestParseScenario:
    def test_minimal(self):
        script = parse_scenario("app X\nlaunch\n", "x")
        assert script.app == "X"
        assert [s.command for s in script.steps] == ["launch"]

    def test_missing_app(self):
        with pytest.raises(ScenarioError, match="app"):
            parse_scenario("launch\n", "x")

    def test_must_begin_with_launch(self):
        with pytest.raises(ScenarioError, match="launch"):
            parse_scenario("app X\nbackground\n", "x")

    def test_unknown_command_has_line(self):
        with pytest.raises(ScenarioError, match="line 3"):
            parse_scenario("app X\nlaunch\nfly\n", "x")

    def test_malformed_call_target(self):
        with pytest.raises(ScenarioError, match="malformed"):
            parse_scenario("app X\nlaunch\ncall nodot\n", "x")

    def test_call_args_parsed(self):
        script = parse_scenario("app X\nlaunch\ncall A.m 3 -4 hz\n", "x")
        assert script.steps[1].args == (3, -4, "hz")

    def test_only_decimal_integers_become_ints(self):
        script = parse_scenario(
            "app X\nlaunch\ncall A.m --5 \u00b2 -0 +4 12 -3x\n", "x")
        assert script.steps[1].args == ("--5", "\u00b2", 0, "+4", 12, "-3x")

    def test_duplicate_app_directive(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("app X\nlaunch\napp Y\n", "x")
        assert exc.value.line == 3
        assert "duplicate 'app' directive (first on line 1)" in str(exc.value)

    def test_constructor_step(self):
        script = parse_scenario("app X\nlaunch\ncall new AudioRecord 8000\n",
                                "x")
        assert script.steps[1].symbol == ActionSymbol.constructor("AudioRecord")
        assert script.steps[1].args == (8000,)


class TestProtocols:
    def test_start_recording_requires_acquisition(self):
        world = SimWorld("HearHere")
        with pytest.raises(SimProtocolError):
            feed(world, ActionSymbol.call("AudioRecord", "startRecording"))

    def test_exclusive_double_acquisition(self):
        world = SimWorld("HearHere")
        feed(world, ActionSymbol.constructor("AudioRecord"))
        with pytest.raises(SimProtocolError):
            feed(world, ActionSymbol.constructor("AudioRecord"))

    def test_camera_double_open(self):
        world = SimWorld("fooCam")
        feed(world, ActionSymbol.call("Camera", "open"))
        with pytest.raises(SimProtocolError):
            feed(world, ActionSymbol.call("Camera", "open"))

    def test_release_when_idle_is_tolerated(self):
        world = SimWorld("fooCam")
        feed(world, ActionSymbol.call("Camera", "release"),
             ActionSymbol.call("Camera", "stopPreview"))
        assert not world.resources["Camera"].held

    def test_kill_clears_all_registrations(self):
        world = SimWorld("GetBackGPS")
        register = ActionSymbol.call("RemoteCallbackList", "register")
        feed(world, register, register,
             ActionSymbol.call("RemoteCallbackList", "kill"))
        resource = world.resources["RemoteCallbackList"]
        assert not resource.held and resource.registrations == 0

    @pytest.mark.parametrize("interface, method", [
        ("AudioRecord", "startRecording"), ("Camera", "startPreview")])
    def test_start_on_unheld_names_the_method(self, interface, method):
        world = SimWorld("X")
        with pytest.raises(SimProtocolError,
                           match=f"^{method} on an unheld {interface}$"):
            feed(world, ActionSymbol.call(interface, method))

    @pytest.mark.parametrize("acquire, start, stop", [
        (ActionSymbol.constructor("AudioRecord"),
         ActionSymbol.call("AudioRecord", "startRecording"),
         ActionSymbol.call("AudioRecord", "stop")),
        (ActionSymbol.call("Camera", "open"),
         ActionSymbol.call("Camera", "startPreview"),
         ActionSymbol.call("Camera", "stopPreview")),
    ])
    def test_stop_deactivates_and_keeps_the_hold(self, acquire, start, stop):
        world = SimWorld("X")
        feed(world, acquire, start, stop)
        resource = world.resources[acquire.interface]
        assert resource.held and not resource.active

    def test_unknown_method(self):
        world = SimWorld("X")
        with pytest.raises(SimProtocolError):
            feed(world, ActionSymbol.call("Camera", "zoom"))

    def test_active_implies_held(self):
        world = SimWorld("HearHere")
        feed(world, ActionSymbol.constructor("AudioRecord"),
             ActionSymbol.call("AudioRecord", "startRecording"))
        resource = world.resources["AudioRecord"]
        assert resource.active and resource.held
        assert resource.holder == "HearHereActivity"


class TestRunScenario:
    def test_hearhere_unenforced_leaks_at_onstop(self, scenarios):
        result = run_scenario(scenarios["hearhere"])
        assert not result.leaks.clean
        leak = result.leaks.leaks[0]
        assert leak.interface == "AudioRecord"
        assert leak.holder == "HearHereActivity"
        assert leak.checkpoint is Checkpoint.ON_STOP

    def test_hearhere_enforced_is_healed(self, pack, scenarios):
        result = run_scenario(scenarios["hearhere"], deploy_all(pack))
        assert result.leaks.clean
        assert len(result.interventions) == 1
        assert result.interventions[0].policy == "hearhere-audiorecord-release"

    def test_foocam_open_is_no_violation(self, pack, scenarios):
        result = run_scenario(scenarios["foocam-open"], deploy_all(pack))
        assert result.leaks.clean
        assert result.interventions == ()

    def test_rcl_kill_triggers_no_intervention(self, pack, scenarios):
        result = run_scenario(scenarios["getbackgps-rcl"], deploy_all(pack))
        assert result.leaks.clean
        assert result.interventions == ()

    def test_determinism(self, pack, scenarios):
        first = run_scenario(scenarios["hearhere"], deploy_all(pack))
        second = run_scenario(scenarios["hearhere"], deploy_all(pack))
        assert event_shapes(first.trace) == event_shapes(second.trace)

    def test_synthesized_events_marked_in_trace(self, pack, scenarios):
        result = run_scenario(scenarios["hearhere"], deploy_all(pack))
        synthesized = [e.symbol.method for e in result.trace
                       if e.origin is Origin.SYNTHESIZED]
        assert synthesized == ["stop", "release"]

    def test_unknown_button_aborts_with_line(self, pack):
        script = parse_scenario("app HearHere\nlaunch\ntap NOPE\n", "x")
        with pytest.raises(ScenarioError, match="NOPE"):
            run_scenario(script)

    def test_step_bookkeeping(self, pack, scenarios):
        result = run_scenario(scenarios["hearhere"], deploy_all(pack))
        assert len(result.step_times) == len(scenarios["hearhere"].steps)
        assert result.interventions_per_step() == (0, 0, 1)

    def test_foreground_after_heal_reacquires(self, pack):
        script = parse_scenario(
            "app HearHere\nlaunch\ntap START\nbackground\nforeground\n"
            "tap STOP\nbackground\n", "reacquire")
        result = run_scenario(script, deploy_all(pack))
        assert result.leaks.clean
        methods = [e.symbol.method for e in result.trace
                   if e.origin is Origin.SYNTHESIZED]
        assert methods == ["stop", "release", "AudioRecord", "startRecording"]
