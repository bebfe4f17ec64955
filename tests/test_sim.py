import random

import pytest

from proactive.automata import ActionSymbol, Event, Kind, Origin
from proactive.sim import (
    INTERFACES,
    ActivityState,
    Checkpoint,
    IllegalLifecycleError,
    LeakEntry,
    ScenarioError,
    ScenarioScript,
    ScenarioStep,
    SimProtocolError,
    SimWorld,
    lifecycle_callbacks,
    parse_scenario,
    run_scenario,
)

from proactive.pack import bundled_scenarios_dir

from helpers import (
    deployed,
    event_shapes,
    mutated_policy_text,
    random_scenario_text,
    reference_lifecycle_callbacks,
    reference_parse_scenario,
)

LIFECYCLE_COMMANDS = ("launch", "background", "foreground", "rotate",
                      "destroy")


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

    @pytest.mark.parametrize("command", [*LIFECYCLE_COMMANDS, "fly"])
    @pytest.mark.parametrize("state", [None, *ActivityState],
                             ids=lambda state: getattr(state, "value", "none"))
    def test_agrees_with_the_reference_ladder(self, state, command):
        def outcome(function):
            try:
                return function(state, command)
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(lifecycle_callbacks) \
            == outcome(reference_lifecycle_callbacks)


class TestParseScenario:
    def test_minimal(self):
        script = parse_scenario("app X\nlaunch\n", "x")
        assert script.app == "X"
        assert [s.command for s in script.steps] == ["launch"]

    def test_missing_app(self):
        with pytest.raises(ScenarioError, match=r"^1:1: syntax error: missing "
                           r"'app' directive \(expected app <name>\)$"):
            parse_scenario("launch\n", "x")

    def test_must_begin_with_launch(self):
        with pytest.raises(ScenarioError, match="^2:1: semantic error: "
                           "scenario must begin with launch$"):
            parse_scenario("app X\nbackground\n", "x")

    def test_unknown_command_has_line(self):
        with pytest.raises(ScenarioError, match="^3:1: syntax error: "
                           "unknown command 'fly'"):
            parse_scenario("app X\nlaunch\nfly\n", "x")

    @pytest.mark.parametrize("command", LIFECYCLE_COMMANDS)
    def test_each_lifecycle_command_is_a_step(self, command):
        script = parse_scenario(f"app X\nlaunch\n{command}\n", "x")
        assert script.steps[1] == ScenarioStep(command, line=3)

    @pytest.mark.parametrize("line, message", [pytest.param(
        line, message, id=f"{line}-{rule}") for line, rule, message in [
        ("app", "app directive takes one name",
         "3:4: syntax error: unexpected end of line (expected app name)"),
        ("app A B", "app directive takes one name",
         "3:7: syntax error: trailing token 'B' (expected end of line)"),
        ("destroy now", "destroy takes no arguments",
         "3:9: syntax error: trailing token 'now' (expected end of line)"),
        ("tap", "tap takes one button name",
         "3:4: syntax error: unexpected end of line (expected button name)"),
        ("tap START STOP", "tap takes one button name",
         "3:11: syntax error: trailing token 'STOP' (expected end of line)"),
        ("call", "call takes a target",
         "3:5: syntax error: unexpected end of line "
         "(expected <interface>.<method>)"),
        ("call new", "call new takes an interface",
         "3:9: syntax error: unexpected end of line (expected interface name)"),
    ]])
    def test_arity_error_names_its_line(self, line, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"app X\nlaunch\n{line}\n", "x")
        assert exc.value.diagnostic.line == 3
        assert str(exc.value) == message

    def test_malformed_call_target(self):
        # A call target needs one dot with a name on each side of it.
        for target in ("nodot", ".open", "Camera.", "Camera..open",
                       "Camera.open.x"):
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(f"app X\nlaunch\ncall {target}\n", "x")
            assert str(exc.value) == (
                f"3:6: syntax error: malformed call target {target!r} "
                "(expected <interface>.<method>)")

    @pytest.mark.parametrize("line, column, token", [
        ("tap (START)", 5, "("),
        ("call Camera.open 3, 4", 19, ","),
        ("call Camera.open 3 }", 20, "}"),
        ('call Camera.open "hz" # a comment', 18, '"hz"'),
        ("{ launch", 1, "{"),
    ])
    def test_strings_and_punctuation_are_syntax_errors(self, line, column,
                                                       token):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"app X\nlaunch\n{line}\n", "x")
        assert str(exc.value) \
            == f"3:{column}: syntax error: unexpected token {token!r}"

    def test_unterminated_string_is_a_lexical_error(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('app X\nlaunch\n\ttap "START\n', "x")
        assert str(exc.value) == ("3:6: lexical error: unterminated string "
                                  "or bad character '\"'")

    def test_call_args_parsed(self):
        script = parse_scenario("app X\nlaunch\ncall Camera.open 3 -4 hz\n", "x")
        assert script.steps[1].args == (3, -4, "hz")

    def test_only_decimal_integers_become_ints(self):
        script = parse_scenario(
            "app X\nlaunch\ncall Camera.open --5 \u00b2 -0 +4 12 -3x\n", "x")
        assert script.steps[1].args == ("--5", "\u00b2", 0, "+4", 12, "-3x")

    def test_duplicate_app_directive(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("app X\nlaunch\napp Y\n", "x")
        assert str(exc.value) == ("3:1: semantic error: duplicate 'app' "
                                  "directive (first on line 1)")

    @pytest.mark.parametrize("target, message", [
        ("Foo.bar", "unknown interface 'Foo'"),
        (".open", "unknown interface ''"),
        ("new Foo 1", "unknown interface 'Foo'"),
        ("Camera.fly", "Camera has no method 'fly'"),
        ("Camera.", "Camera has no method ''"),
    ])
    def test_unknown_call_target_is_rejected_on_its_line(self, target, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"app X\nlaunch\n\ncall {target}\n", "x")
        if "''" in message:
            # An empty interface or method is malformed before it is
            # unknown: the syntax error comes first, on the same line.
            assert message not in str(exc.value)
            assert str(exc.value) == (
                f"4:6: syntax error: malformed call target {target!r} "
                "(expected <interface>.<method>)")
            return
        # The column is the interface's: col 10 after `call new `, else 6.
        column = 10 if target.startswith("new ") else 6
        assert str(exc.value) == f"4:{column}: semantic error: {message}"

    def test_constructor_step(self):
        script = parse_scenario("app X\nlaunch\ncall new AudioRecord 8000\n",
                                "x")
        assert script.steps[1].symbol == ActionSymbol.constructor("AudioRecord")
        assert script.steps[1].args == (8000,)


def scenario_texts() -> list[str]:
    paths = sorted(bundled_scenarios_dir().glob("*.scn"))
    assert len(paths) == 7
    return [path.read_text(encoding="utf-8") for path in paths]


class TestOneReader:
    """.scn files read through the .pol lexer: valid text parses as the
    whitespace-splitting parser read it, and every error is positioned
    inside its text."""

    def test_bundled_scenarios_parse_as_before(self):
        for text in scenario_texts():
            assert parse_scenario(text, "x") \
                == reference_parse_scenario(text, "x")

    def test_generated_scenarios_parse_as_before(self):
        rng = random.Random(11)
        heads = set()
        for _ in range(300):
            text = random_scenario_text(rng)
            script = parse_scenario(text, "x")
            assert script == reference_parse_scenario(text, "x"), text
            heads.update(step.command for step in script.steps)
            heads.update(step.symbol.kind for step in script.steps
                         if step.command == "call")
        assert heads >= {*LIFECYCLE_COMMANDS, "tap", "call",
                         Kind.API_CALL, Kind.CONSTRUCTOR}

    def test_every_error_is_inside_its_text(self):
        rng = random.Random(12)
        texts = scenario_texts()
        failed = 0
        for text in texts + [mutated_policy_text(rng, rng.choice(texts))
                             for _ in range(700)]:
            try:
                parse_scenario(text, "x")
            except ScenarioError as exc:
                failed += 1
                d = exc.diagnostic
                lines = text.splitlines()
                assert 1 <= d.line <= len(lines), (text, d)
                assert 1 <= d.column <= len(lines[d.line - 1]) + 1, (text, d)
        assert failed > 100


class TestProtocols:
    def test_interfaces_are_the_protocols_in_order(self):
        assert INTERFACES == ("AudioRecord", "Camera", "LocationManager",
                              "SensorManager", "BluetoothAdapter",
                              "RemoteCallbackList")

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
        assert resource.held

    def test_unknown_method(self):
        world = SimWorld("X")
        with pytest.raises(SimProtocolError):
            feed(world, ActionSymbol.call("Camera", "zoom"))

    def test_active_implies_held(self):
        world = SimWorld("HearHere")
        feed(world, ActionSymbol.constructor("AudioRecord"),
             ActionSymbol.call("AudioRecord", "startRecording"))
        assert world.resources["AudioRecord"].held
        leak, = world.leak_report().leaks
        assert (leak.interface, leak.holder) == ("AudioRecord",
                                                 "HearHereActivity")


class TestRunScenario:
    def test_hearhere_unenforced_leaks_at_onstop(self, scenarios):
        result = run_scenario(scenarios["hearhere"])
        assert not result.leaks.clean
        leak = result.leaks.leaks[0]
        assert leak.interface == "AudioRecord"
        assert leak.holder == "HearHereActivity"
        assert leak.checkpoint is Checkpoint.ON_STOP

    def test_hearhere_enforced_is_healed(self, pack, scenarios):
        result = run_scenario(scenarios["hearhere"], deployed(pack.deployable()))
        assert result.leaks.clean
        assert len(result.interventions) == 1
        assert result.interventions[0].policy == "hearhere-audiorecord-release"

    def test_foocam_open_is_no_violation(self, pack, scenarios):
        result = run_scenario(scenarios["foocam-open"], deployed(pack.deployable()))
        assert result.leaks.clean
        assert result.interventions == ()

    def test_rcl_kill_triggers_no_intervention(self, pack, scenarios):
        result = run_scenario(scenarios["getbackgps-rcl"], deployed(pack.deployable()))
        assert result.leaks.clean
        assert result.interventions == ()

    def test_determinism(self, pack, scenarios):
        first = run_scenario(scenarios["hearhere"], deployed(pack.deployable()))
        second = run_scenario(scenarios["hearhere"], deployed(pack.deployable()))
        assert event_shapes(first.trace) == event_shapes(second.trace)

    def test_synthesized_events_marked_in_trace(self, pack, scenarios):
        result = run_scenario(scenarios["hearhere"], deployed(pack.deployable()))
        synthesized = [e.symbol.method for e in result.trace
                       if e.origin is Origin.SYNTHESIZED]
        assert synthesized == ["stop", "release"]

    def test_unknown_button_aborts_with_line(self, pack):
        script = parse_scenario("app HearHere\nlaunch\ntap NOPE\n", "x")
        with pytest.raises(ScenarioError, match="^3:1: replay error: app "
                           "'HearHere' has no button 'NOPE'$"):
            run_scenario(script)

    @pytest.mark.parametrize("steps, message", [
        (("launch", "fly"), "unknown lifecycle command 'fly'"),
        (("fly",), "'fly' before launch"),
    ])
    def test_unknown_command_of_a_built_script(self, steps, message):
        script = ScenarioScript("x", "X", tuple(
            ScenarioStep(command, line=line)
            for line, command in enumerate(steps, start=2)))
        with pytest.raises(ScenarioError) as exc:
            run_scenario(script)
        assert str(exc.value) \
            == f"{len(steps) + 1}:1: replay error: {message}"

    def test_step_bookkeeping(self, pack, scenarios):
        result = run_scenario(scenarios["hearhere"], deployed(pack.deployable()))
        assert len(result.step_times) == len(scenarios["hearhere"].steps)
        assert result.interventions_per_step == (0, 0, 1)

    def test_foreground_after_heal_reacquires(self, pack):
        script = parse_scenario(
            "app HearHere\nlaunch\ntap START\nbackground\nforeground\n"
            "tap STOP\nbackground\n", "reacquire")
        result = run_scenario(script, deployed(pack.deployable()))
        assert result.leaks.clean
        methods = [e.symbol.method for e in result.trace
                   if e.origin is Origin.SYNTHESIZED]
        assert methods == ["stop", "release", "AudioRecord", "startRecording"]

    def test_a_hold_seen_first_at_ondestroy_is_caught_there(self):
        script = parse_scenario(
            "app GetBackGPS\nlaunch\nbackground\n"
            "call LocationManager.requestLocationUpdates\ndestroy\n", "late")
        result = run_scenario(script)
        assert result.leaks.leaks == (LeakEntry(
            "LocationManager", "GetBackGPSActivity", 6, Checkpoint.ON_DESTROY),)

    def test_leaks_are_listed_in_the_order_they_were_acquired(self):
        script = parse_scenario(
            "app GetBackGPS\nlaunch\ncall SensorManager.registerListener\n"
            "call LocationManager.requestLocationUpdates\n", "two")
        result = run_scenario(script)
        assert [(e.interface, e.acquired_at) for e in result.leaks.leaks] \
            == [("SensorManager", 4), ("LocationManager", 5)]

    def test_an_app_call_carries_the_current_instance(self):
        script = parse_scenario(
            "app HearHere\nlaunch\ncall new AudioRecord 1\n"
            "call AudioRecord.startRecording\n", "instance")
        result = run_scenario(script)
        [start] = [e for e in result.trace if e.symbol.method == "startRecording"]
        assert start.instance == "AudioRecord#1"

    def test_leak_seq_finds_the_acquiring_event_in_the_trace(self, pack):
        # The trace keeps the world's seqs, where an inserted event shares
        # its trigger's, as a leak's acquired_at does.
        script = parse_scenario(
            "app HearHere\nlaunch\ntap START\nbackground\nforeground\n",
            "reacquire-leak")
        result = run_scenario(script, deployed(pack.deployable()))
        leak, = result.leaks.leaks
        acquired = [e for e in result.trace if e.seq == leak.acquired_at
                    and e.symbol == ActionSymbol.constructor("AudioRecord")]
        assert len(acquired) == 1
        assert acquired[0].origin is Origin.SYNTHESIZED
