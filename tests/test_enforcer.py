import collections
import copy
import dis
import itertools
import random
from dataclasses import replace

import pytest

import proactive.enforcer as enforcer_module
from proactive.automata import (
    ActionSymbol,
    EditAutomaton,
    Event,
    Guard,
    MissingTransitionError,
    Origin,
    PolicyAuthoringError,
    Trace,
    Transition,
    instantiate,
)
from proactive.dsl import parse
from proactive.interference import InterferenceReport, check_set
from proactive.enforcer import (
    DuplicatePolicyError,
    EnforcementOutcome,
    HealingFailureError,
    InterferenceError,
    PolicyEnforcer,
    ProactiveModule,
    RecordingSink,
    StaleHandleError,
)
from proactive.sim import SimProtocolError, SimWorld

from helpers import (
    DOA,
    DOB,
    DOX,
    FIXTURES,
    NEW_AR,
    ON_STOP,
    RELEASE_AR,
    START_REC,
    STOP_REC,
    ReferenceEnforcer,
    event_shapes,
    forced_release_automaton,
    fwd,
    make_doc,
    policy_files,
    random_policy_doc,
    random_trace,
    reference_gate,
    synth,
)

FAULTY = Trace.from_symbols([NEW_AR, START_REC, ON_STOP])
ON_PAUSE = ActionSymbol.callback("onPause")
ON_RESTART = ActionSymbol.callback("onRestart")
CAMERA_OPEN = ActionSymbol.call("Camera", "open")
CAMERA_RELEASE = ActionSymbol.call("Camera", "release")
REQUEST_UPDATES = ActionSymbol.call("LocationManager", "requestLocationUpdates")
REMOVE_UPDATES = ActionSymbol.call("LocationManager", "removeUpdates")


def release_policy():
    return make_doc("forced-release", forced_release_automaton(), "AudioRecord")


class InstanceSink(RecordingSink):
    """Sink that mints an instance id per constructor, like the simulator."""

    def __init__(self):
        super().__init__()
        self.counter = 0

    def execute(self, event):
        super().execute(event)
        if event.symbol.kind.value == "new":
            self.counter += 1
            return f"{event.symbol.interface}#{self.counter}"
        return None


class FailingSink(RecordingSink):
    def execute(self, event):
        if event.origin is Origin.SYNTHESIZED:
            raise RuntimeError("device busy")
        return super().execute(event)


class Rejected(Exception):
    pass


class SymbolRejectingSink(RecordingSink):
    """Rejects every event on the given symbols, app or synthesized."""

    def __init__(self, *rejected):
        super().__init__()
        self.rejected = rejected

    def execute(self, event):
        if event.symbol in self.rejected:
            raise Rejected(f"{event} rejected")
        return super().execute(event)


class SeededRejectingSink(InstanceSink):
    """Mints instances like InstanceSink, but first rejects each event it
    is offered with a seeded probability."""

    def __init__(self, seed, rate):
        super().__init__()
        self.rng = random.Random(seed)
        self.rate = rate

    def execute(self, event):
        if self.rng.random() < self.rate:
            raise Rejected(f"{event} rejected")
        return super().execute(event)


class ReleaseRejectingWorld(SimWorld):
    """Rejects the first synthesized AudioRecord.release, then accepts."""

    rejected = False

    def execute(self, event):
        if (event.symbol == RELEASE_AR and event.origin is Origin.SYNTHESIZED
                and not self.rejected):
            self.rejected = True
            raise SimProtocolError("device busy")
        return super().execute(event)


def deploy_like_reference(enforcer, policy) -> bool:
    """Deploy, asserting that accept/reject and the report text match the
    all-pairs reference gate; returns whether the policy was rejected."""
    expected = reference_gate(enforcer, policy)
    if expected.ok:
        enforcer.deploy(policy)
        return False
    with pytest.raises(InterferenceError) as exc:
        enforcer.deploy(policy)
    assert str(exc.value.report) == str(expected)
    assert str(exc.value) == f"policies interfere:\n{expected}"
    return True


@pytest.fixture
def instantiations(monkeypatch):
    """The templates the enforcer instantiates, one entry per call."""
    calls = []
    original = enforcer_module.instantiate

    def counting(template, trigger, cached_ctor_args, instances):
        calls.append(template)
        return original(template, trigger, cached_ctor_args, instances)

    monkeypatch.setattr(enforcer_module, "instantiate", counting)
    return calls


def deploy_pack(pack):
    enforcer = PolicyEnforcer()
    handles = {p.name: enforcer.deploy(p) for p in pack.deployable()}
    return enforcer, handles


class WatchedModule(ProactiveModule):
    """A module that logs every write to its state or cached args."""

    def __setattr__(self, name, value):
        if name in ("state", "cached_ctor_args"):
            self.commits.append((self.policy.name, name, value))
        super().__setattr__(name, value)


def watch_commits(enforcer) -> list:
    """The (policy, field, value) of every later write to a module's state
    or cached args, in the order they happen."""
    commits: list = []
    for module in enforcer.modules:
        module.__class__ = WatchedModule
        module.commits = commits
    return commits


class TestDeploy:
    def test_fresh_module_state(self):
        enforcer = PolicyEnforcer()
        handle = enforcer.deploy(release_policy())
        assert handle.state == "0"
        assert handle.enabled
        assert handle.cached_ctor_args is None

    def test_all_pack_policies_coexist(self, pack):
        enforcer = PolicyEnforcer()
        for policy in pack.deployable():
            enforcer.deploy(policy)
        assert len(enforcer.modules) == 7

    def test_interfering_policy_rejected_with_report(self, pack):
        enforcer = PolicyEnforcer()
        for policy in pack.deployable():
            enforcer.deploy(policy)
        conflict = parse((FIXTURES / "conflict-camera.pol").read_text())
        with pytest.raises(InterferenceError) as exc:
            enforcer.deploy(conflict)
        assert "call Camera.release" in str(exc.value.report)
        assert len(enforcer.modules) == 7

    def test_duplicate_name_rejected(self):
        enforcer = PolicyEnforcer()
        enforcer.deploy(release_policy())
        with pytest.raises(DuplicatePolicyError):
            enforcer.deploy(release_policy())

    def test_watchers_follow_policy_names_under_any_deploy_order(self, pack):
        # Name order files each watcher last, reversed order files each one
        # first, and shuffled orders mix the two.
        policies = sorted(pack.deployable(), key=lambda p: p.name)
        rng = random.Random(13)
        orders = [policies, policies[::-1]] + [
            rng.sample(policies, len(policies)) for _ in range(20)]
        expected = {(symbol, p.name) for p in policies
                    for symbol in p.automaton.vocabulary}
        for order in orders:
            enforcer = PolicyEnforcer()
            for policy in order:
                enforcer.deploy(policy)
            assert max(map(len, enforcer.watchers.values())) >= 3
            filed = set()
            for symbol, watchers in enforcer.watchers.items():
                names = [module.policy.name for module, _ in watchers]
                assert names == sorted(names), (symbol, names)
                for module, moves in watchers:
                    assert moves == module.policy.automaton.moves[symbol]
                    filed.add((symbol, module.policy.name))
            assert filed == expected


class TestGateMatchesAllPairsReference:
    def test_conflict_at_every_position_of_the_pack(self, pack):
        deployable = pack.deployable()
        conflict = parse((FIXTURES / "conflict-camera.pol").read_text())
        for position in range(len(deployable) + 1):
            order = deployable[:position] + [conflict] + deployable[position:]
            enforcer = PolicyEnforcer()
            rejected = [deploy_like_reference(enforcer, policy)
                        for policy in order]
            assert any(rejected), position

    def test_seeded_random_policy_sets(self):
        rejections = 0
        for first in range(0, 300, 5):
            enforcer = PolicyEnforcer()
            for seed in range(first, first + 5):
                rejections += deploy_like_reference(enforcer,
                                                    random_policy_doc(seed))
        assert rejections > 0

    def test_each_pair_is_checked_once(self, pack, monkeypatch):
        # A clean deploy tests two sets and checks no pair; a conflicting
        # deploy checks each deployed policy against the new one once, to
        # list the pairs in its report.
        checked = []
        original = enforcer_module.check_pair

        def counting(a, b):
            checked.append((a.name, b.name))
            return original(a, b)

        monkeypatch.setattr(enforcer_module, "check_pair", counting)
        enforcer = PolicyEnforcer()
        policies = pack.deployable()
        for policy in policies:
            enforcer.deploy(policy)
        assert checked == []
        conflict = parse((FIXTURES / "conflict-camera.pol").read_text())
        expected = reference_gate(enforcer, conflict)
        with pytest.raises(InterferenceError) as exc:
            enforcer.deploy(conflict)
        assert checked == [(p.name, conflict.name) for p in policies]
        assert len(checked) == 7
        assert exc.value.report == expected

    def test_every_ordered_pair_and_triple_of_the_policy_files(self):
        files = policy_files()
        assert len({p.name for p in files}) == len(files) == 10
        rejections = 0
        for length in (2, 3):
            for order in itertools.permutations(files, length):
                enforcer = PolicyEnforcer()
                rejections += sum(deploy_like_reference(enforcer, policy)
                                  for policy in order)
        assert rejections > 0


class TestSetEnabled:
    def test_disabled_module_is_pass_through(self):
        enforcer = PolicyEnforcer()
        handle = enforcer.deploy(release_policy())
        enforcer.set_enabled(handle, False)
        out, records = enforcer.run_enforced(FAULTY)
        assert records == []
        assert event_shapes(out) == event_shapes(FAULTY)

    def test_reenable_resets_to_initial(self):
        enforcer = PolicyEnforcer()
        handle = enforcer.deploy(release_policy())
        enforcer.on_event(Event(NEW_AR, seq=1, args=(1,)))
        assert handle.state == "1"
        enforcer.set_enabled(handle, False)
        enforcer.set_enabled(handle, True)
        assert handle.state == "0"
        assert handle.cached_ctor_args is None

    def test_enable_enabled_is_idempotent(self):
        enforcer = PolicyEnforcer()
        handle = enforcer.deploy(release_policy())
        enforcer.on_event(Event(NEW_AR, seq=1))
        enforcer.set_enabled(handle, True)
        assert handle.state == "1"

    def test_stale_handle(self):
        enforcer = PolicyEnforcer()
        other = PolicyEnforcer()
        handle = other.deploy(release_policy())
        with pytest.raises(StaleHandleError):
            enforcer.set_enabled(handle, False)

    def test_equal_handle_from_another_enforcer_is_stale(self):
        # Both modules compare equal as dataclasses; only identity tells
        # them apart.
        a, b = PolicyEnforcer(), PolicyEnforcer()
        a_handle = a.deploy(release_policy())
        b_handle = b.deploy(release_policy())
        assert a_handle == b_handle
        with pytest.raises(StaleHandleError):
            b.set_enabled(a_handle, False)
        assert a_handle.enabled and b_handle.enabled


class TestOnEvent:
    def test_forced_release_reaches_sink_in_order(self):
        enforcer = PolicyEnforcer()
        enforcer.deploy(release_policy())
        out, records = enforcer.run_enforced(FAULTY)
        sink_symbols = [e.symbol for e in enforcer.sink.events]
        assert sink_symbols == [NEW_AR, START_REC, STOP_REC, RELEASE_AR,
                                ON_STOP]
        assert len(records) == 1
        assert len(records[0].synthesized) == 2
        assert not records[0].suppressed

    def test_constructor_caches_args_and_binds_manager(self):
        enforcer = PolicyEnforcer(InstanceSink())
        handle = enforcer.deploy(release_policy())
        outcome = enforcer.on_event(Event(NEW_AR, seq=1, args=(8000, 16)))
        assert handle.cached_ctor_args == (8000, 16)
        assert handle.state == "1"
        assert enforcer.bindings.get("AudioRecord") == "AudioRecord#1"
        assert outcome.delivered[0].instance == "AudioRecord#1"

    def test_app_constructor_keeps_its_own_instance(self):
        # The sink's instance fills in an app constructor's only when the
        # app gave none; a synthesized constructor always takes the sink's.
        enforcer = PolicyEnforcer(InstanceSink())
        enforcer.deploy(release_policy())
        outcome = enforcer.on_event(Event(NEW_AR, seq=1, instance="app#7"))
        assert outcome.delivered[0].instance == "app#7"
        assert enforcer.bindings.get("AudioRecord") == "app#7"

    def test_out_of_vocabulary_event_passes_untouched(self):
        enforcer = PolicyEnforcer()
        enforcer.deploy(release_policy())
        event = Event(DOA, seq=1)
        outcome = enforcer.on_event(event)
        assert outcome.delivered == (event,)
        assert outcome.records == ()
        assert enforcer.intervention_log == []

    def test_rejects_synthesized_origin(self):
        enforcer = PolicyEnforcer()
        with pytest.raises(ValueError):
            enforcer.on_event(Event(DOA, seq=1, origin=Origin.SYNTHESIZED))

    def test_non_amplification(self, pack):
        enforcer = PolicyEnforcer()
        for policy in pack.deployable():
            enforcer.deploy(policy)
        trace = Trace.from_symbols([NEW_AR, START_REC, ON_STOP, NEW_AR,
                                    RELEASE_AR, ON_STOP])
        out, _ = enforcer.run_enforced(trace)
        app_events = [e for e in out if e.origin is Origin.APP]
        assert len(app_events) == len(trace)

    def test_synthesized_events_are_not_reoffered(self):
        # The forced-release policy synthesizes stop; if synthesized
        # events were re-dispatched, the module would step on them and
        # leave state 0 after the heal.
        enforcer = PolicyEnforcer()
        handle = enforcer.deploy(release_policy())
        enforcer.run_enforced(FAULTY)
        assert handle.state == "0"
        assert len(enforcer.intervention_log) == 1

    def test_suppression_dominates_forwarding(self, monkeypatch):
        # Two modules matching doA, one suppressing and one inserting:
        # interfering by construction, so the deploy-time gate is
        # stubbed out to let both through.
        suppressor = make_doc("suppressor", EditAutomaton(
            frozenset({"0"}), "0",
            (Transition("0", Guard.exactly(DOA), (), "0"),
             Transition("0", Guard.any_except([DOA]), (fwd(),), "0"))))
        inserter = make_doc("inserter", EditAutomaton(
            frozenset({"0"}), "0",
            (Transition("0", Guard.exactly(DOA), (fwd(), synth(DOB)), "0"),
             Transition("0", Guard.any_except([DOA]), (fwd(),), "0"))))
        monkeypatch.setattr("proactive.enforcer.check_pair",
                            lambda a, b: InterferenceReport())
        enforcer = PolicyEnforcer()
        for policy in (suppressor, inserter):
            enforcer.deploy(policy)
        outcome = enforcer.on_event(Event(DOA, seq=1))
        assert outcome.suppressed
        delivered_symbols = [e.symbol for e in outcome.delivered]
        assert DOA not in delivered_symbols
        assert DOB in delivered_symbols
        assert {r.policy for r in outcome.records} == {"suppressor",
                                                       "inserter"}

    def test_healing_failure_surfaces_with_attribution(self):
        enforcer = PolicyEnforcer(FailingSink())
        handle = enforcer.deploy(release_policy())
        enforcer.on_event(Event(NEW_AR, seq=1))
        enforcer.on_event(Event(START_REC, seq=2))
        with pytest.raises(HealingFailureError) as exc:
            enforcer.on_event(Event(ON_STOP, seq=3))
        assert exc.value.policy == "forced-release"
        assert exc.value.event.symbol == STOP_REC
        assert handle.state == "2"
        assert enforcer.intervention_log == []

    def test_retry_after_a_failed_heal_reruns_the_whole_heal(self):
        # The contract: a retry re-runs the whole heal, so the sink sees
        # the synthesized stop twice; SimWorld tolerates the repeat.
        world = ReleaseRejectingWorld("HearHere")
        enforcer = PolicyEnforcer(world)
        handle = enforcer.deploy(release_policy())
        lifecycle = [ActionSymbol.callback(m)
                     for m in ("onCreate", "onStart", "onResume", "onPause")]
        for symbol in lifecycle[:3] + [NEW_AR, START_REC, lifecycle[3]]:
            enforcer.on_event(Event(symbol, seq=world.next_seq()))
        stop = Event(ON_STOP, seq=world.next_seq())
        with pytest.raises(HealingFailureError) as exc:
            enforcer.on_event(stop)
        assert exc.value.event.symbol == RELEASE_AR
        assert handle.state == "2" and enforcer.intervention_log == []
        outcome = enforcer.on_event(stop)
        assert [e.symbol for e in world.trace] == lifecycle[:3] + [
            NEW_AR, START_REC, lifecycle[3],
            STOP_REC, STOP_REC, RELEASE_AR, ON_STOP]
        assert [e.symbol for e in outcome.delivered] \
            == [STOP_REC, RELEASE_AR, ON_STOP]
        assert handle.state == "0" and len(enforcer.intervention_log) == 1
        assert not world.resources["AudioRecord"].held
        assert world.leak_report().leaks == ()

    def test_synthesized_constructor_rebinds_manager(self, pack):
        enforcer = PolicyEnforcer(InstanceSink())
        enforcer.deploy(pack.policies["hearhere-audiorecord-release"])
        script = ((NEW_AR, (8000, 16, 2, 1024, 0)), (START_REC, ()),
                  (ON_STOP, ()))
        for seq, (symbol, args) in enumerate(script, start=1):
            enforcer.on_event(Event(symbol, seq=seq, args=args))
        first = enforcer.bindings.get("AudioRecord")
        enforcer.on_event(Event(ON_RESTART, seq=4))
        second = enforcer.bindings.get("AudioRecord")
        assert first != second
        recreated = [e for e in enforcer.sink.events
                     if e.symbol == NEW_AR and e.origin is Origin.SYNTHESIZED]
        assert recreated and recreated[0].args == (8000, 16, 2, 1024, 0)

    def test_bound_constructor_keeps_every_other_field(self, pack):
        # Binding the sink's instance rebuilds the event: for an app
        # constructor that gave none and for a synthesized one, only the
        # instance may differ from the event the sink executed.
        enforcer = PolicyEnforcer(InstanceSink())
        enforcer.deploy(pack.policies["hearhere-audiorecord-release"])
        script = ((NEW_AR, (8000, 16, 2, 1024, 0)), (START_REC, ()),
                  (ON_STOP, ()), (ON_RESTART, ()))
        delivered = []
        for seq, (symbol, args) in enumerate(script, start=1):
            outcome = enforcer.on_event(Event(symbol, seq=seq, args=args))
            delivered.extend(outcome.delivered)
        executed = enforcer.sink.events
        assert len(executed) == len(delivered)
        bound = [(sent, out) for sent, out in zip(executed, delivered)
                 if out.symbol == NEW_AR]
        assert [(out.origin, out.instance) for _, out in bound] == [
            (Origin.APP, "AudioRecord#1"), (Origin.SYNTHESIZED, "AudioRecord#2")]
        for sent, out in bound:
            assert out == replace(sent, instance=out.instance)

    def test_forward_only_event_takes_no_step(self, pack, instantiations):
        enforcer, _ = deploy_pack(pack)
        event = Event(ON_PAUSE, seq=1)
        assert len(enforcer.watchers[ON_PAUSE]) == 3
        outcome = enforcer.on_event(event)
        assert instantiations == []
        assert outcome.delivered == (event,)
        assert enforcer.sink.events == [event]
        assert outcome.records == () and not outcome.suppressed
        assert enforcer.intervention_log == []

    def test_editing_event_steps_once_per_editing_module(self, pack,
                                                         instantiations):
        # Each editing module instantiates the template of its own move
        # exactly once, in policy-name order; the forward-only sensor
        # module instantiates none.
        enforcer, handles = deploy_pack(pack)
        enforcer.on_event(Event(CAMERA_OPEN, seq=1))
        enforcer.on_event(Event(REQUEST_UPDATES, seq=2))
        assert instantiations == []
        editing = [handles["foocam-camera-open-release"],
                   handles["getbackgps-location-updates"]]
        templates = [m.policy.automaton.moves[ON_PAUSE][m.state][1]
                     for m in editing]
        outcome = enforcer.on_event(Event(ON_PAUSE, seq=3))
        assert len(instantiations) == 2
        assert all(a is b for a, b in zip(instantiations, templates))
        assert {r.policy for r in outcome.records} \
            == {m.policy.name for m in editing}
        assert [m.state for m in editing] == ["0", "0"]
        assert handles["getbackgps-sensor-listener"].state == "0"

    def test_records_follow_policy_names_under_either_deploy_order(self, pack):
        # Both modules heal onPause; their records, the log and their
        # synthesized events come out in policy-name order either way.
        names = ["foocam-camera-open-release", "getbackgps-location-updates"]
        for order in (names, names[::-1]):
            enforcer = PolicyEnforcer()
            for name in order:
                enforcer.deploy(pack.policies[name])
            enforcer.on_event(Event(CAMERA_OPEN, seq=1))
            enforcer.on_event(Event(REQUEST_UPDATES, seq=2))
            outcome = enforcer.on_event(Event(ON_PAUSE, seq=3))
            assert [r.policy for r in outcome.records] == names
            assert [r.policy for r in enforcer.intervention_log] == names
            assert [(e.symbol, e.origin) for e in outcome.delivered] == [
                (ActionSymbol.call("Camera", "release"), Origin.SYNTHESIZED),
                (ActionSymbol.call("LocationManager", "removeUpdates"),
                 Origin.SYNTHESIZED),
                (ON_PAUSE, Origin.APP)]

    def test_forward_only_constructor_caches_its_args(self, pack,
                                                      instantiations):
        enforcer = PolicyEnforcer(InstanceSink())
        handle = enforcer.deploy(pack.policies["hearhere-audiorecord-release"])
        args = (8000, 16, 2, 1024, 0)
        enforcer.on_event(Event(NEW_AR, seq=1, args=args))
        assert instantiations == []
        assert (handle.state, handle.cached_ctor_args) == ("1", args)
        moves = handle.policy.automaton.moves
        expected = [moves[ON_STOP]["2"][1], moves[ON_RESTART]["suspended"][1]]
        for seq, symbol in enumerate((START_REC, ON_STOP, ON_RESTART), start=2):
            enforcer.on_event(Event(symbol, seq=seq))
        assert len(instantiations) == 2
        assert all(a is b for a, b in zip(instantiations, expected))
        recreated = [e for e in enforcer.sink.events
                     if e.symbol == NEW_AR and e.origin is Origin.SYNTHESIZED]
        assert [e.args for e in recreated] == [args]

    def test_unmatched_vocabulary_symbol_signals_skipped_validation(self):
        # Incomplete by construction: nothing matches doA in state 1, and
        # doB, which the template inserts, is matched in no state.
        enforcer = PolicyEnforcer()
        enforcer.deploy(make_doc("incomplete", EditAutomaton(
            frozenset({"0", "1"}), "0",
            (Transition("0", Guard.exactly(DOA), (fwd(), synth(DOB)), "1"),))))
        with pytest.raises(MissingTransitionError):
            enforcer.on_event(Event(DOB, seq=1))
        enforcer.on_event(Event(DOA, seq=2))
        with pytest.raises(MissingTransitionError):
            enforcer.on_event(Event(DOA, seq=3))

    def test_disabled_module_does_not_move_on_the_fast_path(self, pack,
                                                            instantiations):
        enforcer, handles = deploy_pack(pack)
        camera = handles["foocam-camera-open-release"]
        enforcer.set_enabled(camera, False)
        commits = watch_commits(enforcer)
        event = Event(CAMERA_OPEN, seq=1)
        assert enforcer.on_event(event).delivered == (event,)
        assert commits == []
        assert camera.state == "0"
        enforcer.set_enabled(camera, True)
        enforcer.on_event(Event(CAMERA_OPEN, seq=2))
        assert camera.state == "1"
        assert instantiations == []


def post_insert_policy():
    """Forwards doA, then inserts doB after it, once."""
    return make_doc("post-insert", EditAutomaton(
        frozenset({"0", "1"}), "0",
        (Transition("0", Guard.exactly(DOA), (fwd(), synth(DOB)), "1"),
         Transition("0", Guard.any_except([DOA]), (fwd(),), "0"),
         Transition("1", Guard.any(), (fwd(),), "1"))))


class TestHealingFailureAttribution:
    """Which failure a heal reports, and what it leaves behind."""

    HEALERS = ("foocam-camera-open-release", "getbackgps-location-updates")

    def heal_on_pause(self, pack, sink):
        """Both HEALERS armed, then onPause offered: each inserts its
        cleanup before the callback, in policy-name order."""
        enforcer = PolicyEnforcer(sink)
        handles = [enforcer.deploy(pack.policies[name]) for name in self.HEALERS]
        enforcer.on_event(Event(CAMERA_OPEN, seq=1))
        enforcer.on_event(Event(REQUEST_UPDATES, seq=2))
        armed = [(h.state, h.cached_ctor_args) for h in handles]
        assert [h.state for h in handles] != ["0", "0"]
        with pytest.raises(Exception) as exc:
            enforcer.on_event(Event(ON_PAUSE, seq=3))
        assert [(h.state, h.cached_ctor_args) for h in handles] == armed
        assert enforcer.intervention_log == []
        return exc.value, [(e.symbol, e.origin) for e in sink.events[2:]]

    def test_rejected_post_input_item_names_its_policy(self):
        enforcer = PolicyEnforcer(FailingSink())
        handle = enforcer.deploy(post_insert_policy())
        event = Event(DOA, seq=1)
        with pytest.raises(HealingFailureError) as exc:
            enforcer.on_event(event)
        assert exc.value.policy == "post-insert"
        assert (exc.value.event.symbol, exc.value.event.origin) \
            == (DOB, Origin.SYNTHESIZED)
        assert isinstance(exc.value.cause, RuntimeError)
        assert enforcer.sink.events == [event]
        assert handle.state == "0" and enforcer.intervention_log == []

    @pytest.mark.parametrize("rejected, policy", [
        (CAMERA_RELEASE, "foocam-camera-open-release"),
        (REMOVE_UPDATES, "getbackgps-location-updates")])
    def test_failed_item_names_the_module_that_inserted_it(self, pack,
                                                          rejected, policy):
        failure, executed = self.heal_on_pause(pack, SymbolRejectingSink(rejected))
        assert isinstance(failure, HealingFailureError)
        assert failure.policy == policy
        assert failure.event.symbol == rejected
        assert isinstance(failure.cause, Rejected)
        inserted = [(CAMERA_RELEASE, Origin.SYNTHESIZED),
                    (REMOVE_UPDATES, Origin.SYNTHESIZED)]
        assert executed == inserted[:inserted.index((rejected, Origin.SYNTHESIZED))]

    def test_rejected_app_event_raises_the_sinks_own_error(self, pack):
        failure, executed = self.heal_on_pause(pack, SymbolRejectingSink(ON_PAUSE))
        assert type(failure) is Rejected
        assert failure.__cause__ is None and failure.__context__ is None
        assert executed == [(CAMERA_RELEASE, Origin.SYNTHESIZED),
                            (REMOVE_UPDATES, Origin.SYNTHESIZED)]


def on_stop_policy(name, item):
    return parse(f"""policy {name}
statement "on onStop, {item}"
target Api
states 0
initial 0
on callback onStop from 0 to 0 emit {item}, input
on any-except {{callback onStop}} from 0 to 0 emit input
""")


class TestAuthoringErrorAttribution:
    @pytest.mark.parametrize("uncached, other", [("a-stop", "b-release"),
                                                 ("b-stop", "a-release")])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["uncached-first", "other-first"])
    def test_names_the_module_whose_template_raised(self, uncached, other,
                                                    reverse):
        # Both modules edit onStop; only one template reads cached args.
        policies = [on_stop_policy(uncached, "insert call AudioRecord.stop args cached"),
                    on_stop_policy(other, "insert call Camera.release")]
        enforcer = PolicyEnforcer()
        for policy in reversed(policies) if reverse else policies:
            enforcer.deploy(policy)
        with pytest.raises(PolicyAuthoringError) as exc:
            enforcer.on_event(Event(ON_STOP, seq=1))
        assert exc.value.policy == uncached
        assert str(exc.value) == (
            "template synthesizes call AudioRecord.stop with cached constructor "
            "args, but no constructor has been intercepted yet")
        assert enforcer.sink.events == [] and enforcer.intervention_log == []


class TestFastPathCommits:
    """A forward-only move commits only what it changes; a disabled module
    commits nothing (TestOnEvent.test_disabled_module_does_not_move_on_the_fast_path)."""

    HEARHERE = "hearhere-audiorecord-release"
    CAMERA = "foocam-camera-open-release"

    def test_forward_only_self_loop_on_a_call_commits_nothing(self, pack):
        enforcer, handles = deploy_pack(pack)
        hearhere = handles[self.HEARHERE]
        cached = (8000, 16, 2, 1024, 0)
        hearhere.state, hearhere.cached_ctor_args = "1", cached
        assert hearhere.policy.automaton.moves[STOP_REC]["1"] == ("1", None)
        commits = watch_commits(enforcer)
        event = Event(STOP_REC, seq=1)
        assert enforcer.on_event(event) == ((event,), (), False)
        assert commits == []
        assert hearhere.state == "1" and hearhere.cached_ctor_args is cached
        assert enforcer.sink.events == [event]

    def test_forward_only_state_change_commits(self, pack):
        enforcer, handles = deploy_pack(pack)
        commits = watch_commits(enforcer)
        enforcer.on_event(Event(CAMERA_OPEN, seq=1))
        assert commits == [(self.CAMERA, "state", "1"),
                           (self.CAMERA, "cached_ctor_args", None)]
        assert handles[self.CAMERA].state == "1"
        # From 1, open is a self-loop: nothing more is committed.
        enforcer.on_event(Event(CAMERA_OPEN, seq=2))
        assert len(commits) == 2

    def test_forward_only_constructor_self_loop_caches_its_args(self, pack):
        enforcer, handles = deploy_pack(pack)
        hearhere = handles[self.HEARHERE]
        hearhere.state, hearhere.cached_ctor_args = "1", (8000,)
        assert hearhere.policy.automaton.moves[NEW_AR]["1"] == ("1", None)
        commits = watch_commits(enforcer)
        args = (44100, 16, 2, 4096, 0)
        enforcer.on_event(Event(NEW_AR, seq=1, args=args))
        assert commits == [(self.HEARHERE, "state", "1"),
                           (self.HEARHERE, "cached_ctor_args", args)]
        assert (hearhere.state, hearhere.cached_ctor_args) == ("1", args)


class TestHotPathBytecode:
    """Dispatch reads enum members from module globals: on CPython 3.11 a
    `Kind.X` or `Origin.X` read runs EnumType.__getattr__, about 120 ns."""

    @staticmethod
    def loaded_globals(code) -> set[str]:
        names = {i.argval for i in dis.get_instructions(code)
                 if i.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                names |= TestHotPathBytecode.loaded_globals(const)
        return names

    @pytest.mark.parametrize("function", [
        PolicyEnforcer.on_event, PolicyEnforcer._execute,
        instantiate])
    def test_loads_no_enum_class(self, function):
        loaded = self.loaded_globals(function.__code__)
        assert loaded, function
        assert not loaded & {"Kind", "Origin"}, function.__qualname__


class TestEnforcementOutcome:
    def test_is_a_delivered_records_suppressed_tuple(self):
        assert EnforcementOutcome._fields == ("delivered", "records",
                                              "suppressed")
        event = Event(DOA, seq=1)
        outcome = PolicyEnforcer().on_event(event)
        delivered, records, suppressed = outcome
        assert outcome == ((event,), (), False)
        assert (delivered, records, suppressed) \
            == (outcome.delivered, outcome.records, outcome.suppressed)


class TestCopiedSymbols:
    def test_a_copied_symbol_dispatches_like_the_original(self, pack):
        vocabulary = set().union(*(p.automaton.vocabulary
                                   for p in pack.deployable()))
        interventions = 0
        for seed in range(30):
            trace = random_trace(random.Random(seed), vocabulary, max_len=80)
            original = PolicyEnforcer(InstanceSink())
            copied = PolicyEnforcer(InstanceSink())
            for policy in pack.deployable():
                original.deploy(policy)
                copied.deploy(policy)
            for event in trace:
                clone = copy.deepcopy(event)
                assert clone.symbol is event.symbol
                assert copied.on_event(clone) == original.on_event(event)
                assert [(m.state, m.cached_ctor_args) for m in copied.modules] \
                    == [(m.state, m.cached_ctor_args) for m in original.modules]
            interventions += len(original.intervention_log)
        assert interventions > 0


def outcome_or_failure(enforcer, event):
    """What on_event returned, or the comparable parts of what it raised."""
    try:
        return enforcer.on_event(event)
    except HealingFailureError as exc:
        return (HealingFailureError, exc.policy, exc.event, type(exc.cause),
                str(exc.cause))
    except (Rejected, PolicyAuthoringError) as exc:
        return (type(exc), str(exc))


def enforcer_state(enforcer):
    return (enforcer.intervention_log, enforcer.sink.events,
            [(m.state, m.cached_ctor_args, m.enabled) for m in enforcer.modules],
            enforcer.bindings)


class TestMatchesTwoPassReference:
    """The one-pass on_event against the two-pass ReferenceEnforcer, on
    random policy sets the gate accepts, random traces and a sink that
    rejects a seeded subset of the events it is offered."""

    def test_random_policy_sets_under_a_rejecting_sink(self):
        rng = random.Random(14)
        docs = [random_policy_doc(seed) for seed in range(200)]
        sets = {2: [], 3: []}
        while len(sets[2]) < 60 or len(sets[3]) < 60:
            size = rng.choice([n for n in sets if len(sets[n]) < 60])
            chosen = rng.sample(docs, size)
            if check_set(chosen).ok:
                sets[size].append(chosen)
        seen = collections.Counter()
        for n, policies in enumerate(sets[2] + sets[3]):
            enforcers = [cls(SeededRejectingSink(n, rate=0.1))
                         for cls in (PolicyEnforcer, ReferenceEnforcer)]
            for enforcer in enforcers:
                for policy in policies:
                    enforcer.deploy(policy)
            vocabulary = frozenset().union(*(p.automaton.vocabulary
                                             for p in policies))
            for event in random_trace(rng, vocabulary, max_len=50, extra=[DOX]):
                if rng.random() < 0.05:
                    index, on = rng.randrange(len(policies)), rng.random() < 0.5
                    for enforcer in enforcers:
                        enforcer.set_enabled(enforcer.modules[index], on)
                executed = len(enforcers[0].sink.events)
                one_pass, two_pass = (outcome_or_failure(e, event)
                                      for e in enforcers)
                assert one_pass == two_pass, (n, event)
                assert enforcer_state(enforcers[0]) == enforcer_state(enforcers[1])
                if isinstance(one_pass, EnforcementOutcome):
                    seen["records"] += len(one_pass.records)
                    seen["suppressed"] += one_pass.suppressed
                else:
                    seen[one_pass[0]] += 1
                    # The app event rejected after inserted events executed.
                    seen["rejected mid-heal"] += (
                        one_pass[0] is Rejected
                        and len(enforcers[0].sink.events) > executed)
        assert min(seen[k] for k in (HealingFailureError, Rejected,
                                     PolicyAuthoringError, "records",
                                     "suppressed", "rejected mid-heal")) > 0, seen


class TestRunEnforced:
    def test_empty_trace(self):
        enforcer = PolicyEnforcer()
        enforcer.deploy(release_policy())
        out, records = enforcer.run_enforced(Trace())
        assert len(out) == 0 and records == []

    def test_compliant_trace_unchanged(self):
        enforcer = PolicyEnforcer()
        enforcer.deploy(release_policy())
        compliant = Trace.from_symbols([NEW_AR, START_REC, STOP_REC,
                                        RELEASE_AR, ON_STOP])
        out, records = enforcer.run_enforced(compliant)
        assert records == []
        assert event_shapes(out) == event_shapes(compliant)

    def test_manager_transparency_without_interventions(self):
        compliant = Trace.from_symbols([NEW_AR, START_REC, STOP_REC,
                                        RELEASE_AR, ON_STOP])
        enforcer = PolicyEnforcer()
        enforcer.deploy(release_policy())
        enforcer.run_enforced(compliant)
        bare = RecordingSink()
        for event in compliant:
            bare.execute(event)
        assert event_shapes(enforcer.sink.events) == event_shapes(bare.events)
