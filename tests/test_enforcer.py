import pytest

import proactive.enforcer as enforcer_module
from proactive.automata import (
    EditAutomaton,
    Event,
    Guard,
    Origin,
    Trace,
    Transition,
)
from proactive.dsl import parse
from proactive.interference import InterferenceReport
from proactive.enforcer import (
    DuplicatePolicyError,
    HealingFailureError,
    InterferenceError,
    PolicyEnforcer,
    RecordingSink,
    StaleHandleError,
)

from helpers import (
    DOA,
    DOB,
    FIXTURES,
    NEW_AR,
    ON_STOP,
    RELEASE_AR,
    START_REC,
    STOP_REC,
    event_shapes,
    forced_release_automaton,
    fwd,
    make_doc,
    random_policy_doc,
    reference_gate,
    synth,
)

FAULTY = Trace.from_symbols([NEW_AR, START_REC, ON_STOP])


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
        checked = []
        original = enforcer_module.check_pair

        def counting(a, b):
            checked.append(frozenset({a.name, b.name}))
            return original(a, b)

        monkeypatch.setattr(enforcer_module, "check_pair", counting)
        enforcer = PolicyEnforcer()
        policies = pack.deployable()
        for policy in policies:
            enforcer.deploy(policy)
        n = len(policies)
        assert len(checked) == n * (n - 1) // 2 == 21
        assert len(set(checked)) == len(checked)


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
        assert enforcer.manager.lookup("AudioRecord") == "AudioRecord#1"
        assert outcome.delivered[0].instance == "AudioRecord#1"

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

    def test_synthesized_constructor_rebinds_manager(self, pack):
        from proactive.automata import ActionSymbol
        enforcer = PolicyEnforcer(InstanceSink())
        enforcer.deploy(pack.policies["hearhere-audiorecord-release"])
        script = ((NEW_AR, (8000, 16, 2, 1024, 0)), (START_REC, ()),
                  (ON_STOP, ()))
        for seq, (symbol, args) in enumerate(script, start=1):
            enforcer.on_event(Event(symbol, seq=seq, args=args))
        first = enforcer.manager.lookup("AudioRecord")
        enforcer.on_event(Event(ActionSymbol.callback("onRestart"), seq=4))
        second = enforcer.manager.lookup("AudioRecord")
        assert first != second
        recreated = [e for e in enforcer.sink.events
                     if e.symbol == NEW_AR and e.origin is Origin.SYNTHESIZED]
        assert recreated and recreated[0].args == (8000, 16, 2, 1024, 0)


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
