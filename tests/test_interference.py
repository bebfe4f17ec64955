import itertools

from proactive.automata import EditAutomaton, Guard, OutputItem, Transition
from proactive.dsl import parse
from proactive.interference import Direction, InterferencePair, check_pair, check_set

from helpers import (
    DOA,
    FIXTURES,
    NEW_AR,
    RELEASE_AR,
    forced_release_automaton,
    fwd,
    make_doc,
    policy_files,
    random_policy_doc,
    reference_check_pair,
)


def forwarder(name, symbol, target="Api"):
    automaton = EditAutomaton(
        frozenset({"0"}), "0",
        (Transition("0", Guard.exactly(symbol), (fwd(),), "0"),
         Transition("0", Guard.any_except([symbol]), (fwd(),), "0")))
    return make_doc(name, automaton, target)


def inserter(name, trigger, inserted):
    automaton = EditAutomaton(
        frozenset({"0"}), "0",
        (Transition("0", Guard.exactly(trigger),
                    (fwd(), OutputItem(inserted)), "0"),
         Transition("0", Guard.any_except([trigger]), (fwd(),), "0")))
    return make_doc(name, automaton)


class TestCheckPair:
    def test_disjoint_vocabularies_do_not_interfere(self):
        a = forwarder("a", DOA)
        b = forwarder("b", NEW_AR, "AudioRecord")
        assert check_pair(a, b).ok

    def test_insertion_into_other_vocabulary(self):
        a = inserter("a", DOA, RELEASE_AR)
        b = forwarder("b", RELEASE_AR, "AudioRecord")
        report = check_pair(a, b)
        assert len(report.pairs) == 1
        pair = report.pairs[0]
        assert pair.direction is Direction.A_INSERTS_INTO_B
        assert pair.symbols == frozenset({RELEASE_AR})

    def test_shared_forwarded_callback_is_not_interference(self, pack):
        location = pack.policies["getbackgps-location-updates"]
        sensor = pack.policies["getbackgps-sensor-listener"]
        assert check_pair(location, sensor).ok

    def test_symmetry(self):
        a = inserter("a", DOA, RELEASE_AR)
        b = make_doc("b", forced_release_automaton(), "AudioRecord")
        forward = check_pair(a, b)
        backward = check_pair(b, a)
        mirror = {Direction.A_INSERTS_INTO_B: Direction.B_INSERTS_INTO_A,
                  Direction.A_SUPPRESSES_FROM_B: Direction.B_SUPPRESSES_FROM_A,
                  Direction.B_INSERTS_INTO_A: Direction.A_INSERTS_INTO_B,
                  Direction.B_SUPPRESSES_FROM_A: Direction.A_SUPPRESSES_FROM_B}
        assert {InterferencePair(p.policy_b, p.policy_a, mirror[p.direction],
                                 p.symbols) for p in forward.pairs} == set(backward.pairs)

    def test_suppression_direction(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (Transition("0", Guard.exactly(DOA), (), "0"),
             Transition("0", Guard.any_except([DOA]), (fwd(),), "0")))
        a = make_doc("a", automaton)
        b = forwarder("b", DOA)
        directions = {p.direction for p in check_pair(a, b).pairs}
        assert directions == {Direction.A_SUPPRESSES_FROM_B}


class TestCheckSet:
    def test_singleton(self):
        assert check_set([forwarder("a", DOA)]).ok

    def test_deployable_pack_is_clean(self, pack):
        assert check_set(pack.deployable()).ok

    def test_conflicting_fixture_names_the_camera_policy(self, pack):
        conflict = parse((FIXTURES / "conflict-camera.pol").read_text())
        report = check_set(pack.deployable() + [conflict])
        assert not report.ok
        names = {p.policy_a for p in report.pairs} | \
                {p.policy_b for p in report.pairs}
        assert "foocam-camera-open-release" in names
        symbols = {str(s) for p in report.pairs for s in p.symbols}
        assert "call Camera.release" in symbols

    def test_report_rendering(self, pack):
        conflict = parse((FIXTURES / "conflict-camera.pol").read_text())
        report = check_set([pack.policies["foocam-camera-open-release"],
                            conflict])
        assert "call Camera.release" in str(report)
        assert str(check_set(pack.deployable())) == "no interference"


class TestCheckPairMatchesFourIntersections:
    def test_every_pair_of_policy_files_and_random_policies(self):
        # The disjointness test must return early exactly when all four
        # directed intersections are empty.
        files = policy_files()
        randoms = [random_policy_doc(seed) for seed in range(200)]
        outcomes = set()
        for a, b in itertools.chain(itertools.permutations(files, 2),
                                    itertools.permutations(randoms, 2)):
            expected = reference_check_pair(a, b)
            assert check_pair(a, b) == expected, (a.name, b.name)
            outcomes.add(expected.ok)
        assert outcomes == {True, False}
