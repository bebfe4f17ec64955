"""The benchmark's workloads: inputs, set-up, one session, and the checks
every session must pass.

A session does what `proactive.cli.run_one` does: a fresh
PolicyEnforcer, a deploy of every policy in the workload, the replay of
one app session, then the leak report.  The replay mirrors
`proactive.sim.run_scenario`'s dispatch so that each `on_event` call
can be timed on its own.

Each run replays a pool of sessions chosen by its seed from a fixed
universe of session keys; perfbench/reference.json holds a digest for
every key.  Pools are stratified by session length, so every seed's pool
holds the same amount of work and runs with different seeds compare.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns

from proactive import cli, dsl, interference
from proactive import pack as packs
from proactive.automata import ActionSymbol, Event, Kind, Origin, Trace, violations
from proactive.enforcer import PolicyEnforcer, RecordingSink
from proactive.sim import APP_BUTTONS, SimWorld, lifecycle_callbacks

import sessions
from sessions import APP, Session

# Steps replayed between two plain-replay chunks.  Interleaving keeps the
# enforced and the plain timing of the same events close in time, so a
# change in the shared host's speed cancels out of overhead_ratio.
CHUNK_STEPS = 64

# Iterations of the host-speed probe: about 0.1 ms on the host this
# benchmark was tuned on.
PROBE_ITERATIONS = 100
# Deploy time between two probes, so a long deploy is probed throughout.
PROBE_EVERY_NS = 20_000_000

_CALLBACKS: dict[str, ActionSymbol] = {}


def _callback(method: str) -> ActionSymbol:
    symbol = _CALLBACKS.get(method)
    if symbol is None:
        symbol = _CALLBACKS[method] = ActionSymbol.callback(method)
    return symbol


@dataclass
class SessionResult:
    app_events: int
    deploy_ns: int
    replay_ns: int
    leak_report_ns: int
    latencies: list[int]
    # (app events, replay ns, plain ns, probe ns after the chunk)
    chunks: list[tuple[int, int, int, int]]
    # (session ns, probe ns after them): deploy, replay and leak report
    # time split at every host-speed probe
    segments: list[tuple[int, int]]
    interventions: int
    synthesized: int
    digest: str
    failures: list[str] = field(default_factory=list)

    @property
    def session_ns(self) -> int:
        return self.deploy_ns + self.replay_ns + self.leak_report_ns


@dataclass(frozen=True)
class _ProbeItem:
    n: int
    key: tuple


def probe_ns() -> int:
    """Time a fixed pure-Python job of the kind the program does (small
    frozen objects, tuple hashing, dict updates), with the collector off
    so the program's garbage cannot slow it.  The job never changes, so
    its time measures the shared host's speed at that moment."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter_ns()
    table: dict[tuple, int] = {}
    kept = 0
    for i in range(PROBE_ITERATIONS):
        key = (i & 31, "k")
        table[key] = table.get(key, 0) + 1
        item = _ProbeItem(i, key)
        if item.key in table and item.n & 1:
            kept += 1
    elapsed = perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def shapes(events) -> list[tuple]:
    return [(e.symbol, e.seq, e.instance, e.args, e.origin) for e in events]


def digest(events, leaks) -> str:
    """Stable digest of an executed trace and its leak report."""
    h = hashlib.blake2b(digest_size=8)
    for e in events:
        h.update(f"{e.seq} {e.origin.value} {e.symbol} {e.instance} "
                 f"{e.args}\n".encode())
    for leak in leaks:
        h.update(f"leak {leak.interface} {leak.holder} {leak.acquired_at} "
                 f"{leak.checkpoint.value}\n".encode())
    return h.hexdigest()


def _replay_world(steps, on_event, world: SimWorld, offered: list,
                  latencies: list, outcomes: list) -> None:
    clock = perf_counter_ns
    for step in steps:
        command = step.command
        if command == "call":
            actions = ((step.symbol, step.args),)
        elif command == "tap":
            actions = APP_BUTTONS[(APP, step.button)]
        else:
            actions = [(_callback(m), ())
                       for m in lifecycle_callbacks(world.state, command)]
        for symbol, args in actions:
            instance = (world.current_instance(symbol.interface)
                        if symbol.kind is Kind.API_CALL else None)
            event = Event(symbol, world.next_seq(), instance, args, Origin.APP)
            start = clock()
            outcomes.append(on_event(event))
            latencies.append(clock() - start)
            offered.append(event)


def _replay_flat(steps, on_event, offered: list, latencies: list,
                 outcomes: list) -> None:
    """Replay onto a sink without activity state: every step is a call
    (lifecycle commands were expanded when the session was generated)."""
    clock = perf_counter_ns
    for seq, step in enumerate(steps, start=len(offered) + 1):
        event = Event(step.symbol, seq, None, step.args, Origin.APP)
        start = clock()
        outcomes.append(on_event(event))
        latencies.append(clock() - start)
        offered.append(event)


class Workload:
    name = ""
    uses_world = True          # SimWorld sink; otherwise a RecordingSink
    plain_from_offered = False  # plain replay of the app events, not the delivered ones

    def make_inputs(self, seed: int):
        """Inputs that set-up reads; generated before any timing."""
        return None

    def setup(self, inputs) -> list:
        """Read, parse and validate the policies and check the set once."""
        raise NotImplementedError

    def universe(self) -> list[str]:
        """Every session key a pool can hold."""
        raise NotImplementedError

    def pool(self, seed: int) -> list[str]:
        """The session keys one run replays, in order."""
        raise NotImplementedError

    def session(self, key: str) -> Session:
        raise NotImplementedError

    def run_session(self, policies: list, session: Session, key: str,
                    reference: dict | None) -> SessionResult:
        offered: list[Event] = []
        latencies: list[int] = []
        outcomes: list = []
        clock = perf_counter_ns

        segments = []
        deploy_ns = pending = 0
        t0 = clock()
        enforcer = PolicyEnforcer()
        for policy in policies:
            enforcer.deploy(policy)
            t1 = clock()
            deploy_ns += t1 - t0
            pending += t1 - t0
            if pending >= PROBE_EVERY_NS:
                segments.append((pending, probe_ns()))
                pending = 0
            t0 = clock()
        segments.append((pending, probe_ns()))

        if self.uses_world:
            sink, plain = SimWorld(APP), SimWorld(APP)
        else:
            sink, plain = RecordingSink(), RecordingSink()
        enforcer.sink = sink
        replay_ns = 0
        chunks = []
        plain_execute = plain.execute
        steps = session.steps
        for lo in range(0, len(steps), CHUNK_STEPS):
            first_offered, first_outcome = len(offered), len(outcomes)
            c0 = clock()
            if self.uses_world:
                _replay_world(steps[lo:lo + CHUNK_STEPS], enforcer.on_event,
                              sink, offered, latencies, outcomes)
            else:
                _replay_flat(steps[lo:lo + CHUNK_STEPS], enforcer.on_event,
                             offered, latencies, outcomes)
            chunk_ns = clock() - c0
            if self.plain_from_offered:
                chunk = offered[first_offered:]
            else:
                chunk = [e for outcome in outcomes[first_outcome:]
                         for e in outcome.delivered]
            p0 = clock()
            for event in chunk:
                plain_execute(event)
            chunk_plain_ns = clock() - p0
            probe = probe_ns()
            segments.append((chunk_ns, probe))
            chunks.append((len(offered) - first_offered, chunk_ns,
                           chunk_plain_ns, probe))
            replay_ns += chunk_ns

        if self.uses_world:
            l0 = clock()
            leaks = sink.leak_report().leaks
            leak_report_ns = clock() - l0
            segments.append((leak_report_ns, segments[-1][1]))
            executed, plain_trace = sink.trace, plain.trace
        else:
            leaks, leak_report_ns = (), 0
            executed, plain_trace = sink.events, plain.events

        records = enforcer.intervention_log
        result = SessionResult(
            app_events=len(offered), deploy_ns=deploy_ns, replay_ns=replay_ns,
            leak_report_ns=leak_report_ns, latencies=latencies,
            chunks=chunks, segments=segments,
            interventions=len(records),
            synthesized=sum(len(r.synthesized) for r in records),
            digest=digest(executed, leaks))
        failures = result.failures

        if len(offered) != session.app_events:
            failures.append(f"offered {len(offered)} app events, "
                            f"generator planned {session.app_events}")
        per_policy = Counter(r.policy for r in records)
        offered_trace = Trace(tuple(offered))
        for policy in policies:
            expected = len(violations(policy.automaton, offered_trace))
            if per_policy[policy.name] != expected:
                failures.append(f"{policy.name}: {per_policy[policy.name]} "
                                f"interventions, checker reports {expected}")
        delivered = [e for outcome in outcomes for e in outcome.delivered]
        if shapes(delivered) != shapes(executed):
            failures.append("delivered events differ from the sink's trace")
        if shapes(plain_trace) != shapes(executed):
            failures.append("plain replay differs from the enforced trace")
        if reference is not None and reference.get(key) != result.digest:
            failures.append(f"digest {result.digest} does not match the "
                            f"reference for session {key}")
        failures.extend(self.extra_checks(result, offered, delivered, leaks))
        return result

    def extra_checks(self, result, offered, delivered, leaks) -> list[str]:
        return []


def _stratified(classes, per_class: int, universe_per_class: int,
                name: str, seed: int) -> list[str]:
    """`per_class` seeds of every length class, drawn by the run seed."""
    rng = random.Random(f"pool/{name}/{seed}")
    keys = [f"{c}/{s}" for c in classes
            for s in rng.sample(range(universe_per_class), per_class)]
    rng.shuffle(keys)
    return keys


class PackHeal(Workload):
    name = "pack-heal"
    classes = range(6, 17)     # length classes: steps between launch and destroy
    per_class, universe_per_class = 8, 96

    def setup(self, inputs) -> list:
        return packs.load_pack(packs.bundled_pack_dir()).deployable()

    def universe(self) -> list[str]:
        return [f"{c}/{s}" for c in self.classes
                for s in range(self.universe_per_class)]

    def pool(self, seed: int) -> list[str]:
        return _stratified(self.classes, self.per_class,
                           self.universe_per_class, self.name, seed)

    def session(self, key: str) -> Session:
        moves, seed = map(int, key.split("/"))
        return sessions.heal_session(seed, moves)


class PackClean(PackHeal):
    name = "pack-clean"
    plain_from_offered = True
    classes = range(400, 2000, 200)  # length classes: app events, at least
    per_class, universe_per_class = 1, 16

    def session(self, key: str) -> Session:
        target, seed = map(int, key.split("/"))
        return sessions.clean_session(seed, target)

    def extra_checks(self, result, offered, delivered, leaks) -> list[str]:
        failures = []
        if result.interventions:
            failures.append(f"{result.interventions} interventions in a "
                            "well-behaved session")
        if ([(e.symbol, e.seq, e.args, e.origin) for e in delivered]
                != [(e.symbol, e.seq, e.args, e.origin) for e in offered]):
            failures.append("enforcement changed a well-behaved session")
        if leaks:
            failures.append(f"well-behaved session leaked {len(leaks)} resources")
        return failures


WIDE_CLONES = 64
WIDE_LENGTH = 4096
WIDE_UNIVERSE = 32


def base_policy_texts() -> list[str]:
    """The deployable bundled policy texts, in file-name order."""
    texts = [p.read_text(encoding="utf-8")
             for p in sorted(packs.bundled_pack_dir().glob("*.pol"))]
    return [t for t in texts if not sessions.is_experimental(t)]


class Wide(Workload):
    name = "wide"
    uses_world = False

    def __init__(self, clones: int = WIDE_CLONES, length: int = WIDE_LENGTH) -> None:
        self.clones = clones
        self.length = length
        self.groups = math.ceil(clones / len(base_policy_texts()))

    def make_inputs(self, seed: int) -> list[str]:
        return sessions.clone_texts(base_policy_texts(), self.clones)

    def setup(self, inputs) -> list:
        docs = [dsl.parse(text) for text in inputs]
        report = interference.check_set(docs)
        if not report.ok:
            raise ValueError(f"clones interfere:\n{report}")
        return docs

    def universe(self) -> list[str]:
        return [str(s) for s in range(WIDE_UNIVERSE)]

    def pool(self, seed: int) -> list[str]:
        keys = self.universe()
        random.Random(f"pool/{self.name}/{seed}").shuffle(keys)
        return keys

    def session(self, key: str) -> Session:
        return sessions.wide_session(int(key), self.groups, self.length)


WORKLOADS = {w.name: w for w in (PackHeal, PackClean, Wide)}


def check_manifest() -> list[str]:
    """The seven bundled scenarios reproduce the pack's manifest."""
    pack = packs.load_bundled_pack()
    scripts = packs.load_bundled_scenarios(pack)
    failures = []
    if len(scripts) != 7 or set(scripts) != set(pack.expectations):
        failures.append(f"bundled scenarios {sorted(scripts)} do not match "
                        f"the manifest {sorted(pack.expectations)}")
    for name, script in scripts.items():
        report = cli.run_one(script, pack, True, frozenset())
        expected = pack.expectations.get(name)
        if expected is None or report.outcome.value != expected.value:
            failures.append(f"scenario {name}: {report.outcome.value}, "
                            f"manifest says {expected and expected.value}")
    return failures
