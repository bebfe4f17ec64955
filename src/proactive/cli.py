"""Command-line surface: validate policies, check interference, run
scenarios with or without enforcement, and benchmark overhead.

Exit codes are stable across commands: 0 success/clean, 1 an expected
negative finding (a leak or interference was found, or a policy failed
validation or failed during a replay), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .automata import PolicyAuthoringError
from .dsl import PolicyParseError, parse
from .enforcer import HealingFailureError, PolicyEnforcer
from .interference import check_set
from .pack import (
    PackLoadError,
    PolicyPack,
    bundled_pack_dir,
    load_pack,
    load_policies,
    load_scenario_file,
)
from .sim import LeakReport, ScenarioError, ScenarioScript, run_scenario

if TYPE_CHECKING:
    from .bench import BenchResult

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

PACK_ENV_VAR = "PROACTIVE_PACK"


class Outcome(enum.Enum):
    HEALED = "healed"
    NO_VIOLATION = "no-violation"
    LEAKED = "leaked"


@dataclass(frozen=True)
class RunReport:
    scenario: str
    enforcement: bool
    outcome: Outcome
    intervention_count: int
    intervention_policies: tuple[str, ...]
    leaks: LeakReport
    timing_ms: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "enforcement": self.enforcement,
            "outcome": self.outcome.value,
            "interventions": {
                "count": self.intervention_count,
                "policies": list(self.intervention_policies),
            },
            "leaks": [
                {"interface": leak.interface, "holder": leak.holder,
                 "acquired_at": leak.acquired_at,
                 "checkpoint": leak.checkpoint.value}
                for leak in self.leaks.leaks
            ],
            "timing_ms": [round(t, 3) for t in self.timing_ms],
        }


def classify(leaks: LeakReport, intervention_count: int) -> Outcome:
    if not leaks.clean:
        return Outcome.LEAKED
    if intervention_count > 0:
        return Outcome.HEALED
    return Outcome.NO_VIOLATION


def run_one(script: ScenarioScript, pack: PolicyPack, enforce: bool,
            disabled: frozenset[str]) -> RunReport:
    enforcer: Optional[PolicyEnforcer] = None
    if enforce:
        enforcer = PolicyEnforcer()
        for policy in pack.deployable():
            handle = enforcer.deploy(policy)
            if policy.name in disabled:
                enforcer.set_enabled(handle, False)
    result = run_scenario(script, enforcer)
    return RunReport(
        scenario=script.name,
        enforcement=enforce,
        outcome=classify(result.leaks, len(result.interventions)),
        intervention_count=len(result.interventions),
        intervention_policies=tuple(r.policy for r in result.interventions),
        leaks=result.leaks,
        timing_ms=tuple(t * 1000.0 for t in result.step_times))


def _stopped(path: Path, exc: Exception) -> int:
    """Print why a replay stopped as one line: a failed heal or a policy
    authoring error is a finding."""
    if isinstance(exc, (HealingFailureError, PolicyAuthoringError)):
        print(f"{path}: line {exc.line}: {exc}", file=sys.stderr)
        return EXIT_FINDING
    print(f"{path}: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _pack_dir(args) -> Path:
    if args.pack:
        return Path(args.pack)
    env = os.environ.get(PACK_ENV_VAR)
    if env:
        return Path(env)
    return bundled_pack_dir()


def _write_out(path: str, payload: dict) -> bool:
    """Write a JSON report; a path that cannot be written prints one line."""
    try:
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path_text in args.paths:
        path = Path(path_text)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            doc = parse(text)
        except PolicyParseError as exc:
            for diagnostic in exc.diagnostics:
                print(f"{path}:{diagnostic}", file=sys.stderr)
            status = EXIT_FINDING
            continue
        print(f"{path}: ok (policy {doc.name})")
    return status


def cmd_interference(args) -> int:
    directory = _pack_dir(args)
    if not directory.is_dir():
        print(f"pack directory {directory} does not exist", file=sys.stderr)
        return EXIT_USAGE
    docs, problems = load_policies(directory)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_USAGE
    deployable = [d for d in docs.values() if not d.experimental]
    experimental = [d for d in docs.values() if d.experimental]
    report = check_set(deployable)
    print(f"policies checked: {len(deployable)}")
    for doc in experimental:
        print(f"excluded (experimental): {doc.name}")
    print(report)
    return EXIT_OK if report.ok else EXIT_FINDING


def _load_inputs(args) -> tuple[PolicyPack, list[tuple[Path, ScenarioScript]]]:
    """The pack, and each scenario file with its parsed script."""
    pack = load_pack(_pack_dir(args))
    paths = [Path(path_text) for path_text in args.scenario]
    return pack, [(path, load_scenario_file(path, pack)) for path in paths]


def _print_run_report(report: RunReport) -> None:
    mode = "on" if report.enforcement else "off"
    print(f"scenario {report.scenario} (enforcement {mode}): "
          f"{report.outcome.value}")
    print(f"  interventions: {report.intervention_count}"
          + (f" ({', '.join(report.intervention_policies)})"
             if report.intervention_policies else ""))
    if report.leaks.clean:
        print("  leaks: none")
    else:
        for leak in report.leaks.leaks:
            print(f"  leak: {leak.interface} held by {leak.holder} "
                  f"(acquired at seq {leak.acquired_at}, "
                  f"caught at {leak.checkpoint.value})")


def cmd_run(args) -> int:
    try:
        pack, scripts = _load_inputs(args)
    except (PackLoadError, ScenarioError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    disabled = frozenset(args.disable)
    known = set(pack.policies)
    unknown = disabled - known
    if unknown:
        print(f"unknown policy in --disable: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return EXIT_USAGE

    def job(script: ScenarioScript) -> RunReport | Exception:
        try:
            return run_one(script, pack, args.enforce, disabled)
        except (ScenarioError, HealingFailureError, PolicyAuthoringError) as exc:
            return exc

    if args.parallel and len(scripts) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(scripts)) as pool:
            reports = list(pool.map(job, [s for _, s in scripts]))
    else:  # stops at the first scenario that fails
        reports = []
        for _, script in scripts:
            reports.append(job(script))
            if isinstance(reports[-1], Exception):
                break
    for (path, _), report in zip(scripts, reports):
        if isinstance(report, Exception):
            return _stopped(path, report)
    for report in reports:
        _print_run_report(report)
    if args.out and not _write_out(args.out,
                                   {"reports": [r.to_dict() for r in reports]}):
        return EXIT_USAGE
    if any(r.outcome is Outcome.LEAKED for r in reports):
        return EXIT_FINDING
    return EXIT_OK


def _bench_to_dict(result: BenchResult) -> dict:
    return {
        "repetitions": result.repetitions,
        "actions": [
            {"index": a.index, "label": a.label,
             "median_with_ms": round(a.median_with_ms, 3),
             "median_without_ms": round(a.median_without_ms, 3),
             "overhead_percent": a.overhead_percent,
             "interventions": a.interventions}
            for a in result.actions
        ],
    }


def cmd_bench(args) -> int:
    from .bench import DEFAULT_REPETITIONS, run_benchmark
    reps = DEFAULT_REPETITIONS if args.reps is None else args.reps
    if reps < 3:
        print("--reps must be at least 3", file=sys.stderr)
        return EXIT_USAGE
    try:
        pack, scripts = _load_inputs(args)
    except (PackLoadError, ScenarioError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    policies = pack.deployable()
    payloads = []
    for path, script in scripts:
        try:
            result = run_benchmark(script, policies, repetitions=reps)
        except (ScenarioError, HealingFailureError, PolicyAuthoringError) as exc:
            return _stopped(path, exc)
        print(f"benchmark {script.name} ({result.repetitions} repetitions)")
        top = result.highest_overhead()
        for action in result.actions:
            marker = "  <- highest overhead" if action is top else ""
            print(f"  [{action.index}] {action.label}: "
                  f"with {action.median_with_ms:.3f} ms, "
                  f"without {action.median_without_ms:.3f} ms, "
                  f"overhead {action.overhead_us:+.1f} us "
                  f"({action.overhead_percent:+.2f}%)"
                  f" ({action.interventions} interventions){marker}")
        payloads.append({"scenario": script.name, **_bench_to_dict(result)})
    if args.out and not _write_out(args.out, {"benchmarks": payloads}):
        return EXIT_USAGE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proactive",
        description="Policy enforcement toolkit: edit-automaton policies, "
                    "a simulated Android world, and healing scenarios.")
    sub = parser.add_subparsers(dest="command")

    p_validate = sub.add_parser("validate", help="parse and validate policy files")
    p_validate.add_argument("paths", nargs="+", help=".pol files to check")

    p_interf = sub.add_parser("interference",
                              help="print the pairwise interference matrix")
    p_interf.add_argument("--pack", help="policy pack directory")

    p_run = sub.add_parser("run", help="run scenarios against the simulator")
    p_run.add_argument("--scenario", action="append", required=True,
                       help=".scn file (repeatable)")
    p_run.add_argument("--pack", help="policy pack directory")
    p_run.add_argument("--no-enforce", dest="enforce", action="store_false")
    p_run.add_argument("--disable", action="append", default=[],
                       metavar="POLICY", help="deploy but disable a policy")
    p_run.add_argument("--out", help="write a JSON report to this path")
    p_run.add_argument("--parallel", action="store_true",
                       help="run independent scenarios on separate threads")

    p_bench = sub.add_parser("bench", help="measure enforcement overhead")
    p_bench.add_argument("--scenario", action="append", required=True)
    p_bench.add_argument("--pack", help="policy pack directory")
    p_bench.add_argument("--reps", type=int)
    p_bench.add_argument("--out", help="write a JSON report to this path")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    handlers = {"validate": cmd_validate, "interference": cmd_interference,
                "run": cmd_run, "bench": cmd_bench}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
