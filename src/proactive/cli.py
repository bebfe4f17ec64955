"""Command-line surface: validate policies, check interference, run
scenarios with or without enforcement, and benchmark overhead.

Exit codes are stable across commands: 0 success/clean, 1 an expected
negative finding (a leak or interference was found, or a policy failed
validation or failed during a replay), 2 usage or I/O error.  A command
that stops early raises _Stop, which main prints as one stderr line.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

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
_T = TypeVar("_T")


class _Stop(Exception):
    """Ends a command: main prints the message to stderr and returns code."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


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


def _replay(path: Path, fn: Callable[..., _T], *args) -> _T:
    """fn(*args), which replays the scenario read from path; a failed heal
    or a policy authoring error stops the command as a finding, any other
    replay error as a usage error."""
    try:
        return fn(*args)
    except HealingFailureError as exc:
        raise _Stop(f"{path}: line {exc.line}: {exc}", EXIT_FINDING)
    except PolicyAuthoringError as exc:
        raise _Stop(f"{path}: line {exc.line}: policy {exc.policy!r}: {exc}",
                    EXIT_FINDING)
    except ScenarioError as exc:
        raise _Stop(f"{path}: {exc}")


def _pack_dir(args) -> Path:
    if args.pack:
        return Path(args.pack)
    env = os.environ.get(PACK_ENV_VAR)
    if env:
        return Path(env)
    return bundled_pack_dir()


def _write_out(path: str, payload: dict) -> None:
    """Write a JSON report; a path that cannot be written stops the command."""
    try:
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise _Stop(f"{path}: {exc}")


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in map(Path, args.paths):
        try:
            doc = parse(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise _Stop(f"{path}: {exc}")
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
        raise _Stop(f"pack directory {directory} does not exist")
    docs, problems = load_policies(directory)
    if problems:
        raise _Stop("\n".join(problems))
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
    try:
        pack = load_pack(_pack_dir(args))
        paths = [Path(path_text) for path_text in args.scenario]
        return pack, [(path, load_scenario_file(path, pack)) for path in paths]
    except (PackLoadError, ScenarioError, OSError) as exc:
        raise _Stop(str(exc))


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
    pack, scripts = _load_inputs(args)
    disabled = frozenset(args.disable)
    unknown = disabled - set(pack.policies)
    if unknown:
        raise _Stop(f"unknown policy in --disable: {', '.join(sorted(unknown))}")

    def job(item: tuple[Path, ScenarioScript]) -> RunReport:
        path, script = item
        return _replay(path, run_one, script, pack, args.enforce, disabled)

    if args.parallel and len(scripts) > 1:
        # map raises the first failure in scenario order, and the with
        # block waits for the replays still running before it propagates.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(scripts)) as pool:
            reports = list(pool.map(job, scripts))
    else:  # stops at the first scenario that fails
        reports = [job(item) for item in scripts]
    for report in reports:
        _print_run_report(report)
    if args.out:
        _write_out(args.out, {"reports": [r.to_dict() for r in reports]})
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
        raise _Stop("--reps must be at least 3")
    pack, scripts = _load_inputs(args)
    policies = pack.deployable()
    payloads = []
    for path, script in scripts:
        result = _replay(path, run_benchmark, script, policies, reps)
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
    if args.out:
        _write_out(args.out, {"benchmarks": payloads})
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
    try:
        return handlers[args.command](args)
    except _Stop as stop:
        print(stop, file=sys.stderr)
        return stop.code


if __name__ == "__main__":
    sys.exit(main())
