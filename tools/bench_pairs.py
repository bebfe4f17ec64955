"""Alternating pairs of `perfbench/run.py --trace 0` from two source trees.

    python3 tools/bench_pairs.py PARENT CHANGE --seed 5101 --pairs 10 \\
        --out BENCH_x.json

PARENT and CHANGE are the roots of two source checkouts, for instance
`git archive` of the parent commit unpacked into a directory, and this
checkout.  For each workload, pair i runs the benchmark once from each
tree, each run its own process with that tree's benchmark and source,
on the same seed: --seed + workload index * pairs + i.  The tree that
runs first alternates from pair to pair, PARENT first in pair 0.

The JSON written holds every run and a summary per workload: for each
end-to-end metric BENCHMARK.json names and every run reports, each
side's median and quartiles (statistics.quantiles, n=4, exclusive), the
pairs the change won (ties count for neither), change_worse_by (the
relative change of the median in the metric's worse direction, so
negative is better), the metric's bound, the parent's interquartile
distance over its median, and the distance between the medians over
that interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run from tree, as JSON; a
    failed run stops the measurement."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{tree}: {' '.join(argv[1:])} exited {done.returncode}: "
                 f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """One metric's pairs, parent[i] against change[i]."""
    worse = 1 if better == "lower" else -1
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    parent_q, change_q = quartiles(parent), quartiles(change)
    iqr = parent_q[1] - parent_q[0]
    apart = abs(change_median - parent_median)
    return {
        "parent_median": round(parent_median, 6),
        "change_median": round(change_median, 6),
        "parent_quartiles": [round(q, 6) for q in parent_q],
        "change_quartiles": [round(q, 6) for q in change_q],
        "change_wins": sum(worse * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "change_worse_by": (round(worse * (change_median - parent_median)
                                  / parent_median, 4) if parent_median else None),
        "bound": bound,
        "parent_iqr_over_median": (round(iqr / parent_median, 4)
                                   if parent_median else None),
        "medians_apart_over_parent_iqr": round(apart / iqr, 2) if iqr else None,
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    summary = {
        "correct_runs": sum(r["correct"] is True for r in runs),
        "runs": len(runs),
        "failed_sessions": sum(r["failed"] for r in runs),
    }
    by_side = {side: sorted((r for r in runs if r["side"] == side),
                            key=lambda r: r["pair"]) for side in SIDES}
    for metric in end_to_end:
        name = metric["name"]
        if all(name in r["metrics"] for r in runs):
            summary[name] = compare(
                *([r["metrics"][name] for r in by_side[side]] for side in SIDES),
                metric["better"], metric["bound"])
    return summary


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; every workload when omitted")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")

    chosen = args.workload or workloads
    runs = []
    for w, workload in enumerate(chosen):
        for pair in range(args.pairs):
            seed = args.seed + w * args.pairs + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                runs.append({
                    "workload": workload, "pair": pair, "seed": seed,
                    "side": side, "first": side == order[0],
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                })
                print(f"{workload} pair {pair} seed {seed} {side}: correct "
                      f"{result['correct']}, failed {result['failed']}",
                      file=sys.stderr)

    summary = {workload: summarize([r for r in runs if r["workload"] == workload],
                                   benchmark["end_to_end"])
               for workload in chosen}
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": f"{args.pairs} pairs per workload, same seed within a pair, "
                  "the side that runs first alternating from pair to pair "
                  "(field 'first'), each side from its own source tree",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
