"""Cold start: what one `proactive` process costs over bare Python.

Each round runs two subprocesses, `python -c pass` and `python -m
proactive.cli run --scenario …/hearhere.scn`, the one that goes first
alternating from round to round, and times each one's wall time.  The
repo's `src/` is put first on PYTHONPATH, so the run needs no install.
The JSON written holds every round, the medians and the median of the
per-round difference (the cost over bare Python).

    python3 tools/cold_start.py --rounds 10 --out BENCH_cold_start.json

PYTHONDONTWRITEBYTECODE is inherited and recorded: when it is set, no
`__pycache__` is written, so every process compiles `proactive` from
source.  Only the two subprocesses run per round; nothing is cached by
this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "src" / "proactive" / "data" / "scenarios" / "hearhere.scn"


def timed(argv: list[str], env: dict[str, str]) -> tuple[float, str]:
    """Wall time of one subprocess in ms, and its stdout; a non-zero exit
    stops the measurement."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    elapsed = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cold_start.json")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    bare = [sys.executable, "-c", "pass"]
    run = [sys.executable, "-m", "proactive.cli", "run", "--scenario",
           str(SCENARIO)]

    rounds = []
    outputs = set()
    for n in range(args.rounds):
        order = [("bare", bare), ("run", run)]
        if n % 2:
            order.reverse()
        times = {}
        for side, command in order:
            times[side], stdout = timed(command, env)
            if side == "run":
                outputs.add(stdout)
        rounds.append({"round": n, "first": order[0][0],
                       "bare_ms": round(times["bare"], 2),
                       "run_ms": round(times["run"], 2),
                       "over_bare_ms": round(times["run"] - times["bare"], 2)})
    if len(outputs) != 1:
        sys.exit("proactive run printed different output in different rounds")

    summary = {}
    for key in ("bare_ms", "run_ms", "over_bare_ms"):
        values = [r[key] for r in rounds]
        summary[key] = {"median": round(statistics.median(values), 2),
                        "quartiles": [round(q, 2) for q in
                                      statistics.quantiles(values, n=4)]}
    report = {
        "what": "Wall time of one `proactive run` process on hearhere.scn "
                "against bare `python -c pass`, in alternating rounds.",
        "command": ["python", *run[1:5], os.path.relpath(SCENARIO, ROOT)],
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": len(rounds),
        "summary": summary,
        "runs": rounds,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
