"""Record the `proactive run` outputs that tests/test_cli.py checks against.

    PYTHONPATH=src python3 tests/record_run_reports.py

Runs `proactive run --out` on each bundled scenario, enforced and not,
then on all of them in parallel, and stores each run's exit code,
stdout, stderr and JSON report (timings replaced by their count) in
tests/fixtures/run-reports.json.  Run it only on a commit whose `run`
output is the reference: a later run fails every output that differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import RUN_REPORTS, run_reports  # noqa: E402

if __name__ == "__main__":
    runs = run_reports()
    RUN_REPORTS.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"{len(runs)} runs written to {RUN_REPORTS}")
