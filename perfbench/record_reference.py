"""Record the reference digests that every benchmark run checks against.

    python3 perfbench/record_reference.py

For each workload and each session key a pool can hold, replays the session
under enforcement and stores a digest of the executed trace and of the
leak report in perfbench/reference.json.  Run it only on a commit whose
behaviour is the reference: a later run fails every session whose digest
differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, str]] = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        policies = workload.setup(workload.make_inputs(0))
        digests = {}
        for key in workload.universe():
            result = workload.run_session(policies, workload.session(key), key,
                                          None)
            if result.failures:
                print(f"{name} session {key}: {result.failures}", file=sys.stderr)
                return 1
            digests[key] = result.digest
        reference[name] = digests
        print(f"{name}: {len(digests)} sessions recorded")
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
