"""Record the parse digests that tests/test_dsl.py checks against.

    PYTHONPATH=src python3 tests/record_parse_digests.py

For each text of the parse corpus (the `.pol` files, then seeded
mutations of them), stores a digest of what parse makes of it in
tests/fixtures/parse-digests.json.  Run it only on a commit whose parser
output is the reference: a later run fails every text whose digest
differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import PARSE_DIGESTS, parse_corpus, parse_digest  # noqa: E402

if __name__ == "__main__":
    digests = [parse_digest(text) for text in parse_corpus()]
    PARSE_DIGESTS.write_text(json.dumps(digests, indent=0) + "\n",
                             encoding="utf-8")
    print(f"{len(digests)} digests written to {PARSE_DIGESTS}")
