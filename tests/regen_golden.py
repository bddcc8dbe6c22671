"""Rewrite tests/data/golden_curation.json from the current code.

Run from the root of a checkout:

    PYTHONPATH=src python tests/regen_golden.py

The file locks what a curation round writes (tests/test_golden.py). Run
this only when a change moves curated output on purpose, and say why in
CHANGES.md.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from test_golden import GOLDEN_PATH, curate_corpus


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        records = curate_corpus(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, records.values()))} records of {len(records)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
