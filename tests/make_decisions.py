"""Regenerate tests/decisions.json, the decision table test_decisions.py pins.

Run from the repository root:

    PYTHONPATH=src python tests/make_decisions.py

Only a change that means to move a decision regenerates the table; it then
lists every changed entry, old -> new.
"""

import json
import tempfile
from pathlib import Path

from test_decisions import GRID, SEEDS, TABLE, decisions, entry_key


def main() -> None:
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for variant in GRID:
            for seed in SEEDS:
                key = entry_key(variant, seed)
                table[key] = decisions(variant, seed, Path(tmp) / key)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {TABLE}")


if __name__ == "__main__":
    main()
