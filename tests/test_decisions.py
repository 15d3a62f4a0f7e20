"""Decisions pinned to a committed table.

Each run of a small grid (the suite's ``FAST`` config and six variants of
it, at two seeds) must reproduce, exactly, the decision fields of its
report.json and every line of its rounds.jsonl recorded in
``tests/decisions.json``.  The table detects a moved verdict, lock round,
top-k or utility; it sets no bound.  DS traces are not pinned: their last
bits depend on the BLAS kernel, while decisions have not.

A change that means to move a decision regenerates the table with
``python tests/make_decisions.py`` and lists every changed entry.
"""

import json
from pathlib import Path

import pytest

from fedprof import harness
from test_harness import FAST, MINORITY_CLIENTS, MINORITY_SHADOWS

TABLE = Path(__file__).with_name("decisions.json")

# The report.json fields that are decisions: verdicts, lock rounds, top-k
# and the utilities, with and without the attack.
DECISION_FIELDS = ("predictions", "lock_rounds", "topk", "baseline_top1",
                   "utility_test_with", "utility_test_without",
                   "utility_own_with", "utility_own_without")

# Top-level overrides of FAST, one per variant.
GRID = {
    "fast": {},
    "dp": {"defense": {"apply": "dp", "noise_multiplier": 1.0}},
    "dropout": {"defense": {"apply": "dropout"}},
    "partial-10": {"federation": {**FAST["federation"], "n_user": 10},
                   "fl": {**FAST["fl"], "client_fraction": 0.3}},
    "cnn": {"model": {"kind": "cnn"}, "dataset": {**FAST["dataset"], "dim": 36}},
    "low-skew": {"federation": {**FAST["federation"], "cp_range": [0.3, 0.4],
                                "cd_range": [0.05, 0.15]}},
    "minority": {"federation": {**FAST["federation"], **MINORITY_CLIENTS},
                 "attack": {**FAST["attack"], **MINORITY_SHADOWS}},
}
SEEDS = (1, 2)


def entry_key(variant: str, seed: int) -> str:
    return f"{variant}/seed{seed}"


def decisions(variant: str, seed: int, out_dir: Path) -> dict:
    """Run one grid point into ``out_dir`` and return its table entry."""
    raw = {**json.loads(json.dumps(FAST)), **GRID[variant], "seed": seed}
    harness.run_experiment(harness.validate_config(json.dumps(raw)), out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    rounds = [json.loads(line) for line in (out_dir / "rounds.jsonl").read_text().splitlines()]
    return {**{field: report[field] for field in DECISION_FIELDS}, "rounds": rounds}


def test_table_covers_the_grid():
    table = json.loads(TABLE.read_text())
    assert sorted(table) == sorted(entry_key(v, s) for v in GRID for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", list(GRID))
def test_decisions_match_the_table(tmp_path, variant, seed):
    want = json.loads(TABLE.read_text())[entry_key(variant, seed)]
    got = decisions(variant, seed, tmp_path)
    for field in DECISION_FIELDS:
        assert got[field] == want[field], field
    assert len(got["rounds"]) == len(want["rounds"])
    for line, (g, w) in enumerate(zip(got["rounds"], want["rounds"]), start=1):
        assert g == w, f"rounds.jsonl line {line}"
