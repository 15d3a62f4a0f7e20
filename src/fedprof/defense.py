"""Client-side mitigations evaluated against the profiling attack: dropout
during local training and DP-SGD (per-example clipping + Gaussian noise).

A sweep variant is a label plus an override of the validated config's
defense block, so every variant is the same experiment with identical seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from . import harness

__all__ = ["NOISE_MULTIPLIERS", "SweepRow", "run_defense_sweep"]

# The sweep's DP grid: one variant per noise multiplier, labelled dp_{m:g}.
NOISE_MULTIPLIERS = (0.05, 0.25, 1.0, 4.0)


@dataclass(frozen=True)
class SweepRow:
    label: str
    noise_multiplier: Optional[float]
    attack_acc_top1: float
    model_utility: float


def run_defense_sweep(cfg: harness.ExperimentConfig,
                      out_dir: Optional[Path] = None) -> List[SweepRow]:
    """One full FL+attack run per variant, all with identical seeds: none,
    dropout, and one DP variant per entry of :data:`NOISE_MULTIPLIERS` at the
    config's clip norm, each ``cfg`` with its defense block overridden.

    Reports top-1 attack accuracy and model utility (mean accuracy of the
    final distributed models on the shared test set).  Neither reads the
    FedAvg baseline arm, so every variant runs with ``with_baseline`` false.
    """
    variants = [("none", {"apply": "none"}), ("dropout", {"apply": "dropout"})]
    variants += [(f"dp_{m:g}", {"apply": "dp", "noise_multiplier": m})
                 for m in NOISE_MULTIPLIERS]
    rows = []
    for label, block in variants:
        variant = cfg.with_overrides({"defense": block, "with_baseline": False})
        d = variant["defense"]
        report = harness.run_experiment(variant)
        rows.append(SweepRow(
            label=label,
            noise_multiplier=d["noise_multiplier"] if d["apply"] == "dp" else None,
            attack_acc_top1=report.topk["1"],
            model_utility=report.utility_test_with,
        ))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        harness.write_csv(out_dir / "sweep.csv", [dataclasses.asdict(r) for r in rows])
    return rows
