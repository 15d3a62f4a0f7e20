"""Client-side mitigations evaluated against the profiling attack: dropout
during local training and DP-SGD (per-example clipping + Gaussian noise).

A sweep variant is a label plus a nested override of the validated config's
defense block, so every variant is the same experiment with identical seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from . import harness
from .errors import ConfigError

__all__ = ["SweepRow", "sweep_from_config", "run_defense_sweep"]


@dataclass(frozen=True)
class SweepRow:
    label: str
    noise_multiplier: Optional[float]
    attack_acc_top1: float
    model_utility: float


def sweep_from_config(cfg: harness.ExperimentConfig) -> list:
    """(label, overrides) pairs: none / dropout / one DP variant per entry of
    ``defense.noise_multipliers``, at the config's clip norm."""
    variants = [
        ("none", {"defense": {"apply": "none"}}),
        ("dropout", {"defense": {"apply": "dropout"}}),
    ]
    for m in cfg["defense"]["noise_multipliers"]:
        variants.append((harness.dp_label(m), {"defense": {"apply": "dp", "noise_multiplier": m}}))
    return variants


def run_defense_sweep(cfg: harness.ExperimentConfig, variants: list,
                      out_dir: Optional[Path] = None) -> List[SweepRow]:
    """One full FL+attack run of ``cfg.with_overrides(overrides)`` per
    (label, overrides) variant, all with identical seeds.

    Reports top-1 attack accuracy and model utility (mean accuracy of the
    final distributed models on the shared test set).  Neither reads the
    FedAvg baseline arm, so every variant runs with ``with_baseline`` false.
    """
    labels = [label for label, _ in variants]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate sweep labels in {labels}")
    rows = []
    for label, overrides in variants:
        variant = cfg.with_overrides({**overrides, "with_baseline": False})
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
