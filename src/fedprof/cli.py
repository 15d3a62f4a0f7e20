"""Command-line entry points.

Subcommands: shadow-train, meta-train, run, defense-sweep, report.
Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import attack, defense, harness, nn
from .errors import ConfigError, FedprofError


def _load_config(args) -> harness.ExperimentConfig:
    if args.config is None:
        raise ConfigError("--config <path> is required")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = harness.validate_config(path.read_text())
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = str(args.out)
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg


def _out_dir(cfg: harness.ExperimentConfig) -> Path:
    return Path(cfg["output_dir"]) / harness.run_id_for(cfg)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    report = harness.run_experiment(cfg, out_dir=out)
    print(f"run {report.run_id} -> {out}")
    print(f"  top1={report.topk['1']:.3f} top2={report.topk['2']:.3f} "
          f"top3={report.topk['3']:.3f}")
    print(f"  utility(test) with attack={report.utility_test_with:.3f}"
          + ("" if report.utility_test_without is None
             else f" without={report.utility_test_without:.3f}"))
    return 0


def cmd_shadow_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg) / "shadows"
    staged = harness.stage_data(cfg)
    offline = harness.run_offline(cfg, staged)
    out.mkdir(parents=True, exist_ok=True)
    meta_info = []
    for i, sh in enumerate(offline.shadows):
        nn.save_checkpoint(out / f"shadow_{i:03d}.ppam", sh.params, staged.arch)
        meta_info.append({
            "index": i,
            "preference": sh.preference,
            "class_counts": sh.dataset.class_counts.tolist(),
            "sensitivity": [float(v) for v in sh.sensitivity],
        })
    (out / "shadows.json").write_text(json.dumps(meta_info, indent=2))
    (out.parent / "config.json").write_text(cfg.to_json())
    print(f"wrote {len(meta_info)} shadow checkpoints to {out}")
    return 0


def cmd_meta_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    staged = harness.stage_data(cfg)
    offline = harness.run_offline(cfg, staged)
    out.mkdir(parents=True, exist_ok=True)
    nn.save_checkpoint(out / "meta.ppam", offline.meta.params, offline.meta.arch)
    attack.export_meta_csv(offline.meta_samples, out / "meta_dataset.csv")
    (out / "meta.json").write_text(json.dumps(
        {"train_accuracy": offline.meta.train_accuracy,
         "n_samples": len(offline.meta_samples)}, indent=2))
    (out / "config.json").write_text(cfg.to_json())
    print(f"meta-classifier train accuracy {offline.meta.train_accuracy:.3f} -> {out}")
    return 0


def cmd_defense_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg) / "defense"
    sweep = defense.sweep_from_config(cfg)
    rows = defense.run_defense_sweep(cfg, sweep, out_dir=out)
    print(f"{'label':>10} {'noise':>8} {'attack':>8} {'utility':>8}")
    for r in rows:
        nm = "-" if r.noise_multiplier is None else f"{r.noise_multiplier:g}"
        print(f"{r.label:>10} {nm:>8} {r.attack_acc_top1:8.3f} {r.model_utility:8.3f}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_report(args) -> int:
    ks = [int(v) for v in args.k.split(",")] if args.k else [1, 2, 3]
    out = Path(args.out) if args.out else Path("report-out")
    summary, _ = harness.report_runs(args.run_dirs, k_values=ks, out_dir=out)
    cols = ["run_id", "aggregation", "x", "aux_per_class"] + [f"top{k}" for k in ks]
    print(" ".join(f"{c:>14}" for c in cols))
    for row in summary:
        print(" ".join(f"{row.get(c)!s:>14}" for c in cols))
    print(f"wrote {out / 'summary.csv'} and {out / 'ds_vs_round.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedprof",
                                description="Federated-learning preference-profiling laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", type=str, help="experiment config (JSON)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", type=str, default=None, help="override the output directory")

    for name, fn in (("run", cmd_run), ("shadow-train", cmd_shadow_train),
                     ("meta-train", cmd_meta_train), ("defense-sweep", cmd_defense_sweep)):
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("report")
    sp.add_argument("run_dirs", nargs="+", help="completed run directories")
    sp.add_argument("--k", type=str, default="1,2,3", help="comma-separated k values")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (FedprofError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
