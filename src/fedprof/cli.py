"""Command-line entry points.

Subcommands: run, defense-sweep, report.
Exit codes: 0 success, 1 configuration error, 2 runtime failure (out of
memory included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .errors import ConfigError, FedprofError


def _load_config(args) -> harness.ExperimentConfig:
    if args.config is None:
        raise ConfigError("--config <path> is required")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {args.config} is not a readable UTF-8 file: {e}") from None
    cfg = harness.validate_config(text)
    if args.seed is not None:
        cfg = cfg.with_overrides({"seed": args.seed})
    return cfg


def _out_dir(args, cfg: harness.ExperimentConfig) -> Path:
    return Path(args.out) / harness.run_id_for(cfg)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    report = harness.run_experiment(cfg, out_dir=out)
    print(f"run {report.run_id} -> {out}")
    print("  " + " ".join(f"top{k}={v:.3f}" for k, v in report.topk.items()))
    print(f"  utility(test) with attack={report.utility_test_with:.3f}"
          + ("" if report.utility_test_without is None
             else f" without={report.utility_test_without:.3f}"))
    return 0


def cmd_defense_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg) / "defense"
    rows = harness.run_defense_sweep(cfg, out_dir=out)
    print(f"{'label':>10} {'noise':>8} {'attack':>8} {'utility':>8}")
    for r in rows:
        nm = "-" if r.noise_multiplier is None else f"{r.noise_multiplier:g}"
        print(f"{r.label:>10} {nm:>8} {r.attack_acc_top1:8.3f} {r.model_utility:8.3f}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_report(args) -> int:
    ks = None
    if args.k is not None:
        try:
            ks = [int(v) for v in args.k.split(",")]
        except ValueError:
            ks = []
        if not ks or min(ks) < 1:
            raise ConfigError(f"--k must be comma-separated positive integers, got {args.k!r}")
    out = Path(args.out) if args.out else Path("report-out")
    summary, _ = harness.report_runs(args.run_dirs, k_values=ks, out_dir=out)
    cols = ["run_id", "x", "aux_per_class"] + [c for c in summary[0] if c.startswith("top")]
    print(" ".join(f"{c:>14}" for c in cols))
    for row in summary:
        print(" ".join(f"{row.get(c)!s:>14}" for c in cols))
    print(f"wrote {out / 'summary.csv'} and {out / 'ds_vs_round.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedprof",
                                description="Federated-learning preference-profiling laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, help="experiment config (JSON)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", type=str, default="runs",
                        help="output root; the run writes under <out>/<run_id>/")

    for name, fn in (("run", cmd_run), ("defense-sweep", cmd_defense_sweep)):
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("report")
    sp.add_argument("run_dirs", nargs="+", help="completed run directories")
    sp.add_argument("--k", type=str, default=None,
                    help="comma-separated k values (default: every k all the runs scored)")
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
    except MemoryError as e:  # a config too large for this machine; other errors are bugs
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
