"""fedprof benchmark: end-to-end runs of four reference configs, traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fedprof is imported from ``src/``.
Every measured run is a fresh child process doing what ``fedprof run`` does
(``harness.validate_config`` then ``harness.run_experiment(cfg, out_dir)``),
started one at a time until ``--seconds`` have passed.  ``--seed`` goes only
into the config's ``seed``.  With ``--trace 1`` one untraced run is followed
by runs with spans recorded around fedprof's public functions (``tracer.py``)
until ``--seconds`` have passed, and the per-layer metrics are reported
instead of the end-to-end ones.

Every run's ``report.json`` is checked: strict JSON, one in-range prediction
per user, and the same bytes in every run of the invocation, traced or not.
The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count experiment runs, ``metrics`` holds the medians.  Metric
names, units and directions come from ``BENCHMARK.json``; ``README.md`` in
this directory says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_out"

# Config overrides on top of the defaults.  The workload seed is added as the
# config's top-level "seed" and nowhere else.
WORKLOADS = {
    "mlp-default": {},
    "dp-sgd": {
        "defense": {"apply": "dp", "noise_multiplier": 1.0},
        "fl": {"n_rounds": 8},
        "attack": {"n_shadows": 20},
        "with_baseline": False,
    },
    "cnn-image": {
        "model": {"kind": "cnn"},
        "dataset": {"dim": 36},
        "federation": {"user_size": 200},
        "fl": {"n_rounds": 3},
        "attack": {"n_shadows": 10, "shadow_epochs": 2, "aux_per_class": 30},
        "eval_per_class": 20,
        "with_baseline": False,
    },
    "users-100-partial": {
        "federation": {"n_user": 100},
        "fl": {"client_fraction": 0.2},
        "with_baseline": False,
    },
}

MIN_SETUP_SAMPLES = 7
TOTAL_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class ChildFailed(BenchError):
    """A child process exited non-zero."""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "fedprof" / "__init__.py").is_file():
            raise BenchError(f"no fedprof sources under {ROOT / 'src'}")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    except (BenchError, OSError, json.JSONDecodeError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print_result(spec, args, result)
    return 0


def config_for(workload: str, seed: int) -> dict:
    cfg = copy.deepcopy(WORKLOADS[workload])
    cfg["seed"] = seed
    return cfg


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.seconds, self.trace = seconds, trace
        self.cfg = config_for(workload, seed)
        self.work = WORK_ROOT / f"{workload}-s{seed}-p{os.getpid()}"
        self.started = time.monotonic()
        self.n_children = 0
        self.setup_s: list = []
        self.runs: list = []      # one dict per experiment run, traced or not
        self.env: dict = {}
        self.spans_path = WORK_ROOT / f"spans-{workload}.json"

    def run(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            (self.work / "config.json").write_text(json.dumps(self.cfg))
            # Warm-up: fills the bytecode and file caches, reads the environment.
            self.env = self.child("setup", record_setup=False)["env"]
            deadline = time.monotonic() + self.seconds
            if self.trace:
                self.experiment("run")  # the untraced reference for trace.overhead_s
            mode = "trace" if self.trace else "run"
            while not any(r["mode"] == mode for r in self.runs) or time.monotonic() < deadline:
                self.experiment(mode)
            while len(self.setup_s) < MIN_SETUP_SAMPLES:
                self.child("setup")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
                WORK_ROOT.rmdir()
        return self.summarize()

    def child(self, mode: str, record_setup: bool = True) -> dict:
        """Start one child, wait for it, and return its result (or raise)."""
        self.n_children += 1
        work = self.work / f"{self.n_children:03d}-{mode}"
        work.mkdir()
        remaining = TOTAL_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before all runs were made")
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode,
                 str(self.work / "config.json"), str(work), repr(launched)],
                cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish within the time limit")
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                              + proc.stderr.strip()[-2000:])
        result = json.loads((work / "result.json").read_text())
        result["dir"] = work
        if record_setup:
            self.setup_s.append(result["setup_s"])
        return result

    def experiment(self, mode: str) -> None:
        run = {"mode": mode, "ok": False}
        self.runs.append(run)
        try:
            result = self.child(mode)
            run.update(result)
            if mode == "trace":
                (result["dir"] / "spans.json").replace(self.spans_path)
            report, run["sha256"], problems = check_report(
                result["dir"] / "run" / "report.json", self.cfg)
            if report is not None:
                run["attack_top1"] = report["topk"]["1"]
                run["utility_test"] = report["utility_test_with"]
        except (ChildFailed, OSError, KeyError, TypeError) as e:
            problems = [f"{type(e).__name__}: {e}"]
        for problem in problems:
            print(f"run {len(self.runs)} ({mode}) failed: {problem}", file=sys.stderr)
        run["ok"] = not problems
        if "dir" in run:
            shutil.rmtree(run.pop("dir"), ignore_errors=True)

    def summarize(self) -> dict:
        """Medians over every run that finished and left a report.json.

        Runs whose report fails a check still give timings; they count as
        failed, so the result is marked incorrect.
        """
        finished = [r for r in self.runs if "sha256" in r]
        if not finished:
            raise BenchError(f"all {len(self.runs)} runs failed")
        reference = finished[0]["sha256"]
        for r in finished:
            if r["sha256"] != reference:
                print(f"{r['mode']} run report.json differs: {r['sha256']} vs {reference}",
                      file=sys.stderr)
                r["ok"] = False
        plain = [r for r in finished if r["mode"] == "run"]
        traced = [r for r in finished if r["mode"] == "trace"]
        if not plain or (self.trace and not traced):
            raise BenchError("no finished untraced run" if not plain
                             else "no finished traced run")
        samples = {
            "setup_s": self.setup_s,
            "run_s": [r["run_s"] for r in plain],
            "cal_s": [r["cal_s"] for r in plain],
            "run_cal": [r["run_s"] / r["cal_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        if self.trace:
            samples["trace.run_s"] = [r["run_s"] for r in traced]
            for name in traced[0]["layers"]:
                samples[name] = [r["layers"][name] for r in traced]
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        if self.trace:
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["run_s"]
        metrics["attack_top1"] = finished[0].get("attack_top1")
        metrics["utility_test"] = finished[0].get("utility_test")
        return {
            "metrics": metrics, "samples": samples, "attempted": len(self.runs),
            "failed": sum(not r["ok"] for r in self.runs), "report_sha256": reference,
            "env": {**self.env, **source_identity()},
        }


def check_report(path: Path, cfg: dict):
    """(parsed report or None, sha256, problems) for one run's report.json."""
    raw = path.read_bytes()
    problems = []

    def reject_constant(name):
        raise ValueError(f"non-finite number {name}")

    try:
        rep = json.loads(raw, parse_constant=reject_constant)
    except ValueError as e:
        return None, hashlib.sha256(raw).hexdigest(), [f"report.json is not strict JSON: {e}"]
    n_user = rep["config"]["federation"]["n_user"]
    n_label = rep["config"]["dataset"]["n_label"]
    preds = rep.get("predictions")
    if not isinstance(preds, list) or len(preds) != n_user:
        problems.append(f"expected {n_user} predictions, got {preds!r}")
    elif not all(type(p) is int and 0 <= p < n_label for p in preds):
        problems.append(f"prediction missing or outside [0, {n_label}): {preds}")
    if rep["config"]["seed"] != cfg["seed"]:
        problems.append("report config seed differs from the workload seed")
    return rep, hashlib.sha256(raw).hexdigest(), problems


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_1m": os.getloadavg()[0],
    }


def print_result(spec: dict, args, result: dict) -> None:
    section = "per_layer" if args.trace else "end_to_end"
    metrics = result["metrics"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    cfg = json.dumps(config_for(args.workload, args.seed), sort_keys=True)
    print(f"workload {args.workload} seed {args.seed} config {cfg}")
    print(f"report_sha256 {args.workload} {result['report_sha256']}")
    print(f"runs attempted {result['attempted']} failed {result['failed']}")
    print(f"quality attack_top1 {metrics['attack_top1']} utility_test {metrics['utility_test']}")
    for name in ("run_s", "cal_s"):
        vals = result["samples"][name]
        print(f"wall {name} {metrics[name]:.6g} s median of {len(vals)}, "
              f"min {min(vals):.6g}, max {max(vals):.6g}")
    out = {}
    for m in spec[section]:
        value = metrics[m["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SystemExit(f"bench: metric {m['name']} is {value!r}")
        vals = result["samples"].get(m["name"])
        extra = (f" median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g}"
                 if vals and len(vals) > 1 else "")
        print(f"metric {m['name']} {value:.6g} {m['unit']} better={m['better']}{extra}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


if __name__ == "__main__":
    sys.exit(main())
