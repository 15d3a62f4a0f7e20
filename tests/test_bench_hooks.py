"""The benchmark's tracer wraps fedprof functions by name, and its workloads are
fedprof configs; a rename or a validation change that breaks either fails here."""

import ast
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fedprof import harness

ROOT = Path(__file__).resolve().parent.parent

# Metrics bench/run.py adds next to the tracer's layer metrics.
ADDED_BY_RUNNER = {"trace.run_s", "trace.overhead_s", "attack_top1", "utility_test"}

TINY = {
    "seed": 5,
    "dataset": {"n_label": 4, "dim": 8},
    "federation": {"n_user": 4, "user_size": 80, "cp_range": [0.4, 0.6],
                   "cd_range": [0.2, 0.4], "equalize_rest": False},
    "fl": {"n_rounds": 3, "learning_rate": 0.05},
    "attack": {"x": 2, "n_shadows": 8, "aux_per_class": 30, "shadow_epochs": 2,
               "meta": {"epochs": 60}},
    "eval_per_class": 15,
}


def test_traced_child_reports_every_per_layer_metric(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    work = tmp_path / "work"
    work.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "trace", str(cfg), str(work),
         repr(time.monotonic())],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads((work / "result.json").read_text())["layers"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in spec["per_layer"]} - ADDED_BY_RUNNER
    assert layers["attack.profile_round.calls"] > 0


def _load_bench_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCH_WORKLOADS = _load_bench_workloads()


@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS))
def test_bench_workload_validates(workload):
    cfg = harness.validate_config(json.dumps({**BENCH_WORKLOADS[workload], "seed": 7}))
    assert len(cfg.fed_spec) == cfg["federation"]["n_user"]
    assert len(cfg.shadow_draws) == cfg["attack"]["n_shadows"]


def _calls_named(node, name):
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None)) == name


def test_param_vector_stays_the_tracer_shim():
    """A model is a plain array everywhere but in ``extract_sensitivity``'s
    ``pv``, which the tracer reads as ``pv.values``: ``nn.ParamVector(...)``
    is built only as that call's first argument, and ``pv.values`` in that
    function is the only ``.values`` attribute read (``dict.values()`` calls
    aside)."""
    wraps, reads = [], []
    for path in sorted((ROOT / "src" / "fedprof").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent, owner = {}, {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parent[child] = node
                owner[child] = node.name if isinstance(node, ast.FunctionDef) else owner.get(node)
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if _calls_named(node, "ParamVector"):
                up = parent[node]
                if not (_calls_named(up, "extract_sensitivity") and up.args[:1] == [node]):
                    wraps.append(where)
            elif (isinstance(node, ast.Attribute) and node.attr == "values"
                  and isinstance(node.ctx, ast.Load)
                  and not (isinstance(parent[node], ast.Call) and parent[node].func is node)):
                reads.append((where, ast.unparse(node), owner.get(node)))
    hint = ("a model is a plain array; nn.ParamVector is only the tracer's view of "
            "extract_sensitivity's argument, until ROADMAP direction 1 lets the tracer "
            "read an array and the class goes")
    assert not wraps, f"nn.ParamVector built outside extract_sensitivity's call at {wraps}: {hint}"
    assert [(code, fn) for _, code, fn in reads] == [("pv.values", "extract_sensitivity")], (
        f".values read at {reads}: {hint}")
