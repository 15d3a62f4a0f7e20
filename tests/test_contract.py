"""The validate-then-run contract as a property: a config that validates also
runs, and a config that cannot run fails in ``validate_config``.

Configs are drawn over every schema section at desk sizes (2-5 classes, an
MLP or a 5x5-8x8 CNN, synthetic data or an IDX pool written with
``data.write_idx``, 2-8 users, 1-3 rounds, every defense, both modes,
learning rates up to 1e7).  The strategy leans towards configs that
validate: batch and shadow sizes come from the drawn sizes, and the client
and shadow ranges mostly suit the drawn mode.  Out-of-range values are still
drawn.  Examples are derandomized, so every machine runs the same ones, and
no example database is written.
"""

import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from fedprof import data, harness
from fedprof.errors import ConfigError, NumericalError
from test_harness import DIVERGING_ROUNDS, FAST, MINORITY_SHADOWS, run_cli

# Where a diverged model was caught: a user's model in a round, or an
# offline stage.
DIVERGED = re.compile(r"^(round \d+: the model (uploaded|distributed) for user \d+"
                      r"|shadow \d+|meta-dataset update \d+|meta-classifier) "
                      r"has non-finite or diverged parameters")


def unit_range(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted)


def ranges_for(mode, n_label, fit):
    """A (cp_range, cd_range) pair: when ``fit``, one whose preferred class
    stands out in ``mode``, otherwise any pair of unit ranges."""
    if not fit:
        return st.tuples(unit_range(0, 1), unit_range(0, 1))
    if mode == "majority":
        cp = st.tuples(st.floats(min(2 / n_label, 0.5), 0.6), st.floats(0.75, 0.95))
    else:
        cp = st.tuples(st.floats(0.01, 0.05), st.floats(0.5 / n_label, 0.8 / n_label))
    return st.tuples(cp.map(list), st.tuples(st.floats(0, 0.1), st.floats(0.3, 1)).map(list))


def rate(typical):
    """``typical``, the JSON integer 1, or a rate drawn log-uniformly from 1e-3
    to 1e7."""
    return st.sampled_from([typical, 1, None]).flatmap(
        lambda v: st.just(v) if v else st.floats(-3, 7).map(lambda e: 10.0 ** e))


# A drawn config carries at most one deliberate flaw that can make it invalid;
# most carry none, so that many examples validate and run.
FLAWS = [None] * 8 + ["client ranges", "shadow ranges", "x", "n_shadows", "cnn 5x5",
                       "batch_size", "shadow_size", "short pool"]


@st.composite
def configs(draw):
    """(raw config, IDX pool per-class size or None)."""
    flaw = draw(st.sampled_from(FLAWS))
    n_label = draw(st.integers(2, 5))
    cnn = flaw == "cnn 5x5" or draw(st.booleans())
    side = 5 if flaw == "cnn 5x5" else draw(st.integers(6, 8))
    dim = side ** 2 if cnn else draw(st.integers(2, 10))
    mode = draw(st.sampled_from(["majority", "minority"]))
    n_user = draw(st.integers(2, 8))
    user_size = draw(st.integers(16, 80))
    cp_range, cd_range = draw(ranges_for(mode, n_label, flaw != "client ranges"))
    shadow_cp_range, shadow_cd_range = draw(ranges_for(mode, n_label, flaw != "shadow ranges"))
    aux_per_class = draw(st.integers(4, 30))
    cap = int(aux_per_class / max(shadow_cp_range[1], 1e-9))
    eval_per_class = draw(st.integers(1, 10))
    raw = {
        "seed": draw(st.integers(0, 2 ** 16)),
        "dataset": {"n_label": n_label, "dim": dim},
        "federation": {
            "n_user": n_user, "user_size": user_size,
            "cp_range": cp_range, "cd_range": cd_range,
            "equalize_rest": draw(st.booleans()),
        },
        "fl": {
            "n_rounds": draw(st.integers(1, 3)),
            "client_fraction": draw(st.sampled_from([1.0, 1, 0.5]) | st.floats(0.01, 1)),
            "local_epochs": draw(st.integers(1, 2)),
            "learning_rate": draw(rate(0.05)),
            "batch_size": (user_size + 1 if flaw == "batch_size"
                           else draw(st.integers(1, user_size // 2))),
        },
        "attack": {
            "th_round": draw(st.integers(1, 3)),
            "x": n_user if flaw == "x" else draw(st.integers(1, n_user - 1)),
            "mode": mode,
            "n_shadows": n_label - 1 if flaw == "n_shadows" else draw(
                st.integers(n_label, 2 * n_label)),
            "aux_per_class": aux_per_class,
            "shadow_epochs": draw(st.integers(1, 2)),
            "shadow_size": cap + 1 if flaw == "shadow_size" else draw(
                st.none() | st.integers(min(2 * n_label, cap), cap)),
            "shadow_cp_range": shadow_cp_range,
            "shadow_cd_range": shadow_cd_range,
            "meta": {"learning_rate": draw(rate(0.1)),
                     "epochs": draw(st.integers(1, 30))},
        },
        "model": {"kind": "cnn" if cnn else "mlp"},
        "defense": {
            "apply": draw(st.sampled_from(["none", "dropout", "dp"])),
            "dropout_rate": draw(st.floats(0, 0.9)),
            "clip_norm": draw(st.floats(0.1, 10)),
            "noise_multiplier": draw(st.floats(0, 4)),
        },
        "eval_per_class": eval_per_class,
        "with_baseline": draw(st.booleans()),
    }
    pool = None
    if flaw == "short pool" or draw(st.booleans()):  # an IDX pool
        pool = n_user * user_size + aux_per_class + eval_per_class
        if flaw == "short pool":
            pool //= 3
    return raw, pool


def with_pool(raw: dict, pool, where: Path) -> dict:
    """``raw`` reading an IDX pool of ``pool`` samples per class, written
    into ``where`` with the drawn model's image shape."""
    if pool is None:
        return raw
    ds = raw["dataset"]
    side = math.isqrt(ds["dim"])
    shape = (side, side) if raw["model"]["kind"] == "cnn" else (ds["dim"],)
    y = np.repeat(np.arange(ds["n_label"]), pool)
    X = np.random.default_rng(0).integers(0, 256, (len(y), int(np.prod(shape)))) / 255.0
    img, lbl = where / "images.idx", where / "labels.idx"
    data.write_idx(data.LabeledDataset(X, y, ds["n_label"], feature_shape=shape), img, lbl)
    return harness._deep_merge(raw, {"dataset": {"kind": "idx", "images": str(img),
                                                 "labels": str(lbl)}})


def _no_constant(name):
    raise ValueError(f"a run file holds {name}")


def check_report(cfg: harness.ExperimentConfig, out: Path) -> None:
    rep = json.loads((out / "report.json").read_text(), parse_constant=_no_constant)
    n_user, n_label = cfg["federation"]["n_user"], cfg["dataset"]["n_label"]
    n_rounds, th_round = cfg["fl"]["n_rounds"], cfg["attack"]["th_round"]
    assert len(rep["predictions"]) == n_user
    assert all(p in range(n_label) for p in rep["predictions"])
    counts = np.array(rep["class_counts"])
    assert counts.tolist() == cfg.fed_spec.tolist()
    assert rep["truth"] == [data.preference_class(c, cfg["attack"]["mode"]) for c in counts]
    topk = [rep["topk"][str(k)] for k in range(1, min(3, n_label) + 1)]
    assert len(rep["topk"]) == len(topk) and all(0 <= v <= 1 for v in topk)
    # Top-1 is the share of verdicts on a class tied with the preferred one.
    ends = counts.max(axis=1) if cfg["attack"]["mode"] == "majority" else counts.min(axis=1)
    hits = [counts[u, p] == ends[u] for u, p in enumerate(rep["predictions"])]
    assert topk[0] == sum(hits) / n_user
    # Top-k asks for the whole set of the k preferred classes, so it can fall
    # with k where the other classes differ in size; where they all tie, it
    # asks only for the preferred class among the k, and cannot fall.
    if all(len(set(np.delete(c, t))) == 1 for c, t in zip(counts, rep["truth"])):
        assert topk == sorted(topk)
    assert all(r is None or th_round <= r <= n_rounds for r in rep["lock_rounds"])
    lines = (out / "rounds.jsonl").read_text().splitlines()
    assert len(lines) == n_rounds * n_user
    for entry in (json.loads(line, parse_constant=_no_constant) for line in lines):
        assert 0 <= entry["local_acc_before"] <= 1
        assert 0 <= entry["global_acc_after"] <= 1
    for arm in ("with", "without"):
        for which in ("test", "own"):
            u = rep[f"utility_{which}_{arm}"]
            assert (u is None) == (arm == "without" and not cfg["with_baseline"])
            assert u is None or 0 <= u <= 1


# Config-to-crash gaps closed by hand, each a config error now, and the first
# config this test drew whose top-2 falls below its top-1 (0.5, then 0.0): its
# users' two largest classes are 4 and 3 of 8.
PINNED = [
    # clients whose counts miss their designated class (minority mode)
    harness._deep_merge(FAST, {"attack": MINORITY_SHADOWS}),
    harness._deep_merge(FAST, {"federation": {"n_user": 10 ** 30}}),
    # numbers beyond the float or int64 range
    harness._deep_merge(FAST, {"fl": {"learning_rate": 10 ** 400}}),
    # JSON's Infinity: unused under defense "none", but it made report.json non-strict
    harness._deep_merge(FAST, {"defense": {"noise_multiplier": float("inf")}}),
    harness._deep_merge(FAST, {"attack": {"aux_per_class": 10 ** 30}}),
    harness._deep_merge(FAST, {"eval_per_class": 10 ** 30}),
    harness._deep_merge(FAST, {"attack": {"shadow_size": 500}}),
    harness._deep_merge(FAST, {"dataset": {"kind": "idx", "images": ".", "labels": "."}}),
    {"model": {"kind": "cnn"}, "dataset": {"dim": 25}},
    {"dataset": {"n_label": 4, "dim": 2},
     "federation": {"n_user": 2, "user_size": 8, "cp_range": [0.5, 0.5],
                    "cd_range": [0.125, 0.125], "equalize_rest": False},
     "fl": {"n_rounds": 1, "batch_size": 1},
     "attack": {"th_round": 1, "x": 1, "n_shadows": 4, "aux_per_class": 4, "shadow_epochs": 1,
                "shadow_cp_range": [0.5, 0.5], "shadow_cd_range": [0.25, 0.25],
                "meta": {"epochs": 1}},
     "eval_per_class": 1, "with_baseline": False},
]


def pinned(test):
    """``test`` with every PINNED config as an explicit example."""
    for raw in PINNED:
        test = example((raw, None))(test)
    return test


@pinned
@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs())
def test_a_config_that_validates_runs(drawn):
    raw, pool = drawn
    with tempfile.TemporaryDirectory() as tmp:
        raw = with_pool(raw, pool, Path(tmp))
        try:
            cfg = harness.validate_config(json.dumps(raw))
        except ConfigError:
            event("config error")
            return
        out = Path(tmp) / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                harness.run_experiment(cfg, out_dir=out)
            except NumericalError as e:  # overflow warnings may come first
                event("diverged")
                assert DIVERGED.match(str(e)), e
                assert not (out / "report.json").exists()
                return
        event("ran")
        assert not caught, [str(w.message) for w in caught]
        check_report(cfg, out)


@settings(max_examples=2, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs())
@example((FAST, None))  # runs: exit 0
@example((PINNED[0], None))  # a config error: exit 1
@example((DIVERGING_ROUNDS, None))  # diverges in round 1: exit 2
def test_cli_exit_code_follows_the_contract(drawn):
    raw, pool = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw = with_pool(raw, pool, tmp)
        (tmp / "cfg.json").write_text(json.dumps(raw))
        proc = run_cli(["run", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "runs")],
                       cwd=tmp)
        assert proc.returncode in (0, 1, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        try:
            cfg = harness.validate_config(json.dumps(raw))
        except ConfigError as e:
            assert proc.returncode == 1 and proc.stderr == f"config error: {e}\n"
            return
        reports = list(tmp.rglob("report.json"))
        if proc.returncode == 2:
            last = proc.stderr.splitlines()[-1]  # after any overflow warnings
            assert DIVERGED.match(last.removeprefix("error: ")), proc.stderr
            assert not reports
        else:
            assert proc.returncode == 0, proc.stderr
            (report,) = reports
            check_report(cfg, report.parent)
