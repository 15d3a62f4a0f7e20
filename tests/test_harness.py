"""Config validation, end-to-end determinism, persistence, reporting, CLI."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedprof
from fedprof import attack, cli, data, harness, nn
from fedprof.errors import ConfigError, InputError, NumericalError

FAST = {
    "seed": 5,
    "dataset": {"n_label": 4, "dim": 8},
    "federation": {"n_user": 4, "user_size": 80, "cp_range": [0.4, 0.6],
                   "cd_range": [0.2, 0.4], "equalize_rest": False},
    "fl": {"n_rounds": 4, "learning_rate": 0.05},
    "attack": {"x": 2, "n_shadows": 8, "aux_per_class": 30, "shadow_epochs": 2,
               "meta": {"epochs": 120}},
    "eval_per_class": 15,
}

# Parameters overflow to inf within two rounds.
DIVERGING_FL = {**FAST["fl"], "learning_rate": 1e6, "local_epochs": 5}

# Shadows that prefer their smallest class: 5-15% of a four-class dataset.
MINORITY_SHADOWS = {"mode": "minority", "shadow_cp_range": [0.05, 0.15],
                    "shadow_cd_range": [0.1, 0.2]}


def fast_config(**overrides):
    raw = json.loads(json.dumps(FAST))
    raw.update(overrides)
    return harness.validate_config(json.dumps(raw))


# ---------------------------------------------------------------------------
# validate_config
# ---------------------------------------------------------------------------


def test_minimal_config_resolves_documented_defaults():
    cfg = harness.validate_config("{}")
    assert cfg["attack"]["th_round"] == 3
    assert cfg["attack"]["x"] == 4
    assert cfg["attack"]["aux_per_class"] == 150
    assert cfg["fl"]["aggregation"] == "selective"


def test_x_not_below_n_user_is_rejected_with_key_path():
    raw = {"federation": {"n_user": 4}, "attack": {"x": 4}}
    with pytest.raises(ConfigError, match="attack.x"):
        harness.validate_config(json.dumps(raw))


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="foo"):
        harness.validate_config(json.dumps({"foo": 1}))
    with pytest.raises(ConfigError, match="attack.bar"):
        harness.validate_config(json.dumps({"attack": {"bar": 2}}))
    with pytest.raises(ConfigError, match="unknown key attack.alpha"):  # removed knob
        harness.validate_config(json.dumps({"attack": {"alpha": 0.001}}))


def test_invalid_values_reported_with_key_path():
    with pytest.raises(ConfigError, match="fl.client_fraction"):
        harness.validate_config(json.dumps({"fl": {"client_fraction": 1.5}}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        harness.validate_config("{nope")


def test_with_overrides_merges_nested_dicts_and_replaces_lists():
    base = fast_config()
    cfg = base.with_overrides({"defense": {"apply": "dp", "noise_multipliers": [2.0]},
                               "seed": 4})
    assert cfg.seed == 4
    assert cfg["defense"]["apply"] == "dp"
    assert cfg["defense"]["noise_multipliers"] == [2.0]
    assert cfg["defense"]["clip_norm"] == base["defense"]["clip_norm"]
    assert cfg["federation"] == base["federation"]
    assert base["defense"]["apply"] == "none"
    with pytest.raises(ConfigError, match="defense.apply"):
        base.with_overrides({"defense": {"apply": "noise"}})


@pytest.mark.parametrize("section, key, value", [
    ("dataset", "sigma", "a"),
    ("dataset", "sigma", True),
    ("defense", "noise_multipliers", ["a"]),
    ("dataset", "images", 5),
    ("attack", "shadow_size", "x"),
    ("attack", "shadow_size", -3),
    ("attack", "shadow_size", 2.5),
    ("federation", "ud_target", "a"),
    ("federation", "ud_target", 1.5),
    ("federation", "id_target", -4.0),
    ("federation", "cp_range", ["a", 0.5]),
    ("fl", "n_rounds", True),
    ("fl", "n_rounds", None),
    ("fl", "n_rounds", 0),
    ("fl", "client_fraction", 0.0),
])
def test_wrongly_typed_or_out_of_range_values_are_config_errors(section, key, value):
    raw = {section: {key: value}}
    if key == "images":
        raw["dataset"]["kind"] = "idx"
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        harness.validate_config(json.dumps(raw))


def test_noise_multipliers_with_one_sweep_label_are_a_config_error():
    raw = {"defense": {"noise_multipliers": [0.1, 0.25, 0.1000001]}}
    with pytest.raises(ConfigError, match="defense.noise_multipliers .* same sweep label: "
                                          "dp_0.1$"):
        harness.validate_config(json.dumps(raw))


@pytest.mark.parametrize("federation, key", [
    ({"user_size": 20}, "federation.user_size"),
    ({"id_target": 1e9}, "federation.id_target"),  # user sizes clamp to n_label
])
def test_user_dataset_smaller_than_batch_size_is_a_config_error(federation, key):
    raw = {**FAST, "federation": {**FAST["federation"], **federation}}
    with pytest.raises(ConfigError, match="fl.batch_size") as err:
        harness.validate_config(json.dumps(raw))
    assert key in str(err.value)


def test_run_consumes_the_specs_drawn_at_validation(monkeypatch):
    cfg = fast_config()

    def redraw(*args, **kwargs):
        raise AssertionError("specs drawn again after validation")

    monkeypatch.setattr(data, "make_federation_spec", redraw)
    monkeypatch.setattr(attack, "draw_shadow_specs", redraw)
    staged = harness.stage_data(cfg)
    offline = harness.run_offline(cfg, staged)
    assert len(staged.clients) == len(cfg.fed_spec.specs) == 4
    for spec, client in zip(cfg.fed_spec.specs, staged.clients):
        assert np.array_equal(client.class_counts, data.spec_counts(spec))
    assert len(offline.shadows) == len(cfg.shadow_draws) == 8
    for (spec, _), shadow in zip(cfg.shadow_draws, offline.shadows):
        assert np.array_equal(shadow.dataset.class_counts, data.spec_counts(spec))
        assert shadow.preference == spec.preferred_class


def test_shadow_size_cap_boundary():
    # FAST: 30 aux samples per class, shadow_cp_range[1] 0.7 -> cap int(30 / 0.7) = 42
    fast_config(attack={**FAST["attack"], "shadow_size": 42})
    with pytest.raises(ConfigError, match="attack.shadow_size 43 exceeds 42"):
        fast_config(attack={**FAST["attack"], "shadow_size": 43})


def test_idx_kind_requires_existing_files(tmp_path):
    raw = {"dataset": {"kind": "idx", "images": str(tmp_path / "x"), "labels": None}}
    with pytest.raises(ConfigError, match="dataset."):
        harness.validate_config(json.dumps(raw))


def write_idx_pool(tmp_path, counts, shape=(8,)):
    """An IDX pair holding counts[c] samples of class c, each of the given
    feature shape; returns the FAST config on it."""
    y = np.repeat(np.arange(len(counts)), counts)
    X = np.random.default_rng(0).integers(0, 256, (len(y), int(np.prod(shape)))) / 255.0
    img, lbl = tmp_path / "images.idx", tmp_path / "labels.idx"
    data.write_idx(data.LabeledDataset(X, y, len(counts), feature_shape=shape), img, lbl)
    return harness._deep_merge(FAST, {"dataset": {"kind": "idx", "images": str(img),
                                                  "labels": str(lbl)}})


def test_idx_pool_must_hold_what_the_run_draws(tmp_path):
    # Each class must cover the clients' draws plus the aux store and test set.
    cfg = fast_config()
    need = (np.stack([data.spec_counts(s) for s in cfg.fed_spec.specs]).sum(axis=0)
            + FAST["attack"]["aux_per_class"] + FAST["eval_per_class"])
    exact = harness.validate_config(json.dumps(write_idx_pool(tmp_path, need)))
    staged = harness.stage_data(exact)
    assert [len(c) for c in staged.clients] == [len(c) for c in
                                                harness.stage_data(cfg).clients]
    for c in range(4):
        counts = need.copy()
        counts[c] -= 1
        with pytest.raises(ConfigError, match=rf"dataset.labels .*class {c}: "
                                              rf"{counts[c]} samples, 1 short of {need[c]}"):
            harness.validate_config(json.dumps(write_idx_pool(tmp_path, counts)))


def test_cnn_on_too_small_idx_images_is_a_config_error(tmp_path):
    cnn = {"model": {"kind": "cnn"}}
    raw = harness._deep_merge(write_idx_pool(tmp_path, [300] * 4, shape=(5, 5)), cnn)
    with pytest.raises(ConfigError, match=r"dataset.images .* holds 5x5 images, which "
                                          r"model.kind 'cnn' cannot take: layer 4: maxpool "
                                          r"kernel larger than input"):
        harness.validate_config(json.dumps(raw))
    raw = harness._deep_merge(write_idx_pool(tmp_path, [300] * 4, shape=(6, 6)), cnn)
    assert harness.validate_config(json.dumps(raw)).arch.input_shape == (1, 6, 6)


def test_idx_pool_class_count_must_match_n_label(tmp_path):
    raw = write_idx_pool(tmp_path, [200, 200, 200])
    with pytest.raises(ConfigError, match="dataset.n_label is 4 but dataset.labels holds 3"):
        harness.validate_config(json.dumps(raw))


def test_staged_clients_aux_and_test_are_pairwise_disjoint():
    staged = harness.stage_data(fast_config())
    drawn = np.concatenate([c.source_indices for c in staged.clients]
                           + [staged.aux.source_indices, staged.test.source_indices])
    assert len(np.unique(drawn)) == len(drawn)
    assert staged.aux.y.tolist() == np.repeat(np.arange(4), 30).tolist()
    assert staged.test.y.tolist() == np.repeat(np.arange(4), 15).tolist()


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """The FAST run's report and its run directory."""
    out = tmp_path_factory.mktemp("fast") / "run"
    return harness.run_experiment(fast_config(), out_dir=out), out


@pytest.fixture(scope="module")
def fast_report(fast_run):
    return fast_run[0]


def test_report_fields_well_formed(fast_report):
    rep = fast_report
    assert len(rep.predictions) == 4
    assert all(0 <= v <= 1 for v in rep.topk.values())
    assert rep.utility_test_without is not None
    assert len(rep.ds_trace_attack) == 4
    assert len(rep.round_log) == 16
    entry = rep.round_log[0]
    assert set(entry) == {"round", "user", "local_acc_before", "global_acc_after",
                          "locked", "predicted_class"}


def test_seed_changes_the_run(fast_report):
    other = harness.run_experiment(fast_config(seed=6))
    assert other.to_json() != fast_report.to_json()


def test_persistence_layout(fast_run):
    rep, d = fast_run
    cfg = fast_config()
    for name in ("config.json", "report.json", "rounds.jsonl", "meta.ppam",
                 "meta_dataset.csv", "shadows.json", "timings.json"):
        assert (d / name).exists(), name
    echoed = json.loads((d / "config.json").read_text())
    assert echoed == cfg.resolved
    lines = (d / "rounds.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(rep.round_log)
    assert json.loads((d / "report.json").read_text())["meta_train_accuracy"] == \
        rep.meta_train_accuracy > 0
    # shadows.json holds the meta dataset's inputs, one entry per shadow.
    shadows = json.loads((d / "shadows.json").read_text())
    assert [sh["index"] for sh in shadows] == list(range(8))
    assert {sh["preference"] for sh in shadows} == set(range(4))
    size = cfg.shadow_draws[0][0].total_size
    for sh, (spec, _) in zip(shadows, cfg.shadow_draws):
        assert sum(sh["class_counts"]) == size
        assert sh["class_counts"] == data.spec_counts(spec).tolist()
        assert sh["preference"] == spec.preferred_class
        assert len(sh["sensitivity"]) == 4 and min(sh["sensitivity"]) >= 0


def test_run_directory_is_byte_deterministic(fast_run, tmp_path):
    _, first = fast_run
    harness.run_experiment(fast_config(), out_dir=tmp_path)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        if name != "timings.json":  # wall clock
            assert (first / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_report_runs_joins_policies(tmp_path):
    cfg = fast_config()
    harness.run_experiment(cfg, out_dir=tmp_path / "a")
    cfg2 = fast_config()
    resolved = json.loads(json.dumps(cfg2.resolved))
    resolved["fl"]["aggregation"] = "fedavg"
    cfg2 = harness.validate_config(json.dumps(resolved))
    harness.run_experiment(cfg2, out_dir=tmp_path / "b")
    summary, ds_rows = harness.report_runs([tmp_path / "a", tmp_path / "b"],
                                           out_dir=tmp_path / "out")
    assert {r["aggregation"] for r in summary} == {"selective", "fedavg"}
    policies = {r["policy"] for r in ds_rows}
    assert "selective" in policies and "fedavg" in policies
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "ds_vs_round.csv").exists()
    header = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
    assert "top1" in header and "top2" in header and "top3" in header


def test_report_runs_missing_artifacts_raises(tmp_path):
    with pytest.raises(OSError):
        harness.report_runs([tmp_path / "nope"])


def test_cnn_model_arch_on_image_data():
    cfg = harness.validate_config(json.dumps({
        "dataset": {"n_label": 4, "dim": 64},
        "model": {"kind": "cnn"},
        "federation": {"n_user": 3, "user_size": 40, "equalize_rest": False,
                       "cp_range": [0.4, 0.6], "cd_range": [0.2, 0.4]},
        "attack": {"x": 1, "n_shadows": 4, "aux_per_class": 10, "shadow_epochs": 1},
        "eval_per_class": 5,
        "fl": {"n_rounds": 1},
    }))
    assert cfg.arch.input_shape == (1, 8, 8)
    rep = harness.run_experiment(cfg)
    assert len(rep.predictions) == 3


@pytest.mark.parametrize("dim, message", [
    (16, "layer 2: conv2d kernel larger than input"),
    (25, "layer 4: maxpool kernel larger than input"),
    (20, "square"),
    ("x", "invalid value"),
], ids=["16", "25", "20", "x"])
def test_cnn_on_too_small_synthetic_images_is_a_config_error(dim, message):
    raw = {"model": {"kind": "cnn"}, "dataset": {"dim": dim}}
    with pytest.raises(ConfigError, match="dataset.dim") as err:
        harness.validate_config(json.dumps(raw))
    assert message in str(err.value)


def test_cnn_smallest_runnable_image_validates():
    cfg = harness.validate_config(json.dumps({"model": {"kind": "cnn"},
                                              "dataset": {"dim": 36}}))
    assert cfg.arch.input_shape == (1, 6, 6)
    with pytest.raises(InputError, match="kernel larger than input"):
        harness.build_model_arch(cfg.resolved, (5, 5))  # IDX images too small for the CNN
    arch = harness.build_model_arch(cfg.resolved, (8, 10))  # IDX images need not be square
    logits = nn.predict_logits(nn.init_params(arch, seed=0), arch, np.zeros((3, 80)))
    assert logits.shape == (3, 10)


@pytest.mark.parametrize("model", [{}, {"model": {"kind": "cnn"}, "dataset": {"dim": 36}}],
                         ids=["mlp", "cnn"])
@pytest.mark.parametrize("apply", ["none", "dropout", "dp"])
def test_only_the_dropout_defense_builds_a_dropout_layer(model, apply):
    cfg = harness.validate_config(json.dumps({**model, "defense": {"apply": apply,
                                                                    "dropout_rate": 0.3}}))
    dropouts = [layer for layer in cfg.arch.layers if isinstance(layer, nn.Dropout)]
    assert dropouts == ([nn.Dropout(0.3)] if apply == "dropout" else [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_divergence_raises_numerical_error_naming_round_and_user():
    cfg = fast_config(fl=DIVERGING_FL)
    with pytest.raises(NumericalError, match=r"shadow \d+ has non-finite or diverged"):
        harness.run_experiment(cfg)


def test_finite_divergence_raises_numerical_error_in_round_one():
    # Parameters pass 1e17 after round 1 and stay finite for many more rounds.
    cfg = fast_config(fl={**FAST["fl"], "learning_rate": 1e6, "local_epochs": 1})
    with pytest.raises(NumericalError, match=r"shadow \d+ .*bound 1e\+06"):
        harness.run_experiment(cfg)


# Offline divergence: shadows and meta-dataset updates stay bounded, but at
# learning rate 1e3 the meta-classifier's parameters reach 1.7e9.
DIVERGING_META = {"seed": 3, "fl": {"n_rounds": 4},
                  "attack": {"n_shadows": 10, "meta": {"epochs": 50, "learning_rate": 1e3}}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_meta_classifier_raises_numerical_error():
    cfg = harness.validate_config(json.dumps(DIVERGING_META))
    with pytest.raises(NumericalError, match=r"^meta-classifier .*bound 1e\+06"):
        harness.run_experiment(cfg)


def test_hundred_user_run_completes_with_strong_attack():
    cfg = harness.validate_config(json.dumps({
        "seed": 77,
        "federation": {"n_user": 100, "user_size": 200},
        "fl": {"n_rounds": 8},
        "attack": {"n_shadows": 30, "aux_per_class": 60},
        "with_baseline": False,
    }))
    rep = harness.run_experiment(cfg)
    assert len(rep.predictions) == 100
    assert rep.topk["1"] >= 0.6


def test_minority_run_top1_is_the_share_of_correct_predictions():
    cfg = fast_config(attack={**FAST["attack"], **MINORITY_SHADOWS},
                      federation={**FAST["federation"], "mode": "minority",
                                  "cp_range": [0.05, 0.15], "cd_range": [0.1, 0.2]})
    rep = harness.run_experiment(cfg)
    assert rep.truth == [int(np.argmin(c)) for c in rep.class_counts]
    hits = [p == t for p, t in zip(rep.predictions, rep.truth)]
    assert rep.topk["1"] == sum(hits) / len(hits)
    assert rep.topk["1"] > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(args, cwd):
    # The child must run the package this process imported. A relative
    # PYTHONPATH (e.g. `src`) stops resolving once cwd moves, so put the
    # absolute directory holding `fedprof` first.
    pkg_root = str(Path(fedprof.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fedprof.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_run_and_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "top1=" in proc.stdout
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    proc = run_cli(["report", str(run_dirs[0]), "--k", "1,2",
                    "--out", str(tmp_path / "rep")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rep" / "summary.csv").exists()


def test_cli_two_class_run_scores_top1_and_top2(tmp_path):
    raw = json.loads(json.dumps(FAST))
    raw["dataset"]["n_label"] = 2
    raw["federation"]["cp_range"] = [0.5, 0.7]
    raw["attack"].update({"shadow_cp_range": [0.3, 0.7], "shadow_cd_range": [0.0, 0.1]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "top2=" in proc.stdout and "top3" not in proc.stdout
    (report,) = (tmp_path / "runs").glob("*/report.json")
    assert set(json.loads(report.read_text())["topk"]) == {"1", "2"}
    proc = run_cli(["report", str(report.parent), "--k", "1,3",
                    "--out", str(tmp_path / "rep")], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "--k 3" in proc.stderr and str(report.parent) in proc.stderr
    assert "Traceback" not in proc.stderr
    # Without --k, report prints every k the run scored.
    proc = run_cli(["report", str(report.parent), "--out", str(tmp_path / "rep")],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0].split()
    assert header[-2:] == ["top1", "top2"] and "top3" not in proc.stdout


def test_cli_report_bad_k_is_config_error(tmp_path):
    for k in ("x", "0", "1,-2", "1,,2", ""):
        proc = run_cli(["report", str(tmp_path), "--k", k], cwd=tmp_path)
        assert proc.returncode == 1, (k, proc.stderr)
        assert "--k" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_config_error_exit_code_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"attack": {"x": 99}}))
    proc = run_cli(["run", "--config", str(bad)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "attack.x" in proc.stderr
    proc = run_cli(["run", "--config", str(tmp_path / "missing.json")], cwd=tmp_path)
    assert proc.returncode == 1
    assert "config file not found" in proc.stderr


def test_cli_runtime_error_exit_code_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    # validates, but the IDX reader rejects the JSON file as images at runtime
    cfg.write_text(json.dumps({
        "dataset": {"kind": "idx", "images": str(cfg), "labels": str(cfg)},
        "output_dir": str(tmp_path / "runs"),
    }))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "bad magic" in proc.stderr


def test_cli_idx_pool_too_small_exit_code_one(tmp_path):
    # 60 samples per class validate as files but cannot feed the FAST run.
    raw = write_idx_pool(tmp_path, [60] * 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "dataset.labels" in proc.stderr and "short of" in proc.stderr
    assert not (tmp_path / "runs").exists()


def test_cli_cnn_too_small_exit_code_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "cnn"},
                               "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "dataset.dim" in proc.stderr


def test_cli_cnn_too_small_idx_images_exit_code_one(tmp_path):
    raw = harness._deep_merge(write_idx_pool(tmp_path, [300] * 4, shape=(5, 5)),
                              {"model": {"kind": "cnn"}, "output_dir": str(tmp_path / "runs")})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "dataset.images" in proc.stderr and "5x5" in proc.stderr
    assert not (tmp_path / "runs").exists()


def test_cli_divergence_exit_code_two_and_no_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "fl": DIVERGING_FL,
                               "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "non-finite" in proc.stderr
    assert not list(tmp_path.rglob("report.json"))


def test_cli_offline_divergence_exit_code_two_and_no_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**DIVERGING_META, "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "meta-classifier has non-finite or diverged parameters" in proc.stderr
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize("section, override, key", [
    ("attack", {"shadow_size": 500}, "attack.shadow_size"),  # aux store: 30 per class
    ("federation", {"id_target": 1e308}, "federation.id_target"),  # sizes beyond int64
    # a two-class shadow of 7 samples with cp < 0.5 holds at most 3 of its preferred class
    (None, {"dataset": {"n_label": 2},
            "attack": {"shadow_cp_range": [0.1, 0.5], "shadow_cd_range": [0.0, 0.05]}},
     "attack.shadow_cp_range"),
    # a class holding 35-70% of a four-class dataset is never its smallest
    ("attack", {"mode": "minority"}, "attack.shadow_cp_range"),
    # at the cap of int(30 / 0.15) = 200, a non-preferred class needs over 30 samples
    ("attack", {**MINORITY_SHADOWS, "shadow_size": 200}, "attack.shadow_size"),
    ("federation", {"id_target": 10 ** 400}, "federation.id_target"),  # beyond float range
    ("federation", {"user_size": 2 ** 63}, "federation.user_size"),  # beyond int64
    ("federation", {"n_user": 10 ** 30}, "federation.n_user"),
    # a client spec with cp = 0 holds none of its preferred class
    ("federation", {"cp_range": [0, 0], "cd_range": [0, 0], "equalize_rest": False},
     "federation.cp_range"),
    # the equalized grid has no point with cd = 0: the other classes would tie it
    ("federation", {"cp_range": [0.5, 0.5], "cd_range": [0, 0], "equalize_rest": True},
     "federation.cp_range"),
    ("attack", {"shadow_cp_range": [0, 0], "shadow_cd_range": [0, 0]},
     "attack.shadow_cp_range"),
])
def test_cli_unrunnable_config_exit_code_one(tmp_path, section, override, key):
    cfg = tmp_path / "cfg.json"
    raw = harness._deep_merge(FAST, {section: override} if section else override)
    cfg.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert key in proc.stderr
    assert "Warning" not in proc.stderr


def test_readme_cli_block_names_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("fedprof ")]
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(sub.choices)
    assert len(set(documented)) == len(documented)
