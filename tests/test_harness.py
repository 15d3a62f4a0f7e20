"""Config validation, end-to-end determinism, persistence, reporting, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedprof
from fedprof import attack, data, harness, nn
from fedprof.errors import ConfigError, NumericalError

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
])
def test_wrongly_typed_or_out_of_range_values_are_config_errors(section, key, value):
    raw = {section: {key: value}}
    if key == "images":
        raw["dataset"]["kind"] = "idx"
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
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


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fast_report():
    return harness.run_experiment(fast_config())


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


def test_run_experiment_is_byte_deterministic(fast_report):
    again = harness.run_experiment(fast_config())
    assert again.to_json() == fast_report.to_json()


def test_seed_changes_the_run(fast_report):
    other = harness.run_experiment(fast_config(seed=6))
    assert other.to_json() != fast_report.to_json()


def test_persistence_layout(tmp_path):
    cfg = fast_config()
    rep = harness.run_experiment(cfg, out_dir=tmp_path / "run1")
    d = tmp_path / "run1"
    for name in ("config.json", "report.json", "rounds.jsonl", "meta.ppam",
                 "meta_dataset.csv", "timings.json"):
        assert (d / name).exists(), name
    echoed = json.loads((d / "config.json").read_text())
    assert echoed == cfg.resolved
    lines = (d / "rounds.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(rep.round_log)


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
    staged = harness.stage_data(cfg)
    assert staged.arch.input_shape == (1, 8, 8)
    rep = harness.run_experiment(cfg)
    assert len(rep.predictions) == 3


@pytest.mark.parametrize("dim", [16, 25, "x"])
def test_cnn_on_too_small_synthetic_images_is_a_config_error(dim):
    raw = {"model": {"kind": "cnn"}, "dataset": {"dim": dim}}
    with pytest.raises(ConfigError, match="dataset.dim"):
        harness.validate_config(json.dumps(raw))


def test_cnn_smallest_runnable_image_validates():
    cfg = harness.validate_config(json.dumps({"model": {"kind": "cnn"},
                                              "dataset": {"dim": 36}}))
    assert harness.build_model_arch(cfg, 10, (36,)).input_shape == (1, 6, 6)
    with pytest.raises(ConfigError, match="6x6"):
        harness.build_model_arch(cfg, 10, (5, 5))  # IDX images too small for the CNN
    arch = harness.build_model_arch(cfg, 10, (8, 10))  # IDX images need not be square
    logits = nn.predict_logits(nn.init_params(arch, seed=0), arch, np.zeros((3, 80)))
    assert logits.shape == (3, 10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_divergence_raises_numerical_error_naming_round_and_user():
    cfg = fast_config(fl=DIVERGING_FL)
    with pytest.raises(NumericalError, match=r"round \d+: .* user \d+"):
        harness.run_experiment(cfg)


def test_finite_divergence_raises_numerical_error_in_round_one():
    # Parameters pass 1e17 after round 1 and stay finite for many more rounds.
    cfg = fast_config(fl={**FAST["fl"], "learning_rate": 1e6, "local_epochs": 1})
    with pytest.raises(NumericalError, match=r"round 1: .* user \d+ .*bound 1e\+06"):
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


def test_cli_cnn_too_small_exit_code_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "cnn"},
                               "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "dataset.dim" in proc.stderr


def test_cli_divergence_exit_code_two_and_no_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FAST, "fl": DIVERGING_FL,
                               "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "non-finite" in proc.stderr
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


def test_cli_shadow_and_meta_train(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "output_dir": str(tmp_path / "runs")}))
    proc = run_cli(["shadow-train", "--config", str(cfg_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    shadows = list((tmp_path / "runs").glob("*/shadows/shadow_*.ppam"))
    assert len(shadows) == 8
    proc = run_cli(["meta-train", "--config", str(cfg_path)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list((tmp_path / "runs").glob("*/meta.ppam"))
    assert list((tmp_path / "runs").glob("*/meta_dataset.csv"))
