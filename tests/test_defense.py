"""Defense sweep tests: variant overrides, degenerate-DP equivalence, the CLI."""

import json
from types import SimpleNamespace

import pytest

from fedprof import harness
from test_harness import run_cli

BASE = {
    "seed": 9,
    "dataset": {"n_label": 4, "dim": 8},
    "federation": {"n_user": 4, "user_size": 60, "cp_range": [0.4, 0.6],
                   "cd_range": [0.2, 0.4], "equalize_rest": False},
    "fl": {"n_rounds": 3, "learning_rate": 0.05},
    "attack": {"x": 2, "n_shadows": 8, "aux_per_class": 20, "shadow_epochs": 2,
               "meta": {"epochs": 100}},
    "eval_per_class": 10,
    "with_baseline": False,
}


def base_cfg():
    return harness.validate_config(json.dumps(BASE))


# The sweep runs below train at local batch size 16 (the default is 32), so
# DP-SGD takes several clipped steps per local epoch.
BATCH_16 = {"fl": {"batch_size": 16}}


def test_standard_sweep_structure(monkeypatch):
    # each variant is the config with only its defense block overridden
    cfg = base_cfg()
    ran = []

    def recording(variant):
        ran.append(variant)
        return SimpleNamespace(topk={"1": 0.0}, utility_test_with=0.0)

    monkeypatch.setattr(harness, "run_experiment", recording)
    rows = harness.run_defense_sweep(cfg)
    assert [r.label for r in rows] == ["none", "dropout", "dp_0.05", "dp_0.25", "dp_1", "dp_4"]
    assert [r.noise_multiplier for r in rows] == [None, None, 0.05, 0.25, 1.0, 4.0]
    assert [v["defense"]["apply"] for v in ran] == ["none", "dropout"] + ["dp"] * 4
    for variant in ran:
        assert variant["defense"]["clip_norm"] == cfg["defense"]["clip_norm"]
        assert variant.with_overrides({"defense": cfg["defense"]}) == cfg


def test_degenerate_dp_equals_no_defense_metrics():
    # noise multiplier 0 and a clip norm far above any gradient norm behave
    # like plain SGD on the reported metrics
    cfg = base_cfg().with_overrides(BATCH_16)
    plain = harness.run_experiment(cfg)
    dp = harness.run_experiment(cfg.with_overrides(
        {"defense": {"apply": "dp", "clip_norm": 1e9, "noise_multiplier": 0.0}}))
    assert plain.topk["1"] == dp.topk["1"]
    assert plain.utility_test_with == pytest.approx(dp.utility_test_with, abs=1e-9)


def test_sweep_runs_and_writes_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "NOISE_MULTIPLIERS", (4.0,))
    cfg = base_cfg().with_overrides(BATCH_16)
    rows = harness.run_defense_sweep(cfg, out_dir=tmp_path)
    assert [r.label for r in rows] == ["none", "dropout", "dp_4"]
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "label,noise_multiplier,attack_acc_top1,model_utility"
    assert len(text) == 4
    assert text[3].startswith("dp_4,4.0,")


def test_cli_defense_sweep(tmp_path):
    # a child process: the sweep runs the full grid of harness.NOISE_MULTIPLIERS
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    proc = run_cli(["defense-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    (csv,) = (tmp_path / "runs").glob("*/defense/sweep.csv")
    lines = csv.read_text().splitlines()
    assert lines[0] == "label,noise_multiplier,attack_acc_top1,model_utility"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "none", "dropout", "dp_0.05", "dp_0.25", "dp_1", "dp_4"]


def test_disabled_defense_is_bit_identical_to_plain_run():
    rep_plain = harness.run_experiment(base_cfg())
    cfg_none = harness.validate_config(json.dumps({**BASE, "defense": {"apply": "none"}}))
    rep_none = harness.run_experiment(cfg_none)
    assert rep_plain.to_json() == rep_none.to_json()


def test_sweep_runs_one_online_arm_per_variant(monkeypatch):
    # The rows read only the attack arm, so a with_baseline config runs no
    # FedAvg baseline arm.
    arms = []
    run_online = harness.run_online

    def counting(cfg, staged, xs, score_rounds):
        arms.append(xs)
        return run_online(cfg, staged, xs, score_rounds)

    monkeypatch.setattr(harness, "run_online", counting)
    monkeypatch.setattr(harness, "NOISE_MULTIPLIERS", (4.0,))
    cfg = base_cfg().with_overrides({"with_baseline": True})
    rows = harness.run_defense_sweep(cfg)
    assert [r.label for r in rows] == ["none", "dropout", "dp_4"]
    assert arms == [[cfg["attack"]["x"]]] * 3  # no None: the FedAvg arm never ran
