"""Config validation, end-to-end determinism, persistence, reporting, CLI."""

import argparse
import collections
import csv
import inspect
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fedprof
from fedprof import attack, cli, data, fedsim, harness, nn
from fedprof.errors import ConfigError, FormatError, InputError, NumericalError
from fedprof.seeding import derive_seed

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
# The same ranges for the clients, which attack.mode also sets to minority.
MINORITY_CLIENTS = {"cp_range": [0.05, 0.15], "cd_range": [0.1, 0.2]}


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
    # attack.mode chooses the clients' distinct class too, FedAvg runs only as
    # the with_baseline arm, and the rest are fixed
    for raw, path in [({"federation": {"mode": "majority"}}, "federation.mode"),
                      ({"fl": {"aggregation": "fedavg"}}, "fl.aggregation"),
                      ({"dataset": {"sigma": 1.0}}, "dataset.sigma"),
                      ({"model": {"hidden": [32]}}, "model.hidden"),
                      ({"attack": {"meta": {"hidden": 32}}}, "attack.meta.hidden"),
                      ({"attack": {"meta": {"batch_size": 16}}}, "attack.meta.batch_size"),
                      # the CLI's --out and harness.NOISE_MULTIPLIERS hold these now
                      ({"output_dir": "runs"}, "output_dir"),
                      ({"defense": {"noise_multipliers": [4.0]}},
                       "defense.noise_multipliers"),
                      # every user holds federation.user_size samples of a
                      # preferred class drawn at random
                      ({"federation": {"ud_target": 0.5}}, "federation.ud_target"),
                      ({"federation": {"id_target": 25.0}}, "federation.id_target")]:
        with pytest.raises(ConfigError, match=f"unknown key {re.escape(path)}$"):
            harness.validate_config(json.dumps(raw))


def test_invalid_values_reported_with_key_path():
    with pytest.raises(ConfigError, match="fl.client_fraction"):
        harness.validate_config(json.dumps({"fl": {"client_fraction": 1.5}}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        harness.validate_config("{nope")


def test_with_overrides_merges_nested_dicts_and_replaces_lists():
    base = fast_config()
    cfg = base.with_overrides({"defense": {"apply": "dp"},
                               "attack": {"shadow_cd_range": [0.2, 0.3]}, "seed": 4})
    assert cfg.seed == 4
    assert cfg["defense"]["apply"] == "dp"
    assert cfg["attack"]["shadow_cd_range"] == [0.2, 0.3]
    assert cfg["defense"]["clip_norm"] == base["defense"]["clip_norm"]
    assert cfg["federation"] == base["federation"]
    assert base["defense"]["apply"] == "none"
    with pytest.raises(ConfigError, match="defense.apply"):
        base.with_overrides({"defense": {"apply": "noise"}})


@pytest.mark.parametrize("section, key, value", [
    ("defense", "clip_norm", "a"),
    ("defense", "clip_norm", True),
    ("dataset", "images", 5),
    ("attack", "shadow_size", "x"),
    ("attack", "shadow_size", -3),
    ("attack", "shadow_size", 2.5),
    ("federation", "cp_range", ["a", 0.5]),
    ("fl", "n_rounds", True),
    ("fl", "n_rounds", None),
    ("fl", "n_rounds", 0),
    ("fl", "client_fraction", 0.0),
    ("attack", "n_shadows", 9),  # fewer than the 10 classes
    ("fl", None, 3),  # a section that is not an object
    (None, None, [1]),  # a root that is not an object
])
def test_wrongly_typed_or_out_of_range_values_are_config_errors(section, key, value):
    raw = value
    for name in (key, section):
        if name is not None:
            raw = {name: raw}
    if key == "images":
        raw["dataset"]["kind"] = "idx"
    # the message opens with the key at fault, not with a later check's key
    # (too few shadows would fail attack.draw_shadow_specs under the shadow ranges)
    path = ".".join(n for n in (section, key) if n) or "config root"
    with pytest.raises(ConfigError, match=f"^(invalid value for )?{re.escape(path)}[ :]"):
        harness.validate_config(json.dumps(raw))


def test_resolved_configs_do_not_share_the_default_lists():
    first = harness.validate_config("{}")
    first["federation"]["cp_range"][1] = 0.9
    first["attack"]["shadow_cd_range"][0] = 0.2
    second = harness.validate_config("{}")
    assert second["federation"]["cp_range"] == [0.4, 0.6]
    assert second["attack"]["shadow_cd_range"] == [0.1, 0.6]


@pytest.mark.parametrize("as_int, as_float", [
    ({"fl": {"learning_rate": 1}}, {"fl": {"learning_rate": 1.0}}),
    ({"fl": {"client_fraction": 1}}, {}),  # the default is 1.0
    ({"federation": {"cp_range": [0, 1]}}, {"federation": {"cp_range": [0.0, 1.0]}}),
])
def test_a_float_key_written_as_an_integer_gives_the_same_run_id(as_int, as_float):
    a, b = (harness.validate_config(json.dumps(raw)) for raw in (as_int, as_float))
    assert a.to_json() == b.to_json()
    assert harness.run_id_for(a) == harness.run_id_for(b)


FLOAT_KEYS = ["fl.learning_rate", "attack.meta.learning_rate", "defense.clip_norm",
              "defense.noise_multiplier"]
# A str value is JSON text: both spellings parse to inf.
BEYOND_RANGE = [(path, 10 ** 400) for path in FLOAT_KEYS] + [  # beyond the float range
    ("attack.aux_per_class", 10 ** 30),  # beyond int64
    ("eval_per_class", 10 ** 30),
    ("federation.n_user", 10 ** 30),
    ("federation.user_size", 2 ** 63),
] + [(path, text) for path in FLOAT_KEYS for text in ("1e400", "Infinity")]


@pytest.mark.parametrize("path, value", BEYOND_RANGE, ids=[
    f"{path}={value}" if isinstance(value, str) else path for path, value in BEYOND_RANGE])
def test_numbers_beyond_the_float_or_int64_range_are_config_errors(path, value):
    text = value if isinstance(value, str) else json.dumps(value)
    for key in reversed(path.split(".")):
        text = f'{{"{key}": {text}}}'
    with pytest.raises(ConfigError, match=f"^invalid value for {re.escape(path)}: "):
        harness.validate_config(text)


def test_a_huge_user_size_validates_at_once():
    # validation only: a run would need 10**12 samples per user
    t0 = time.perf_counter()
    cfg = harness.validate_config(json.dumps({"federation": {"user_size": 10 ** 12}}))
    assert time.perf_counter() - t0 < 1.0
    assert (cfg.fed_spec.sum(axis=1) == 10 ** 12).all()


@pytest.mark.parametrize("federation, key", [
    ({"user_size": 20}, "federation.user_size"),
])
def test_user_dataset_smaller_than_batch_size_is_a_config_error(federation, key):
    raw = {**FAST, "federation": {**FAST["federation"], **federation}}
    with pytest.raises(ConfigError, match="fl.batch_size") as err:
        harness.validate_config(json.dumps(raw))
    assert key in str(err.value)


def test_run_consumes_the_specs_drawn_at_validation(monkeypatch):
    cfg = fast_config()
    assert fast_config() == cfg  # the count arrays do not take part in equality

    def redraw(*args, **kwargs):
        raise AssertionError("specs drawn again after validation")

    monkeypatch.setattr(data, "make_federation_spec", redraw)
    monkeypatch.setattr(attack, "draw_shadow_specs", redraw)
    staged = harness.stage_data(cfg)
    offline = harness.run_offline(cfg, staged)
    assert len(staged.clients) == len(cfg.fed_spec) == 4
    for counts, client in zip(cfg.fed_spec, staged.clients):
        assert np.array_equal(client.class_counts, counts)
    assert len(offline.shadows) == len(cfg.shadow_draws) == 8
    for (preferred, counts, _), shadow in zip(cfg.shadow_draws, offline.shadows):
        assert np.array_equal(shadow.dataset.class_counts, counts)
        assert shadow.preference == preferred


def test_the_run_trains_with_the_optimisers_validation_built(monkeypatch):
    cfg = fast_config(defense={"apply": "dp"}, with_baseline=False)
    dp = nn.DpConfig(clip_norm=10.0, noise_multiplier=0.0)
    # FAST's shadows hold min(max(8, int(30 * 4 / 10 * 1.3)), int(30 / 0.7)) = 15 samples
    assert cfg.client_train == nn.TrainConfig(0.05, 1, 32, dp)
    assert cfg.update_train == nn.TrainConfig(0.05, 1, 15, dp)
    assert cfg.shadow_train == nn.TrainConfig(0.05, 2, 15, dp)
    # one meta sample per shadow, so the meta batch is min(16, 8 shadows)
    assert cfg.meta_train == nn.TrainConfig(0.1, 120, 8)
    used, calls = collections.Counter(), collections.Counter()
    train = nn.train

    def counting_train(models, arch, X, y, train_cfg, seeds):
        used[train_cfg] += len(seeds)
        calls[train_cfg] += 1
        return train(models, arch, X, y, train_cfg, seeds)

    def build(*args, **kwargs):
        raise AssertionError("an optimiser built after validation")

    monkeypatch.setattr(nn, "train", counting_train)
    monkeypatch.setattr(nn, "TrainConfig", build)
    monkeypatch.setattr(nn, "DpConfig", build)
    harness.run_experiment(cfg)
    assert used == {cfg.shadow_train: 8, cfg.update_train: 8, cfg.meta_train: 1,
                    cfg.client_train: 16}
    # Each group trains in one call: the shadows, the meta-dataset updates,
    # the meta-classifier, and each round's sampled clients.
    assert calls == {cfg.shadow_train: 1, cfg.update_train: 1, cfg.meta_train: 1,
                     cfg.client_train: FAST["fl"]["n_rounds"]}


def test_only_harness_and_cli_raise_config_error():
    # The layers below raise InputError; validate_config rewords it under the
    # key path at fault.
    for module in (nn, data, fedsim, attack):
        assert "ConfigError" not in inspect.getsource(module), module.__name__


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
    need = (cfg.fed_spec.sum(axis=0)
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


# (count, rows, cols) headers of a 16-byte image file: one whose pixel count
# overflows an index-sized integer, and one of 1 TiB
OVERSIZED_IDX_HEADERS = [(2 ** 32 - 1,) * 3, (2 ** 20, 1024, 1024)]


def write_oversized_idx_header(tmp_path, header):
    """The FAST config on a CNN over an image file that holds only its header."""
    raw = harness._deep_merge(write_idx_pool(tmp_path, [300] * 4, shape=(6, 6)),
                              {"model": {"kind": "cnn"}})
    Path(raw["dataset"]["images"]).write_bytes(struct.pack(">IIII", 0x803, *header))
    return raw


@pytest.mark.parametrize("header", OVERSIZED_IDX_HEADERS)
def test_an_idx_header_promising_more_pixels_than_its_file_holds_fails_validation(
        tmp_path, header):
    raw = write_oversized_idx_header(tmp_path, header)
    with pytest.raises(FormatError, match=rf"^{re.escape(raw['dataset']['images'])} holds 16 "
                                          rf"bytes, .*pixels"):
        harness.validate_config(json.dumps(raw))


def test_idx_label_and_image_counts_are_checked_at_validation(tmp_path):
    raw = write_idx_pool(tmp_path, [300] * 4)
    labels = Path(raw["dataset"]["labels"])
    labels.write_bytes(struct.pack(">II", 0x801, 1201) + bytes([0, 1, 2, 3]) * 300 + b"\0")
    with pytest.raises(FormatError, match=rf"count mismatch: .*images.idx holds 1200 images "
                                          rf"but .*labels.idx holds 1201 labels"):
        harness.validate_config(json.dumps(raw))
    labels.write_bytes(struct.pack(">II", 0x801, 1200) + bytes(1199))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(labels))} holds 1207 bytes, "
                                          rf"fewer than the 1208 .*1200 one-byte labels"):
        harness.validate_config(json.dumps(raw))


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


ROUND_LOG_KEYS = {"round", "user", "local_acc_before", "global_acc_after", "locked",
                  "predicted_class"}


def test_report_fields_well_formed(fast_run):
    rep, d = fast_run
    assert len(rep.predictions) == 4
    assert all(0 <= v <= 1 for v in rep.topk.values())
    assert rep.utility_test_without is not None
    assert len(rep.ds_trace_attack) == 4
    entry = json.loads((d / "rounds.jsonl").read_text().splitlines()[0])
    assert set(entry) == ROUND_LOG_KEYS


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
    # one rounds.jsonl line per (round, user), and no copy of them in report.json
    lines = (d / "rounds.jsonl").read_text().strip().splitlines()
    assert len(lines) == cfg["fl"]["n_rounds"] * cfg["federation"]["n_user"] == 16
    persisted = json.loads((d / "report.json").read_text())
    assert "round_log" not in persisted
    assert persisted["meta_train_accuracy"] == rep.meta_train_accuracy > 0
    # shadows.json holds the meta dataset's inputs, one entry per shadow.
    shadows = json.loads((d / "shadows.json").read_text())
    assert [sh["index"] for sh in shadows] == list(range(8))
    assert {sh["preference"] for sh in shadows} == set(range(4))
    size = cfg.shadow_draws[0][1].sum()
    for sh, (preferred, counts, _) in zip(shadows, cfg.shadow_draws):
        assert sum(sh["class_counts"]) == size
        assert sh["class_counts"] == counts.tolist()
        assert sh["preference"] == preferred
        assert len(sh["sensitivity"]) == 4 and min(sh["sensitivity"]) >= 0


def test_run_directory_is_byte_deterministic(fast_run, tmp_path):
    _, first = fast_run
    harness.run_experiment(fast_config(), out_dir=tmp_path)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        if name != "timings.json":  # wall clock
            assert (first / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_stage_timings_do_not_read_the_settable_wall_clock(tmp_path, monkeypatch):
    # A wall clock set back an hour between reads would record negative
    # stage durations; only harness's own reference to `time` is replaced.
    wall = iter(range(10 ** 9, 0, -3600))
    monkeypatch.setattr(harness, "time", SimpleNamespace(
        time=lambda: next(wall), perf_counter=time.perf_counter))
    cfg = fast_config(fl={**FAST["fl"], "n_rounds": 1}, with_baseline=False)
    harness.run_experiment(cfg, out_dir=tmp_path)
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert set(timings) == {"offline_s", "online_s"}
    assert min(timings.values()) >= 0, timings


# 30 users, 6 sampled per round: some users are sent the same model in two
# rounds running.
PARTIAL_30 = {"federation": {**FAST["federation"], "n_user": 30},
              "fl": {**FAST["fl"], "n_rounds": 5, "client_fraction": 0.2}}


@pytest.mark.parametrize("overrides, n_sampled, reuses", [
    ({"fl": {**FAST["fl"], "client_fraction": 0.5}}, 2, False), (PARTIAL_30, 6, True)],
    ids=["4-users", "30-users"])
def test_idle_uploads_keep_their_scored_local_accuracy(tmp_path, monkeypatch, overrides,
                                                       n_sampled, reuses):
    # rounds.jsonl against a slow reference that scores every upload and
    # every received model in every round; only the fresh uploads, the
    # received models not byte-equal to the ones sent the round before and,
    # after the last round, the test set are scored.
    cfg = fast_config(**overrides, with_baseline=False)
    run_round, accuracy = fedsim.run_round, nn.accuracy
    states, scored = [], []  # scored[r - 1]: what was scored after round r

    def traced_round(*args):
        states.append(run_round(*args))
        scored.append(collections.Counter())
        return states[-1]

    def traced_accuracy(pv, arch, X, y):
        if scored:  # not the meta-classifier's training accuracy
            scored[-1][pv.values.tobytes(), X.tobytes()] += 1
        return accuracy(pv, arch, X, y)

    monkeypatch.setattr(fedsim, "run_round", traced_round)
    monkeypatch.setattr(nn, "accuracy", traced_accuracy)
    harness.run_experiment(cfg, out_dir=tmp_path)
    monkeypatch.undo()
    staged = harness.stage_data(cfg)
    log = [json.loads(line) for line in (tmp_path / "rounds.jsonl").read_text().splitlines()]
    n_user, own = cfg["federation"]["n_user"], [(c.X, c.y) for c in staged.clients]
    assert len(states) == cfg["fl"]["n_rounds"]
    n_kept = 0
    for st, before, calls in zip(states, [None] + states[:-1], scored):
        rows = [e for e in log if e["round"] == st.round_index]
        assert [e["local_acc_before"] for e in rows] == [
            accuracy(st.uploaded[u], cfg.arch, *own[u]) for u in range(n_user)]
        assert [e["global_acc_after"] for e in rows] == [
            accuracy(st.distributed[u], cfg.arch, *own[u]) for u in range(n_user)]
        assert len(st.selected) == n_sampled
        fresh = range(n_user) if before is None else st.selected
        sent = [m.values.tobytes() for m in st.distributed]
        kept = set() if before is None else {
            u for u in range(n_user) if sent[u] == before.distributed[u].values.tobytes()}
        n_kept += len(kept)
        want = collections.Counter(
            [(st.uploaded[u].values.tobytes(), own[u][0].tobytes()) for u in fresh]
            + [(sent[u], own[u][0].tobytes()) for u in range(n_user) if u not in kept])
        if st is states[-1]:
            want.update((m, staged.test.X.tobytes()) for m in sent)
        assert calls == want, st.round_index
    assert (n_kept > 0) == reuses


def rescoring_run_online(cfg, staged, x, score_rounds):
    """harness.run_online scoring every user's received model in every round."""
    clients = staged.clients
    init = nn.init_params(cfg.arch, seed=derive_seed(cfg.seed, "global-init"))
    profiler = attack.PreferenceProfiler(cfg.arch, staged.aux, x=x, mode=cfg["attack"]["mode"])
    state = fedsim.initial_state(len(clients), init)
    accs = []
    for _ in range(cfg["fl"]["n_rounds"]):
        state = fedsim.run_round(state, clients, cfg.arch, cfg.client_train,
                                 cfg["fl"]["client_fraction"], profiler,
                                 derive_seed(cfg.seed, "fl"))
        if score_rounds:
            local = list(accs[-1][1]) if accs else [None] * len(clients)
            for u in state.selected if accs else range(len(clients)):
                local[u] = nn.accuracy(state.uploaded[u], cfg.arch, clients[u].X, clients[u].y)
            accs.append((state.round_index, local, [nn.accuracy(m, cfg.arch, c.X, c.y)
                                                    for m, c in zip(state.distributed, clients)]))
    return profiler.history, accs, state


def test_reused_own_data_scores_equal_a_run_that_rescores_every_model(tmp_path, monkeypatch):
    cfg = fast_config(**PARTIAL_30, with_baseline=True)
    accuracy, run_online = nn.accuracy, harness.run_online

    def run(online):
        calls = []
        monkeypatch.setattr(nn, "accuracy", lambda pv, arch, X, y: calls.append(
            (pv.values.tobytes(), X.tobytes())) or accuracy(pv, arch, X, y))
        monkeypatch.setattr(harness, "run_online", online)
        harness.run_experiment(cfg, tmp_path / online.__name__)
        monkeypatch.undo()
        return calls

    reused, rescored = run(run_online), run(rescoring_run_online)
    for name in ("rounds.jsonl", "report.json"):
        assert ((tmp_path / "run_online" / name).read_bytes()
                == (tmp_path / "rescoring_run_online" / name).read_bytes())
    # The run scores a strict subset of what the rescoring run scores, and
    # the FedAvg arm's final scoring of its broadcast model (own data, then
    # the test set) does not change.
    skipped = collections.Counter(rescored) - collections.Counter(reused)
    assert skipped and not collections.Counter(reused) - collections.Counter(rescored)
    n_user = cfg["federation"]["n_user"]
    assert reused[-2 * n_user:] == rescored[-2 * n_user:]


def test_a_failed_write_leaves_no_report(tmp_path, monkeypatch):
    # report.json goes last, so `fedprof report` never reads a partial run
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(harness, "write_meta_csv", full_disk)
    cfg = fast_config(fl={**FAST["fl"], "n_rounds": 1}, with_baseline=False)
    with pytest.raises(OSError, match="No space left"):
        harness.run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / "rounds.jsonl").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("with_baseline, arms", [(True, 2), (False, 1)])
def test_a_run_without_a_directory_scores_only_the_reported_models(monkeypatch, with_baseline,
                                                                   arms):
    # Each arm scores its final models on the users' own data and on the
    # test set; the meta-classifier's training accuracy is the one other call.
    calls = []
    accuracy = nn.accuracy
    monkeypatch.setattr(nn, "accuracy", lambda *args: calls.append(1) or accuracy(*args))
    cfg = fast_config(with_baseline=with_baseline)
    report = harness.run_experiment(cfg)
    assert (report.utility_test_without is None) == (not with_baseline)
    assert len(calls) == 2 * cfg["federation"]["n_user"] * arms + 1


def test_report_runs_joins_policies(fast_run, tmp_path):
    # A with_baseline run holds both arms' DS traces, one policy each.
    rep, d = fast_run
    summary, ds_rows = harness.report_runs([d], out_dir=tmp_path / "out")
    assert [r["run_id"] for r in summary] == [rep.run_id]
    assert "aggregation" not in summary[0]
    assert [(r["policy"], r["round"]) for r in ds_rows] == (
        [("selective", rnd) for rnd in range(1, 5)]
        + [("fedavg-baseline", rnd) for rnd in range(1, 5)])
    assert [r["mean_ds_at_truth"] for r in ds_rows] == (rep.ds_trace_attack
                                                      + rep.ds_trace_baseline)
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "ds_vs_round.csv").exists()
    header = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
    assert "top1" in header and "top2" in header and "top3" in header


def test_report_runs_quotes_a_directory_name_holding_a_comma(fast_run, tmp_path):
    _, d = fast_run
    odd = tmp_path / "runs,seed1"
    shutil.copytree(d, odd)
    summary, _ = harness.report_runs([odd], out_dir=tmp_path / "out")
    with open(tmp_path / "out" / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["dir"] for r in rows] == [str(odd)]
    assert list(rows[0]) == list(summary[0])
    assert None not in rows[0]  # no field beyond the header


def test_report_runs_missing_artifacts_raises(fast_run, tmp_path):
    with pytest.raises(OSError):
        harness.report_runs([tmp_path / "nope"])
    # A malformed report.json is a FormatError naming the directory and the
    # parse error or the missing key.
    full = (fast_run[1] / "report.json").read_text()
    no_topk = json.dumps({k: v for k, v in json.loads(full).items() if k != "topk"})
    word_k = json.dumps({**json.loads(full), "topk": {"one": 1.0}})
    for name, text, what in (("truncated", full[:len(full) // 2], "JSONDecodeError"),
                             ("empty", "{}", "'config'"), ("no-topk", no_topk, "'topk'"),
                             ("word-k", word_k, "'one'")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.json").write_text(text)
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / name))) as err:
            harness.report_runs([tmp_path / name])
        assert what in str(err.value), name


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
def test_divergence_raises_numerical_error_naming_the_shadow():
    # Shadows train at fl.learning_rate too: at 1e6 the first shadow's largest
    # parameter is 2.9e11, still finite, so the run stops before round 1.  The
    # round and user message is covered in tests/test_fedsim.py.
    cfg = fast_config(fl=DIVERGING_FL)
    with pytest.raises(NumericalError,
                       match=r"shadow \d+ has non-finite or diverged .*bound 1e\+06"):
        harness.run_experiment(cfg)


def test_finite_divergence_raises_numerical_error_in_the_shadow_stage():
    # What stops this run is the magnitude bound, not an inf or NaN: the
    # largest parameter the message reports is finite and above the bound.
    cfg = fast_config(fl={**FAST["fl"], "learning_rate": 1e6, "local_epochs": 1})
    with pytest.raises(NumericalError, match=r"shadow \d+ .*bound 1e\+06") as err:
        harness.run_experiment(cfg)
    peak = float(re.search(r"largest magnitude (\S+),", str(err.value)).group(1))
    assert np.isfinite(peak) and peak > fedsim.DIVERGENCE_BOUND


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
                      federation={**FAST["federation"], **MINORITY_CLIENTS})
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
    cfg_path.write_text(json.dumps(FAST))
    proc = run_cli(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "top1=" in proc.stdout
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    proc = run_cli(["report", str(run_dirs[0]), "--k", "1,2",
                    "--out", str(tmp_path / "rep")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rep" / "summary.csv").exists()


def test_cli_run_directory_does_not_depend_on_the_output_root(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST))
    runs = []
    for root in ("A", "B"):
        proc = run_cli(["run", "--config", str(cfg_path), "--out", str(tmp_path / root)],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        (run_dir,) = (tmp_path / root).iterdir()
        runs.append(run_dir)
    a, b = runs
    assert a.name == b.name
    names = sorted(f.name for f in a.iterdir())
    assert names == sorted(f.name for f in b.iterdir())
    for name in names:
        if name != "timings.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_two_class_run_scores_top1_and_top2(tmp_path):
    raw = json.loads(json.dumps(FAST))
    raw["dataset"]["n_label"] = 2
    raw["federation"]["cp_range"] = [0.5, 0.7]
    raw["attack"].update({"shadow_cp_range": [0.3, 0.7], "shadow_cd_range": [0.0, 0.1]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    proc = run_cli(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
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


def test_cli_report_on_a_malformed_report_exit_code_two(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    for text in ('{"topk": {"1": ', "{}"):
        (run / "report.json").write_text(text)
        proc = run_cli(["report", str(run), "--out", str(tmp_path / "rep")], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert str(run) in proc.stderr and "Traceback" not in proc.stderr


def test_cli_config_error_exit_code_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"attack": {"x": 99}}))
    proc = run_cli(["run", "--config", str(bad)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "attack.x" in proc.stderr
    proc = run_cli(["run", "--config", str(tmp_path / "missing.json")], cwd=tmp_path)
    assert proc.returncode == 1
    assert "config file not found" in proc.stderr
    # a directory, and a file that is not UTF-8
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    for path in (tmp_path, not_utf8):
        proc = run_cli(["run", "--config", str(path)], cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert f"config file {path} " in proc.stderr and "Traceback" not in proc.stderr


def test_cli_runtime_error_exit_code_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    # validates, but the IDX reader rejects the JSON file as images at runtime
    cfg.write_text(json.dumps({
        "dataset": {"kind": "idx", "images": str(cfg), "labels": str(cfg)},
    }))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "bad magic" in proc.stderr


def test_cli_out_of_memory_exit_code_two_without_traceback(tmp_path, monkeypatch, capsys):
    # a config whose data does not fit in memory; nothing is allocated here
    message = "Unable to allocate 74.5 GiB for an array"

    def exhaust(cfg, out_dir=None):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "run_experiment", exhaust)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_cli_oversized_idx_header_exit_code_two(tmp_path):
    raw = write_oversized_idx_header(tmp_path, OVERSIZED_IDX_HEADERS[0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert raw["dataset"]["images"] in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "runs").exists()


def test_cli_idx_pool_too_small_exit_code_one(tmp_path):
    # 60 samples per class validate as files but cannot feed the FAST run.
    raw = write_idx_pool(tmp_path, [60] * 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "dataset.labels" in proc.stderr and "short of" in proc.stderr
    assert not (tmp_path / "runs").exists()


def test_cli_cnn_too_small_exit_code_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "cnn"}}))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 1
    assert "dataset.dim" in proc.stderr


def test_cli_cnn_too_small_idx_images_exit_code_one(tmp_path):
    raw = harness._deep_merge(write_idx_pool(tmp_path, [300] * 4, shape=(5, 5)),
                              {"model": {"kind": "cnn"}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "dataset.images" in proc.stderr and "5x5" in proc.stderr
    assert not (tmp_path / "runs").exists()


# Divergence in the FL rounds: one shadow epoch at learning rate 10 stays
# bounded, but five local epochs take user 0's round-1 upload to 4.3e11.
DIVERGING_ROUNDS = {**FAST, "fl": {**FAST["fl"], "learning_rate": 10, "local_epochs": 5},
                    "attack": {**FAST["attack"], "shadow_epochs": 1}}


def test_cli_divergence_exit_code_two_and_no_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DIVERGING_ROUNDS))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "round 1" in proc.stderr and "user" in proc.stderr
    assert "non-finite" in proc.stderr
    assert not list(tmp_path.rglob("report.json"))


def test_cli_offline_divergence_exit_code_two_and_no_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DIVERGING_META))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "meta-classifier has non-finite or diverged parameters" in proc.stderr
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize("section, override, key", [
    ("attack", {"shadow_size": 500}, "attack.shadow_size"),  # aux store: 30 per class
    ("fl", {"learning_rate": 10 ** 400}, "fl.learning_rate"),  # beyond the float range
    # a two-class shadow of 7 samples with cp < 0.5 holds at most 3 of its preferred
    # class (the clients' cp above 0.5 keeps each client's class its largest)
    (None, {"dataset": {"n_label": 2}, "federation": {"cp_range": [0.6, 0.7]},
            "attack": {"shadow_cp_range": [0.1, 0.5], "shadow_cd_range": [0.0, 0.05]}},
     "attack.shadow_cp_range"),
    # a class holding 35-70% of a four-class dataset is never its smallest
    (None, {"federation": MINORITY_CLIENTS, "attack": {"mode": "minority"}},
     "attack.shadow_cp_range"),
    # at the cap of int(30 / 0.15) = 200, a non-preferred class needs over 30 samples
    (None, {"federation": MINORITY_CLIENTS,
            "attack": {**MINORITY_SHADOWS, "shadow_size": 200}}, "attack.shadow_size"),
    ("attack", {"aux_per_class": 10 ** 30}, "attack.aux_per_class"),  # beyond int64
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
    # the CLI runs in tmp_path, so "." is a directory, not an IDX file
    (None, {"dataset": {"kind": "idx", "images": ".", "labels": "."}}, "dataset.images"),
    # a client holding 40-60% of its class in minority mode has some other class
    # as its smallest; at seed 5 user 0's counts are [45, 0, 0, 35] for class 3
    (None, {"attack": MINORITY_SHADOWS}, "federation.cp_range"),
])
def test_cli_unrunnable_config_exit_code_one(tmp_path, section, override, key):
    cfg = tmp_path / "cfg.json"
    raw = harness._deep_merge(FAST, {section: override} if section else override)
    cfg.write_text(json.dumps(raw))
    proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                   cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert key in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_readme_cli_block_names_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("fedprof ")]
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(sub.choices)
    assert len(set(documented)) == len(documented)


def test_readme_module_table_and_package_docstring_name_every_layer():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `fedprof\.(\w+)` +\|", section, flags=re.M)
    docstring = re.findall(r"^  (\w+) ", fedprof.__doc__.split("Layers:\n", 1)[1], flags=re.M)
    layers = [name for name in fedprof.__all__ if inspect.ismodule(getattr(fedprof, name))]
    assert table == docstring and sorted(table) == sorted(layers), (table, docstring, layers)


def test_readme_removed_keys_are_each_rejected_by_name():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Unknown keys are", 1)[1].split(" removed ones:\n\n", 1)[1]
    paths = re.findall(r"^- `([\w.]+)`:", section.split("\n\n", 1)[0], flags=re.M)
    assert len(paths) == 12, paths
    for path in paths:
        raw = 1
        for key in reversed(path.split(".")):
            raw = {key: raw}
        with pytest.raises(ConfigError, match=f"^unknown key {re.escape(path)}$"):
            harness.validate_config(json.dumps(raw))


def test_readme_run_directory_names_every_file_and_round_log_key(fast_run):
    _, d = fast_run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme.split("A run directory contains", 1)[1].split("\n\n", 1)[0]
    files = set(re.findall(r"`(\w+\.\w+)`", paragraph))
    assert files == {p.name for p in d.iterdir()}
    keys = re.findall(r"`(\w+)`", paragraph.split("`rounds.jsonl` is the only", 1)[1])
    assert len(keys) == 6 and set(keys) == ROUND_LOG_KEYS, keys


def test_readme_minority_config_validates_and_every_preferred_class_is_the_smallest():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A minority-mode run profiles", 1)[1].split("```json", 1)[1]
    cfg = harness.validate_config(block.split("```", 1)[0])
    assert cfg["attack"]["mode"] == "minority"
    for row in cfg.fed_spec:
        smallest = int(np.argmin(row))
        assert row[smallest] < np.delete(row, smallest).min(), row
    for preferred, counts, _ in cfg.shadow_draws:
        assert counts[preferred] < np.delete(counts, preferred).min(), counts


# ---------------------------------------------------------------------------
# Decisions across BLAS kernels
# ---------------------------------------------------------------------------

# Runs one config into a directory and prints the OpenBLAS core it ran on
# (null where it cannot be read).
KERNEL_CHILD = r"""
import ctypes, json, sys
from pathlib import Path
from fedprof import harness

def core_name():
    maps = Path("/proc/self/maps").read_text().splitlines()
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")}):
        for symbol in ("openblas_get_corename", "openblas_get_corename64_",
                       "scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None

harness.run_experiment(harness.validate_config(sys.argv[1]), Path(sys.argv[2]))
print(json.dumps({"core": core_name()}))
"""

# Report fields that are sums of many products, so their last bits depend on
# how a BLAS kernel orders them; every other field is a decision or a count.
FLOAT_TRACES = ("ds_trace_attack", "ds_trace_baseline")


def test_decisions_agree_across_blas_kernels(tmp_path):
    """One small run under the default OpenBLAS kernel and one under the
    generic x86-64 kernel (``OPENBLAS_CORETYPE=Prescott``): bytes may differ,
    but every decision field of report.json and every line of rounds.jsonl
    agree, and the DS traces agree at 1e-12 relative."""
    pkg_root = str(Path(fedprof.__file__).resolve().parent.parent)
    runs = {}
    for label, coretype in (("default", None), ("prescott", "Prescott")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / label
        proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, json.dumps(FAST), str(out)],
                              capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        runs[label] = (json.loads(proc.stdout.splitlines()[-1])["core"],
                       json.loads((out / "report.json").read_text()),
                       (out / "rounds.jsonl").read_text())
    (core, report, rounds), (other_core, other_report, other_rounds) = runs.values()
    if core is None:
        print("\n  the OpenBLAS core could not be read, so the two kernels may be one")
    elif core == other_core:
        print(f"\n  OPENBLAS_CORETYPE=Prescott was ignored here (core {core} in both runs), "
              "so this compared a kernel with itself")
    else:
        print(f"\n  compared OpenBLAS cores {core} and {other_core}")
    assert rounds == other_rounds
    assert report.keys() == other_report.keys()
    for key in report:
        if key in FLOAT_TRACES:
            want, got = np.asarray(report[key]), np.asarray(other_report[key])
            assert want.shape == got.shape and want.size > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key
        else:
            assert report[key] == other_report[key], key
