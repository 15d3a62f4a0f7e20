"""Experiment orchestration: strict config ingestion, seeded end-to-end runs
(shadow corpus -> meta-classifier -> FL with the attacking server -> report),
the experiments made of such runs (meta-classifier comparison, defense sweep),
artifact persistence, and plot-ready CSV reporting.

A run is a function of (config, seed): every random stream is derived from
the root seed with a labeled sub-seed, and report.json is byte-identical
across reruns under one BLAS build and kernel (wall-clock timings live in a
separate file).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import attack, data, fedsim, nn
from .errors import ConfigError, FormatError, InputError
from .seeding import derive_seed

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# Each leaf is (default, validator); a failed validator is reported with the
# offending key path.  A key whose default is None is optional: it accepts
# null or a value its validator passes.  Booleans are not numbers here, nor
# is a float beyond the float range (JSON's 1e400 and Infinity parse to inf).
# A key whose default is a float, or a list of floats, stores its value as
# float, so 1 and 1.0 resolve alike; a count is below 2**63, so it fits int64.

_INT = lambda v: isinstance(v, int) and not isinstance(v, bool)
_NUM = lambda v: _INT(v) or isinstance(v, float) and np.isfinite(v)
_POS = lambda v: _NUM(v) and v > 0
_COUNT = lambda v: _INT(v) and v < 2 ** 63
_POS_INT = lambda v: _COUNT(v) and v > 0
_NONNEG = lambda v: _NUM(v) and v >= 0
_FRAC = lambda v: _NUM(v) and 0 < v <= 1
_UNIT = lambda v: _NUM(v) and 0 <= v <= 1
_RANGE = lambda v: (isinstance(v, list) and len(v) == 2
                    and all(_UNIT(b) for b in v) and v[0] <= v[1])
_NAME = lambda v: isinstance(v, str) and v != ""

_SCHEMA = {
    "seed": (1, lambda v: _INT(v) and v >= 0),
    "dataset": {
        "kind": ("synthetic", lambda v: v in ("synthetic", "idx")),
        "n_label": (10, lambda v: _COUNT(v) and v >= 2),
        "dim": (16, lambda v: _COUNT(v) and v >= 2),
        "images": (None, _NAME),
        "labels": (None, _NAME),
    },
    "federation": {
        "n_user": (10, _POS_INT),
        "user_size": (600, _POS_INT),
        "cp_range": ([0.4, 0.6], _RANGE),
        "cd_range": ([0.4, 0.6], _RANGE),
        "equalize_rest": (True, lambda v: isinstance(v, bool)),
    },
    "fl": {
        "n_rounds": (15, _POS_INT),
        "client_fraction": (1.0, _FRAC),
        "local_epochs": (1, _POS_INT),
        "learning_rate": (0.03, _POS),
        "batch_size": (32, _POS_INT),
    },
    "attack": {
        "th_round": (3, _POS_INT),
        "x": (4, _POS_INT),
        "mode": ("majority", lambda v: v in ("majority", "minority")),
        "n_shadows": (40, _POS_INT),
        "aux_per_class": (150, _POS_INT),
        "shadow_epochs": (5, _POS_INT),
        "shadow_size": (None, _POS_INT),
        "shadow_cp_range": ([0.35, 0.7], _RANGE),
        "shadow_cd_range": ([0.1, 0.6], _RANGE),
        "meta": {
            "learning_rate": (0.1, _POS),
            "epochs": (300, _POS_INT),
        },
    },
    "model": {
        "kind": ("mlp", lambda v: v in ("mlp", "cnn")),
    },
    "defense": {
        "apply": ("none", lambda v: v in ("none", "dropout", "dp")),
        "dropout_rate": (0.5, lambda v: _NUM(v) and 0 <= v < 1),
        "clip_norm": (10.0, _POS),
        "noise_multiplier": (0.0, _NONNEG),
    },
    "eval_per_class": (30, _POS_INT),
    "with_baseline": (True, lambda v: isinstance(v, bool)),
}


def _resolve(raw: dict, schema: dict, path: str, problems: list) -> dict:
    out = {}
    for key, value in raw.items():
        if key not in schema:
            problems.append(f"unknown key {path}{key}")
    for key, entry in schema.items():
        where = f"{path}{key}"
        if isinstance(entry, dict):
            sub = raw.get(key, {})
            if not isinstance(sub, dict):
                problems.append(f"{where} must be an object")
                sub = {}
            out[key] = _resolve(sub, entry, where + ".", problems)
            continue
        default, validator = entry
        # a copy, so a caller that mutates its config cannot change a default
        value = raw[key] if key in raw else copy.deepcopy(default)
        valid = (value is None and default is None) or validator(value)
        if valid and isinstance(default, float):
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                valid = False
        elif valid and isinstance(default, list):  # every list key is a range of floats
            value = [float(v) for v in value]
        if not valid:
            problems.append(f"invalid value for {where}: {value!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated experiment description (plain dict inside), and
    what the run consumes of it: ``fed_spec``, the (n_user, n_label) matrix
    of each user's class counts; ``shadow_draws``, one (preferred class,
    class counts, sub-seed) per shadow; the client model; and the optimisers
    of local training (DP-SGD under the dp defense), of the shadows, of the
    meta dataset's one-pass updates (batch cut to the shadow size) and of the
    meta-classifier (batch cut to its one sample per shadow; this is the
    only cut, since :func:`attack.train_meta` trains at the batch it is
    given).  All follow from ``resolved``, so equality compares it and
    ``arch``."""

    resolved: dict
    fed_spec: np.ndarray = dataclasses.field(compare=False)
    shadow_draws: list = dataclasses.field(compare=False)
    arch: nn.Architecture
    client_train: nn.TrainConfig = dataclasses.field(compare=False)
    shadow_train: nn.TrainConfig = dataclasses.field(compare=False)
    update_train: nn.TrainConfig = dataclasses.field(compare=False)
    meta_train: nn.TrainConfig = dataclasses.field(compare=False)

    def __getitem__(self, key):
        return self.resolved[key]

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    def to_json(self) -> str:
        return json.dumps(self.resolved, sort_keys=True, indent=2)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        """This config with ``overrides`` deep-merged in, validated again.

        Dicts merge key by key; any other value, lists included, replaces the
        old one.
        """
        return validate_config(json.dumps(_deep_merge(self.resolved, overrides)))


def _deep_merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _deep_merge(out[key], value)
        out[key] = value
    return out


def validate_config(raw_text: str) -> ExperimentConfig:
    """Parse, strictly validate and default-fill a JSON experiment config,
    and build the client model, the optimisers and the client and shadow
    class counts its run consumes.

    This is where a config is judged: every violated invariant, a target the
    config cannot realize included, is a ConfigError naming its key path, and
    unknown keys are rejected.
    """
    try:
        raw = json.loads(raw_text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    problems: list = []
    resolved = _resolve(raw, _SCHEMA, "", problems)
    if problems:  # the checks below compare values of the right type only
        raise ConfigError("; ".join(problems))

    ds = resolved["dataset"]
    if ds["kind"] == "idx":
        for k in ("images", "labels"):
            if not ds[k]:
                problems.append(f"dataset.{k} is required for kind 'idx'")
            elif not Path(ds[k]).is_file():
                problems.append(f"dataset.{k}: file not found: {ds[k]}")
    if resolved["attack"]["x"] >= resolved["federation"]["n_user"]:
        problems.append("attack.x must be smaller than federation.n_user")
    if resolved["attack"]["n_shadows"] < ds["n_label"]:
        problems.append("attack.n_shadows must be at least dataset.n_label")
    batch, user_size = resolved["fl"]["batch_size"], resolved["federation"]["user_size"]
    if batch > user_size:
        problems.append(f"fl.batch_size {batch} exceeds federation.user_size {user_size}, "
                        f"the samples each user holds")
    if resolved["model"]["kind"] == "cnn" and ds["kind"] == "synthetic":
        side = int(round(ds["dim"] ** 0.5))
        if side * side != ds["dim"]:
            problems.append("model.kind 'cnn' on synthetic data needs a square dataset.dim")
    if problems:
        raise ConfigError("; ".join(problems))
    if ds["kind"] == "idx":  # a malformed file is a FormatError naming it
        n_images, rows, cols = data.load_idx_header(ds["images"])
        labels = data.load_idx_labels(ds["labels"])
        if n_images != len(labels):
            raise FormatError(f"count mismatch: {ds['images']} holds {n_images} images but "
                              f"{ds['labels']} holds {len(labels)} labels")
        shape, where = (rows, cols), f"dataset.images {ds['images']} holds {rows}x{cols} images"
    elif resolved["model"]["kind"] == "cnn":
        shape, where = (side, side), f"dataset.dim {ds['dim']} is a {side}x{side} image"
    else:
        shape, where = (ds["dim"],), f"dataset.dim {ds['dim']}"
    try:
        arch = build_model_arch(resolved, shape)
    except InputError as e:
        raise ConfigError(f"{where}, which model.kind {resolved['model']['kind']!r} cannot "
                          f"take: {e}") from None
    # attack.mode is both the class the attacker profiles and the class each
    # client's counts make distinct.
    fed, atk, n_label = resolved["federation"], resolved["attack"], ds["n_label"]
    try:
        fed_spec = data.make_federation_spec(
            n_user=fed["n_user"], n_label=n_label, total_size=fed["user_size"],
            cp_range=tuple(fed["cp_range"]), cd_range=tuple(fed["cd_range"]),
            seed=derive_seed(resolved["seed"], "federation-spec"), mode=atk["mode"],
            equalize_rest=fed["equalize_rest"])
    except InputError as e:
        raise ConfigError(f"federation.cp_range {fed['cp_range']} with federation.cd_range "
                          f"{fed['cd_range']} in {atk['mode']} mode: {e}") from None
    # A shadow's preferred class takes up to shadow_cp_range[1] of its dataset,
    # all drawn from that class's aux_per_class samples, so the size is capped
    # at int(aux_per_class / shadow_cp_range[1]).  A null attack.shadow_size
    # defaults to max(2 * n_label, int(aux_per_class * n_label / 10 * 1.3)),
    # cut to the cap.
    cap = int(atk["aux_per_class"] / max(atk["shadow_cp_range"][1], 1e-9))
    size = atk["shadow_size"]
    if size is None:
        size = min(max(n_label * 2, int(atk["aux_per_class"] * n_label / 10 * 1.3)), cap)
    elif size > cap:
        raise ConfigError(f"attack.shadow_size {size} exceeds {cap}, the most the auxiliary "
                          f"store can supply (attack.aux_per_class / "
                          f"attack.shadow_cp_range[1])")
    # Every draw must realize its forced preference from the auxiliary store.
    try:
        draws = attack.draw_shadow_specs(n_label, atk["n_shadows"], size,
                                         tuple(atk["shadow_cp_range"]),
                                         tuple(atk["shadow_cd_range"]), atk["mode"],
                                         derive_seed(resolved["seed"], "shadows"))
    except InputError as e:
        raise ConfigError(f"attack.shadow_cp_range {atk['shadow_cp_range']} with "
                          f"attack.shadow_cd_range {atk['shadow_cd_range']} in {atk['mode']} "
                          f"mode: {e}") from None
    need = max(int(counts.max()) for _, counts, _ in draws)
    if need > atk["aux_per_class"]:
        raise ConfigError(f"attack.shadow_size {size} makes a shadow dataset need {need} samples "
                          f"of one class, more than attack.aux_per_class {atk['aux_per_class']}")
    if ds["kind"] == "idx":
        have = np.bincount(labels)
        if len(have) != n_label:
            raise ConfigError(f"dataset.n_label is {n_label} but dataset.labels holds "
                              f"{len(have)} classes")
        demand = _pool_demand(resolved, fed_spec)
        short = [f"class {c}: {have[c]} samples, {demand[c] - have[c]} short of {demand[c]}"
                 for c in np.flatnonzero(have < demand)]
        if short:
            raise ConfigError(f"dataset.labels {ds['labels']} is too small for the client "
                              f"datasets plus attack.aux_per_class and eval_per_class per "
                              f"class: " + "; ".join(short))
    fl, d, meta = resolved["fl"], resolved["defense"], atk["meta"]
    dp = nn.DpConfig(d["clip_norm"], d["noise_multiplier"]) if d["apply"] == "dp" else None
    client = nn.TrainConfig(fl["learning_rate"], fl["local_epochs"], fl["batch_size"], dp)
    update = dataclasses.replace(client, batch_size=min(fl["batch_size"], size))
    return ExperimentConfig(resolved, fed_spec, draws, arch, client,
                            dataclasses.replace(update, epochs=atk["shadow_epochs"]), update,
                            nn.TrainConfig(meta["learning_rate"], meta["epochs"],
                                           min(16, atk["n_shadows"])))


def _pool_demand(resolved: dict, fed_spec: np.ndarray) -> np.ndarray:
    """Samples of each class a run takes from its pool: the client datasets,
    the auxiliary store and the test set."""
    clients = fed_spec.sum(axis=0)
    return clients + resolved["attack"]["aux_per_class"] + resolved["eval_per_class"]


# ---------------------------------------------------------------------------
# Model and data staging
# ---------------------------------------------------------------------------


def build_model_arch(resolved: dict, feature_shape: tuple) -> nn.Architecture:
    """The client model for samples of ``feature_shape``: an MLP with one
    32-wide hidden layer or, for (rows, cols) images, the small
    two-convolution network.  Under the dropout defense a Dropout layer of
    ``defense.dropout_rate`` sits before the head; no other model has one.
    Raises InputError when the images are too small for the convolutions."""
    defense, n_label = resolved["defense"], resolved["dataset"]["n_label"]
    head = [nn.Dropout(defense["dropout_rate"])] if defense["apply"] == "dropout" else []
    if resolved["model"]["kind"] == "mlp":
        dim = int(np.prod(feature_shape))
        layers = (nn.Dense(dim, 32), nn.Relu(), *head, nn.Dense(32, n_label))
        return nn.Architecture(layers, (dim,), n_label)
    rows, cols = feature_shape
    layers = (
        nn.Conv2d(1, 8, kernel=3), nn.Relu(),
        nn.Conv2d(8, 16, kernel=3), nn.Relu(),
        nn.MaxPool2d(2),
        *head,
        nn.Dense(16 * ((rows - 4) // 2) * ((cols - 4) // 2), n_label),
    )
    return nn.Architecture(layers, (1, rows, cols), n_label)


@dataclass
class StagedData:
    clients: list
    aux: data.LabeledDataset
    test: data.LabeledDataset


def stage_data(cfg: ExperimentConfig) -> StagedData:
    """Build the pool, disjoint client datasets, auxiliary store and test set."""
    seed = cfg.seed
    ds_cfg = cfg["dataset"]
    n_label = ds_cfg["n_label"]
    if ds_cfg["kind"] == "synthetic":
        need = int(_pool_demand(cfg.resolved, cfg.fed_spec).max())
        pool = data.make_synthetic(n_label, ds_cfg["dim"], need,
                                   seed=derive_seed(seed, "pool"), sigma=1.0)
    else:  # validate_config checked the classes and their counts
        pool = data.load_idx(ds_cfg["images"], ds_cfg["labels"])
    clients, used = data.build_federation(pool, cfg.fed_spec, seed=derive_seed(seed, "federation"))
    aux = data.sample_per_class(pool, cfg["attack"]["aux_per_class"], used)
    test = data.sample_per_class(pool, cfg["eval_per_class"],
                                 np.concatenate([used, aux.source_indices]))
    return StagedData(clients, aux, test)


# ---------------------------------------------------------------------------
# Offline phase: shadows and meta-classifier
# ---------------------------------------------------------------------------


@dataclass
class OfflineArtifacts:
    shadows: list
    meta_dataset: data.LabeledDataset
    meta: attack.MetaClassifier


def run_offline(cfg: ExperimentConfig, staged: StagedData) -> OfflineArtifacts:
    """Train the shadows on ``cfg.shadow_draws``, build the federated meta
    dataset from them and fit the meta-classifier, each with the optimiser
    ``cfg`` holds for it."""
    shadows = attack.train_shadows(staged.aux, cfg.arch, cfg.shadow_draws, cfg.shadow_train)
    meta_dataset = attack.build_meta_dataset_federated(
        shadows, staged.aux, cfg.arch, cfg.update_train,
        seed=derive_seed(cfg.seed, "meta-fed"), mode=cfg["attack"]["mode"],
    )
    meta = attack.train_meta(meta_dataset, cfg.meta_train, derive_seed(cfg.seed, "meta-train"))
    return OfflineArtifacts(shadows, meta_dataset, meta)


# ---------------------------------------------------------------------------
# Online phase
# ---------------------------------------------------------------------------


def run_online(cfg: ExperimentConfig, staged: StagedData, x: Optional[int],
               score_rounds: bool):
    """FL with the attacking server, which aggregates each upload with its
    ``x`` partners (``attack.x`` in the attack arm), or by plain FedAvg when
    ``x`` is None (the with_baseline reference arm).

    Returns (round traces, per-round scores, final round state).  Only with
    ``score_rounds`` does a round add (round index, local_acc, global_acc):
    the own-data accuracy of each user's upload (an unsampled user's keeps
    last round's score; round 1 scores all) and of the model sent to it (so
    does a user sent the same parameter bytes as last round).
    """
    seed = cfg.seed
    clients = staged.clients
    init = nn.init_params(cfg.arch, seed=derive_seed(seed, "global-init"))
    profiler = attack.PreferenceProfiler(cfg.arch, staged.aux, x=x, mode=cfg["attack"]["mode"])
    n = len(clients)
    state = fedsim.initial_state(n, init)
    accs = []
    for _ in range(cfg["fl"]["n_rounds"]):
        sent = state.distributed
        state = fedsim.run_round(state, clients, cfg.arch, cfg.client_train,
                                 cfg["fl"]["client_fraction"], profiler, derive_seed(seed, "fl"))
        if score_rounds:
            local, glob = map(list, accs[-1][1:]) if accs else ([None] * n, [None] * n)
            for u in state.selected if accs else range(n):
                local[u] = nn.accuracy(state.uploaded[u], cfg.arch, clients[u].X, clients[u].y)
            for u, m in enumerate(state.distributed):
                if not accs or m.values.tobytes() != sent[u].values.tobytes():
                    glob[u] = nn.accuracy(m, cfg.arch, clients[u].X, clients[u].y)
            accs.append((state.round_index, local, glob))
    return profiler.history, accs, state


def _utilities(final: fedsim.RoundState, accs: list, arch: nn.Architecture,
               staged: StagedData) -> tuple:
    """Mean accuracy of the final round's distributed models on each user's
    own data (``accs``'s last round, if it was scored) and on the test set."""
    own = accs[-1][2] if accs else [nn.accuracy(m, arch, c.X, c.y)
                                    for m, c in zip(final.distributed, staged.clients)]
    test = [nn.accuracy(m, arch, staged.test.X, staged.test.y) for m in final.distributed]
    return float(np.mean(own)), float(np.mean(test))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    run_id: str
    config: dict
    truth: list
    class_counts: list
    predictions: list
    lock_rounds: list
    topk: dict
    utility_test_with: float
    utility_test_without: Optional[float]
    utility_own_with: float
    utility_own_without: Optional[float]
    meta_train_accuracy: float
    ds_trace_attack: list
    ds_trace_baseline: Optional[list]
    baseline_top1: Optional[float]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)


def _ds_trace(history: list, truth: list) -> list:
    """Per round, the mean DS at the preferred class over the sampled users."""
    return [float(np.mean([row[truth[u]] for u, row in zip(tr.selected, tr.ds)]))
            for tr in history]


def _round_log(accs: list, profile: attack.Profile) -> list:
    """One entry per (round, user); a user not sampled in a round, or locked
    before it, has no prediction in it."""
    return [{"round": rnd, "user": u, "local_acc_before": local[u], "global_acc_after": glob[u],
             "locked": lock is not None and lock <= rnd,
             "predicted_class": (None if preds[u] < 0 or lock is not None and lock < rnd
                                 else int(preds[u]))}
            for (rnd, local, glob), preds in zip(accs, profile.predictions)
            for u, lock in enumerate(profile.lock_rounds)]


def _ground_truth(cfg: ExperimentConfig) -> tuple:
    """Each user's class counts, as validation drew them, and preferred class."""
    mode = cfg["attack"]["mode"]
    return cfg.fed_spec.tolist(), [data.preference_class(row, mode) for row in cfg.fed_spec]


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Offline shadow/meta training, FL with the attack hook, evaluation.

    When with_baseline is set, a second arm with plain FedAvg aggregation
    (same seeds, same attacker observation) provides the no-attack utility
    reference and the paired DS trace.
    """
    t0 = time.perf_counter()
    staged = stage_data(cfg)
    offline = run_offline(cfg, staged)
    t_offline = time.perf_counter() - t0

    atk, n_user = cfg["attack"], cfg["federation"]["n_user"]
    history, accs, final = run_online(cfg, staged, atk["x"], out_dir is not None)
    profile = attack.profile_history([(tr.selected, tr.ds) for tr in history], n_user,
                                     offline.meta, atk["th_round"])
    base_history = base_final = base_profile = None
    if cfg["with_baseline"]:
        base_history, _, base_final = run_online(cfg, staged, None, False)
        base_profile = attack.profile_history([(tr.selected, tr.ds) for tr in base_history],
                                              n_user, offline.meta, atk["th_round"])
    t_online = time.perf_counter() - t0 - t_offline

    own_with, test_with = _utilities(final, accs, cfg.arch, staged)
    own_without, test_without = (None, None) if base_final is None else _utilities(
        base_final, [], cfg.arch, staged)
    counts, truth = _ground_truth(cfg)
    topk = {str(k): attack.topk_accuracy_from_counts(profile.rankings, counts, k, atk["mode"])
            for k in range(1, min(3, cfg["dataset"]["n_label"]) + 1)}
    report = RunReport(
        run_id=run_id_for(cfg),
        config=cfg.resolved,
        truth=truth,
        class_counts=counts,
        predictions=profile.verdicts,
        lock_rounds=profile.lock_rounds,
        topk=topk,
        utility_test_with=test_with,
        utility_test_without=test_without,
        utility_own_with=own_with,
        utility_own_without=own_without,
        meta_train_accuracy=offline.meta.train_accuracy,
        ds_trace_attack=_ds_trace(history, truth),
        ds_trace_baseline=None if base_history is None else _ds_trace(base_history, truth),
        baseline_top1=(None if base_profile is None else attack.topk_accuracy_from_counts(
            base_profile.rankings, counts, 1, atk["mode"])),
    )
    if out_dir is not None:
        persist_run(report, _round_log(accs, profile), offline, Path(out_dir),
                    timings={"offline_s": t_offline, "online_s": t_online})
    return report


def run_id_for(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.to_json().encode("utf-8")).hexdigest()[:12]


def persist_run(report: RunReport, round_log: list, offline: OfflineArtifacts,
                out_dir: Path, timings: dict) -> None:
    """Write every artifact of a run, offline ones included, into out_dir;
    ``round_log`` goes to rounds.jsonl, the one per-(round, user) record.
    report.json goes last, so a directory holding it is complete."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(report.config, sort_keys=True, indent=2))
    with open(out_dir / "rounds.jsonl", "w") as f:
        for entry in round_log:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    write_meta_csv(offline.meta_dataset, out_dir / "meta_dataset.csv")
    nn.save_checkpoint(out_dir / "meta.ppam", offline.meta.params, offline.meta.arch)
    (out_dir / "shadows.json").write_text(json.dumps([
        {"index": i, "preference": sh.preference,
         "class_counts": sh.dataset.class_counts.tolist(),
         "sensitivity": [float(v) for v in sh.sensitivity]}
        for i, sh in enumerate(offline.shadows)], indent=2))
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=2))
    (out_dir / "report.json").write_text(report.to_json())


def compare_meta_algorithms(cfg: ExperimentConfig) -> dict:
    """Score the centralized-features meta against the federated-features meta
    on one recorded simulation (identical trajectory for both).

    Returns ``{"centralized": {"accuracy": a}, "federated": {"accuracy": b}}``,
    each arm's meta-classifier accuracy in the federated simulation: the
    fraction of correct predictions over the (round, user) rows the server
    observed, those of the users sampled in each round.  The centralized arm
    reads those users' raw upload sensitivities, the federated arm their DS.
    """
    staged = stage_data(cfg)
    offline = run_offline(cfg, staged)
    centralized = attack.train_meta(attack.build_meta_dataset_centralized(offline.shadows),
                                    cfg.meta_train, derive_seed(cfg.seed, "meta-train"))
    history, _, _ = run_online(cfg, staged, cfg["attack"]["x"], False)
    _, truth = _ground_truth(cfg)
    out = {}
    for label, meta, rounds in (
        ("centralized", centralized,
         [(tr.selected, tr.sensitivities[tr.selected]) for tr in history]),
        ("federated", offline.meta, [(tr.selected, tr.ds) for tr in history]),
    ):
        profile = attack.profile_history(rounds, len(truth), meta, cfg["attack"]["th_round"])
        observed = profile.predictions >= 0
        hits = (profile.predictions == np.array(truth))[observed]
        out[label] = {"accuracy": int(hits.sum()) / hits.size}
    return out


# The defense sweep's DP grid: one variant per noise multiplier, labelled dp_{m:g}.
NOISE_MULTIPLIERS = (0.05, 0.25, 1.0, 4.0)


@dataclass(frozen=True)
class SweepRow:
    label: str
    noise_multiplier: Optional[float]
    attack_acc_top1: float
    model_utility: float


def run_defense_sweep(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> list:
    """One full FL+attack run per client mitigation, all with identical seeds:
    none, dropout, and one DP-SGD variant per entry of :data:`NOISE_MULTIPLIERS`
    at the config's clip norm, each ``cfg`` with its defense block overridden.

    A :class:`SweepRow` per variant holds top-1 attack accuracy and model
    utility (mean test accuracy of the final distributed models).  Neither
    reads the FedAvg baseline arm, so every variant runs with
    ``with_baseline`` false.  Writes sweep.csv into out_dir when given.
    """
    variants = [("none", {"apply": "none"}), ("dropout", {"apply": "dropout"})]
    variants += [(f"dp_{m:g}", {"apply": "dp", "noise_multiplier": m})
                 for m in NOISE_MULTIPLIERS]
    rows = []
    for label, block in variants:
        variant = cfg.with_overrides({"defense": block, "with_baseline": False})
        d = variant["defense"]
        report = run_experiment(variant)
        rows.append(SweepRow(label, d["noise_multiplier"] if d["apply"] == "dp" else None,
                             report.topk["1"], report.utility_test_with))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "sweep.csv", [dataclasses.asdict(r) for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Multi-run reporting
# ---------------------------------------------------------------------------


def report_runs(run_dirs: list, k_values=None, out_dir: Optional[Path] = None):
    """Summary table plus DS-vs-round series for one or more completed runs.

    ``k_values`` defaults to every k that all the runs scored.  Returns
    (summary rows, ds rows); writes summary.csv and ds_vs_round.csv when
    out_dir is given.  Raises OSError on an unreadable report.json, FormatError
    on one that is not JSON or lacks a field read here, and a ConfigError for
    a k that a run's report did not score.
    """
    if not run_dirs:
        raise InputError("no run directories given")
    loaded = []
    for d in map(Path, run_dirs):
        path = d / "report.json"
        try:
            rep = json.loads(path.read_text(encoding="utf-8"))
            cfg = rep["config"]
            row = {
                "run_id": rep["run_id"],
                "dir": str(d),
                "x": cfg["attack"]["x"],
                "aux_per_class": cfg["attack"]["aux_per_class"],
                "n_user": cfg["federation"]["n_user"],
                "seed": cfg["seed"],
                "utility_test_with": rep["utility_test_with"],
                "utility_test_without": rep["utility_test_without"],
                "meta_train_accuracy": rep["meta_train_accuracy"],
            }
            ds = [{"run_id": rep["run_id"], "policy": policy, "round": rnd, "mean_ds_at_truth": v}
                  for policy, trace in (("selective", rep["ds_trace_attack"]),
                                        ("fedavg-baseline", rep.get("ds_trace_baseline") or []))
                  for rnd, v in enumerate(trace, start=1)]
            loaded.append((row, {int(k): v for k, v in rep["topk"].items()}, ds))
        except (ValueError, KeyError, TypeError, AttributeError) as e:  # bad JSON or field
            raise FormatError(f"{path} is not a fedprof report: {e!r}") from None
    if k_values is None:
        k_values = sorted(set.intersection(*(set(topk) for _, topk, _ in loaded)))
    summary, ds_rows = [], []
    for row, topk, ds in loaded:
        for k in k_values:
            if k not in topk:
                raise ConfigError(f"--k {k}: run {row['dir']} scored top-k only for k in "
                                  f"{', '.join(map(str, topk))}")
            row[f"top{k}"] = topk[k]
        summary.append(row)
        ds_rows += ds
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "summary.csv", summary)
        write_csv(out_dir / "ds_vs_round.csv", ds_rows)
    return summary, ds_rows


def write_meta_csv(meta: data.LabeledDataset, path: Path) -> None:
    """One feature column per class (s0, s1, ...), then the preference label."""
    write_csv(path, [{**{f"s{c}": float(v) for c, v in enumerate(x)}, "label": int(label)}
                     for x, label in zip(meta.X, meta.y)])


def write_csv(path: Path, rows: list) -> None:
    """One column per key of the first row, quoted where a value holds a comma,
    quote or newline; None is written as an empty field."""
    if not rows:
        path.write_text("")
        return
    with open(path, "w", newline="") as f:
        out = csv.DictWriter(f, list(rows[0]), lineterminator="\n")
        out.writeheader()
        out.writerows(rows)
