"""Experiment orchestration: strict config ingestion, seeded end-to-end runs
(shadow corpus -> meta-classifier -> FL with the attacking server -> report),
artifact persistence, and plot-ready CSV reporting.

A run is a pure function of (config, seed): every random stream is derived
from the root seed with a labeled sub-seed, and report.json is byte-identical
across reruns (wall-clock timings live in a separate file).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import attack, data, fedsim, nn
from .errors import ConfigError, InputError, SpecError
from .seeding import derive_seed

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# Each leaf is (default, validator); a failed validator is reported with the
# offending key path.  A key whose default is None is optional: it accepts
# null or a value its validator passes.  Booleans are not numbers here.

_NUM = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
_INT = lambda v: isinstance(v, int) and not isinstance(v, bool)
_POS = lambda v: _NUM(v) and v > 0
_POS_INT = lambda v: _INT(v) and v > 0
_NONNEG = lambda v: _NUM(v) and v >= 0
_FRAC = lambda v: _NUM(v) and 0 < v <= 1
_UNIT = lambda v: _NUM(v) and 0 <= v <= 1
_RANGE = lambda v: (isinstance(v, list) and len(v) == 2
                    and all(_UNIT(b) for b in v) and v[0] <= v[1])
_NAME = lambda v: isinstance(v, str) and v != ""

_SCHEMA = {
    "seed": (1, lambda v: _INT(v) and v >= 0),
    "output_dir": ("runs", _NAME),
    "dataset": {
        "kind": ("synthetic", lambda v: v in ("synthetic", "idx")),
        "n_label": (10, lambda v: _INT(v) and v >= 2),
        "dim": (16, lambda v: _INT(v) and v >= 2),
        "sigma": (1.0, _POS),
        "images": (None, _NAME),
        "labels": (None, _NAME),
    },
    "federation": {
        "n_user": (10, _POS_INT),
        "user_size": (600, _POS_INT),
        "cp_range": ([0.4, 0.6], _RANGE),
        "cd_range": ([0.4, 0.6], _RANGE),
        "mode": ("majority", lambda v: v in ("majority", "minority")),
        "ud_target": (None, _UNIT),
        "id_target": (None, _NONNEG),
        "equalize_rest": (True, lambda v: isinstance(v, bool)),
    },
    "fl": {
        "n_rounds": (15, _POS_INT),
        "client_fraction": (1.0, _FRAC),
        "local_epochs": (1, _POS_INT),
        "learning_rate": (0.03, _POS),
        "batch_size": (32, _POS_INT),
        "aggregation": ("selective", lambda v: v in ("selective", "fedavg")),
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
            "hidden": (32, _POS_INT),
            "learning_rate": (0.1, _POS),
            "epochs": (300, _POS_INT),
            "batch_size": (16, _POS_INT),
        },
    },
    "model": {
        "kind": ("mlp", lambda v: v in ("mlp", "cnn")),
        "hidden": ([32], lambda v: isinstance(v, list) and all(_POS_INT(h) for h in v)),
    },
    "defense": {
        "apply": ("none", lambda v: v in ("none", "dropout", "dp")),
        "dropout_rate": (0.5, lambda v: _NUM(v) and 0 <= v < 1),
        "clip_norm": (10.0, _POS),
        "noise_multiplier": (0.0, _NONNEG),
        "noise_multipliers": ([0.05, 0.25, 1.0, 4.0],
                              lambda v: isinstance(v, list) and all(_NONNEG(m) for m in v)),
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
        value = raw.get(key, default)
        if not (value is None and default is None) and not validator(value):
            problems.append(f"invalid value for {where}: {value!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated experiment description (plain dict inside), the
    client and shadow specs drawn from it and the client model, all of which
    the run consumes."""

    resolved: dict
    fed_spec: data.FederationSpec
    shadow_draws: list
    arch: nn.Architecture

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


def dp_label(noise_multiplier: float) -> str:
    """The defense-sweep label of the DP variant with this noise multiplier."""
    return f"dp_{noise_multiplier:g}"


def validate_config(raw_text: str) -> ExperimentConfig:
    """Parse, strictly validate and default-fill a JSON experiment config,
    and build the client model and draw the client and shadow specs its run
    consumes.

    Every violated invariant, a spec the config cannot realize included, is
    reported with its key path; unknown keys are rejected.
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
            elif not Path(ds[k]).exists():
                problems.append(f"dataset.{k}: file not found: {ds[k]}")
    if resolved["attack"]["x"] >= resolved["federation"]["n_user"]:
        problems.append("attack.x must be smaller than federation.n_user")
    if resolved["attack"]["n_shadows"] < ds["n_label"]:
        problems.append("attack.n_shadows must be at least dataset.n_label")
    if resolved["model"]["kind"] == "cnn" and ds["kind"] == "synthetic":
        side = int(round(ds["dim"] ** 0.5))
        if side * side != ds["dim"]:
            problems.append("model.kind 'cnn' on synthetic data needs a square dataset.dim")
    multipliers = resolved["defense"]["noise_multipliers"]
    labels = [dp_label(m) for m in multipliers]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        problems.append(f"defense.noise_multipliers {multipliers} give two entries the same "
                        f"sweep label: {', '.join(clashes)}")
    if problems:
        raise ConfigError("; ".join(problems))
    if ds["kind"] == "idx":
        _, rows, cols = data.load_idx_header(ds["images"])
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
    fed, n_label = resolved["federation"], ds["n_label"]
    try:
        fed_spec = data.make_federation_spec(
            n_user=fed["n_user"], n_label=n_label, total_size=fed["user_size"],
            cp_range=tuple(fed["cp_range"]), cd_range=tuple(fed["cd_range"]),
            seed=derive_seed(resolved["seed"], "federation-spec"), mode=fed["mode"],
            ud_target=fed["ud_target"], id_target=fed["id_target"],
            equalize_rest=fed["equalize_rest"])
    except SpecError as e:  # a ConfigError from the user sizes names its own key
        raise ConfigError(f"federation.cp_range {fed['cp_range']} with federation.cd_range "
                          f"{fed['cd_range']} in {fed['mode']} mode: {e}") from None
    smallest, batch = min(s.total_size for s in fed_spec.specs), resolved["fl"]["batch_size"]
    if smallest < batch:
        key = "federation.user_size" if smallest == fed["user_size"] else "federation.id_target"
        raise ConfigError(f"fl.batch_size {batch} exceeds the smallest user dataset "
                          f"({smallest} samples, set by {key})")
    # A shadow's preferred class takes up to shadow_cp_range[1] of its dataset,
    # all drawn from that class's aux_per_class samples, so the size is capped
    # at int(aux_per_class / shadow_cp_range[1]).  A null attack.shadow_size
    # defaults to max(2 * n_label, int(aux_per_class * n_label / 10 * 1.3)),
    # cut to the cap.
    atk = resolved["attack"]
    cap = int(atk["aux_per_class"] / max(atk["shadow_cp_range"][1], 1e-9))
    size = atk["shadow_size"]
    if size is None:
        size = min(max(n_label * 2, int(atk["aux_per_class"] * n_label / 10 * 1.3)), cap)
    elif size > cap:
        raise ConfigError(f"attack.shadow_size {size} exceeds {cap}, the most the auxiliary "
                          f"store can supply (attack.aux_per_class / "
                          f"attack.shadow_cp_range[1])")
    sampler = attack.default_shadow_sampler(n_label, size, tuple(atk["shadow_cp_range"]),
                                            tuple(atk["shadow_cd_range"]), atk["mode"])
    # Every draw must realize its forced preference from the auxiliary store.
    try:
        draws = attack.draw_shadow_specs(n_label, atk["n_shadows"], sampler,
                                         derive_seed(resolved["seed"], "shadows"), atk["mode"])
    except (ConfigError, SpecError) as e:
        raise ConfigError(f"attack.shadow_cp_range {atk['shadow_cp_range']} with "
                          f"attack.shadow_cd_range {atk['shadow_cd_range']} in {atk['mode']} "
                          f"mode: {e}") from None
    need = max(int(data.spec_counts(spec).max()) for spec, _ in draws)
    if need > atk["aux_per_class"]:
        raise ConfigError(f"attack.shadow_size {size} makes a shadow dataset need {need} samples "
                          f"of one class, more than attack.aux_per_class {atk['aux_per_class']}")
    if ds["kind"] == "idx":
        have = np.bincount(data.load_idx_labels(ds["labels"]))
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
    return ExperimentConfig(resolved, fed_spec, draws, arch)


def _pool_demand(resolved: dict, fed_spec: data.FederationSpec) -> np.ndarray:
    """Samples of each class a run takes from its pool: the client datasets,
    the auxiliary store and the test set."""
    clients = np.stack([data.spec_counts(s) for s in fed_spec.specs]).sum(axis=0)
    return clients + resolved["attack"]["aux_per_class"] + resolved["eval_per_class"]


# ---------------------------------------------------------------------------
# Model and data staging
# ---------------------------------------------------------------------------


def build_model_arch(resolved: dict, feature_shape: tuple) -> nn.Architecture:
    """The client model for samples of ``feature_shape``: an MLP or, for
    (rows, cols) images, the small two-convolution network.  Under the
    dropout defense a Dropout layer of ``defense.dropout_rate`` sits before
    the head; no other model has one.  Raises InputError when the images are
    too small for the convolutions."""
    defense, n_label = resolved["defense"], resolved["dataset"]["n_label"]
    head = [nn.Dropout(defense["dropout_rate"])] if defense["apply"] == "dropout" else []
    if resolved["model"]["kind"] == "mlp":
        dim = int(np.prod(feature_shape))
        layers, width = [], dim
        for h in resolved["model"]["hidden"]:
            layers += [nn.Dense(width, h), nn.Relu()]
            width = h
        layers += head + [nn.Dense(width, n_label)]
        return nn.Architecture(tuple(layers), (dim,), n_label)
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
                                   seed=derive_seed(seed, "pool"), sigma=ds_cfg["sigma"])
    else:  # validate_config checked the classes and their counts
        pool = data.load_idx(ds_cfg["images"], ds_cfg["labels"])
    clients, used = data.build_federation(pool, cfg.fed_spec, seed=derive_seed(seed, "federation"))
    aux = data.sample_per_class(pool, cfg["attack"]["aux_per_class"], used)
    test = data.sample_per_class(pool, cfg["eval_per_class"],
                                 np.concatenate([used, aux.source_indices]))
    return StagedData(clients, aux, test)


def client_train_config(cfg: ExperimentConfig) -> nn.TrainConfig:
    d = cfg["defense"]
    dp = (nn.DpConfig(clip_norm=d["clip_norm"], noise_multiplier=d["noise_multiplier"])
          if d["apply"] == "dp" else None)
    return nn.TrainConfig(
        learning_rate=cfg["fl"]["learning_rate"],
        epochs=cfg["fl"]["local_epochs"],
        batch_size=cfg["fl"]["batch_size"],
        dp=dp,
    )


# ---------------------------------------------------------------------------
# Offline phase: shadows and meta-classifier
# ---------------------------------------------------------------------------


@dataclass
class OfflineArtifacts:
    shadows: list
    meta_dataset: data.LabeledDataset
    meta: attack.MetaClassifier


def _train_meta(cfg: ExperimentConfig, meta_dataset: data.LabeledDataset) -> attack.MetaClassifier:
    meta = cfg["attack"]["meta"]
    meta_cfg = nn.TrainConfig(
        learning_rate=meta["learning_rate"], epochs=meta["epochs"], batch_size=meta["batch_size"],
    )
    return attack.train_meta(meta_dataset, meta_cfg, derive_seed(cfg.seed, "meta-train"),
                             hidden=meta["hidden"])


def run_offline(cfg: ExperimentConfig, staged: StagedData) -> OfflineArtifacts:
    atk = cfg["attack"]
    train_cfg = client_train_config(cfg)
    shadow_size = cfg.shadow_draws[0][0].total_size
    update_cfg = dataclasses.replace(train_cfg, batch_size=min(train_cfg.batch_size, shadow_size))
    shadow_cfg = dataclasses.replace(update_cfg, epochs=atk["shadow_epochs"])
    shadows = attack.train_shadows(staged.aux, cfg.arch, cfg.shadow_draws, shadow_cfg)
    meta_dataset = attack.build_meta_dataset_federated(
        shadows, staged.aux, cfg.arch, update_cfg,
        seed=derive_seed(cfg.seed, "meta-fed"), mode=atk["mode"],
    )
    return OfflineArtifacts(shadows, meta_dataset, _train_meta(cfg, meta_dataset))


# ---------------------------------------------------------------------------
# Online phase
# ---------------------------------------------------------------------------


def run_online(cfg: ExperimentConfig, staged: StagedData, aggregation: Optional[str] = None):
    """FL with the attacking server.

    Returns (round traces, per-round (round index, local_acc, global_acc),
    final round state); the models of earlier rounds are not kept.
    """
    seed = cfg.seed
    atk = cfg["attack"]
    n_user = cfg["federation"]["n_user"]
    selective = (aggregation or cfg["fl"]["aggregation"]) == "selective"
    init = nn.init_params(cfg.arch, seed=derive_seed(seed, "global-init"))
    profiler = attack.PreferenceProfiler(cfg.arch, staged.aux, n_user, init,
                                         x=atk["x"] if selective else None, mode=atk["mode"])
    train_cfg = client_train_config(cfg)
    state = fedsim.initial_state(n_user, init)
    accs = []
    for _ in range(cfg["fl"]["n_rounds"]):
        state = fedsim.run_round(state, staged.clients, cfg.arch, train_cfg,
                                 cfg["fl"]["client_fraction"], profiler, derive_seed(seed, "fl"))
        accs.append((state.round_index, state.local_acc, state.global_acc))
    return profiler.history, accs, state


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
    round_log: list

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)


def _mean_test_acc(state: fedsim.RoundState, arch: nn.Architecture,
                   test: data.LabeledDataset) -> float:
    return float(np.mean([nn.accuracy(m, arch, test.X, test.y) for m in state.distributed]))


def _ds_trace(history: list, truth: list) -> list:
    return [float(np.mean([tr.ds[u][truth[u]] for u in range(len(truth))]))
            for tr in history]


def _round_log(accs: list, profile: attack.Profile) -> list:
    """One entry per (round, user); a user locked before a round has no
    prediction in it."""
    return [{"round": rnd, "user": u, "local_acc_before": local[u], "global_acc_after": glob[u],
             "locked": lock is not None and lock <= rnd,
             "predicted_class": None if lock is not None and lock < rnd else int(preds[u])}
            for (rnd, local, glob), preds in zip(accs, profile.predictions)
            for u, lock in enumerate(profile.lock_rounds)]


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Offline shadow/meta training, FL with the attack hook, evaluation.

    When fl.aggregation is "selective" and with_baseline is set, a second arm
    with plain FedAvg aggregation (same seeds, same attacker observation)
    provides the no-attack utility reference and the paired DS trace.
    """
    t0 = time.time()
    staged = stage_data(cfg)
    offline = run_offline(cfg, staged)
    t_offline = time.time() - t0

    atk = cfg["attack"]
    history, accs, final = run_online(cfg, staged)
    profile = attack.profile_history([tr.ds for tr in history], offline.meta, atk["th_round"])
    base_history = base_final = base_profile = None
    if cfg["with_baseline"] and cfg["fl"]["aggregation"] == "selective":
        base_history, _, base_final = run_online(cfg, staged, aggregation="fedavg")
        base_profile = attack.profile_history([tr.ds for tr in base_history], offline.meta,
                                              atk["th_round"])
    t_online = time.time() - t0 - t_offline

    truth = [data.preference_class(c.class_counts, atk["mode"]) for c in staged.clients]
    counts = [c.class_counts.tolist() for c in staged.clients]
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
        utility_test_with=_mean_test_acc(final, cfg.arch, staged.test),
        utility_test_without=(None if base_final is None
                              else _mean_test_acc(base_final, cfg.arch, staged.test)),
        utility_own_with=float(np.mean(final.global_acc)),
        utility_own_without=(None if base_final is None
                             else float(np.mean(base_final.global_acc))),
        meta_train_accuracy=offline.meta.train_accuracy,
        ds_trace_attack=_ds_trace(history, truth),
        ds_trace_baseline=None if base_history is None else _ds_trace(base_history, truth),
        baseline_top1=(None if base_profile is None else attack.topk_accuracy_from_counts(
            base_profile.rankings, counts, 1, atk["mode"])),
        round_log=_round_log(accs, profile),
    )
    if out_dir is not None:
        persist_run(report, offline, Path(out_dir),
                    timings={"offline_s": t_offline, "online_s": t_online})
    return report


def run_id_for(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.to_json().encode("utf-8")).hexdigest()[:12]


def persist_run(report: RunReport, offline: OfflineArtifacts, out_dir: Path,
                timings: dict) -> Path:
    """Write every artifact of a run, offline ones included, into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(report.config, sort_keys=True, indent=2))
    (out_dir / "report.json").write_text(report.to_json())
    with open(out_dir / "rounds.jsonl", "w") as f:
        for entry in report.round_log:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    write_meta_csv(offline.meta_dataset, out_dir / "meta_dataset.csv")
    nn.save_checkpoint(out_dir / "meta.ppam", offline.meta.params, offline.meta.arch)
    (out_dir / "shadows.json").write_text(json.dumps([
        {"index": i, "preference": sh.preference,
         "class_counts": sh.dataset.class_counts.tolist(),
         "sensitivity": [float(v) for v in sh.sensitivity]}
        for i, sh in enumerate(offline.shadows)], indent=2))
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=2))
    return out_dir


def compare_meta_algorithms(cfg: ExperimentConfig) -> dict:
    """Score the centralized-features meta against the federated-features meta
    on one recorded simulation (identical trajectory for both).

    The headline number is the meta-classifier's accuracy in the federated
    simulation: the fraction of correct (round, user) predictions across the
    whole run.  The streak-locked pipeline verdicts are reported alongside.
    """
    staged = stage_data(cfg)
    offline = run_offline(cfg, staged)
    centralized = _train_meta(cfg, attack.build_meta_dataset_centralized(offline.shadows))
    history, _, _ = run_online(cfg, staged)
    mode = cfg["attack"]["mode"]
    counts = [c.class_counts.tolist() for c in staged.clients]
    truth = [data.preference_class(c.class_counts, mode) for c in staged.clients]
    out = {}
    for label, meta, features in (
        ("centralized", centralized, [tr.sensitivities for tr in history]),
        ("federated", offline.meta, [tr.ds for tr in history]),
    ):
        profile = attack.profile_history(features, meta, cfg["attack"]["th_round"])
        hits = profile.predictions == np.array(truth)
        out[label] = {
            "accuracy": int(hits.sum()) / hits.size,
            "locked_top1": attack.topk_accuracy_from_counts(profile.rankings, counts, 1, mode),
            "predictions": profile.verdicts,
            "lock_rounds": profile.lock_rounds,
            "meta_train_accuracy": meta.train_accuracy,
        }
    return out


# ---------------------------------------------------------------------------
# Multi-run reporting
# ---------------------------------------------------------------------------


def report_runs(run_dirs: list, k_values=None, out_dir: Optional[Path] = None):
    """Summary table plus DS-vs-round series for one or more completed runs.

    ``k_values`` defaults to every k that all the runs scored.  Returns
    (summary rows, ds rows); writes summary.csv and ds_vs_round.csv when
    out_dir is given.  Raises on missing artifacts, and a ConfigError for a k
    that a run's report did not score.
    """
    if not run_dirs:
        raise InputError("no run directories given")
    reports = []
    for d in map(Path, run_dirs):
        if not (d / "report.json").exists():
            raise OSError(f"missing report.json under {d}")
        reports.append((d, json.loads((d / "report.json").read_text())))
    if k_values is None:
        k_values = sorted(set.intersection(*(set(map(int, rep["topk"])) for _, rep in reports)))
    summary, ds_rows = [], []
    for d, rep in reports:
        cfg = rep["config"]
        row = {
            "run_id": rep["run_id"],
            "dir": str(d),
            "aggregation": cfg["fl"]["aggregation"],
            "x": cfg["attack"]["x"],
            "aux_per_class": cfg["attack"]["aux_per_class"],
            "n_user": cfg["federation"]["n_user"],
            "seed": cfg["seed"],
            "utility_test_with": rep["utility_test_with"],
            "utility_test_without": rep["utility_test_without"],
            "meta_train_accuracy": rep["meta_train_accuracy"],
        }
        for k in k_values:
            if str(k) not in rep["topk"]:
                raise ConfigError(
                    f"--k {k}: run {d} scored top-k only for k in {', '.join(rep['topk'])}")
            row[f"top{k}"] = rep["topk"][str(k)]
        summary.append(row)
        for rnd, v in enumerate(rep["ds_trace_attack"], start=1):
            ds_rows.append({"run_id": rep["run_id"], "policy": cfg["fl"]["aggregation"],
                            "round": rnd, "mean_ds_at_truth": v})
        if rep.get("ds_trace_baseline"):
            for rnd, v in enumerate(rep["ds_trace_baseline"], start=1):
                ds_rows.append({"run_id": rep["run_id"], "policy": "fedavg-baseline",
                                "round": rnd, "mean_ds_at_truth": v})
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
    """One column per key of the first row; None is written as an empty field."""
    if not rows:
        path.write_text("")
        return
    cols = list(rows[0].keys())
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join("" if r[c] is None else str(r[c]) for c in cols) + "\n")
