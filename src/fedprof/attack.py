"""The attacking server: per-class model-sensitivity extraction, shadow-model
corpus and meta-classifier construction (centralized and federated variants),
selective-aggregation partner choice, and streak-gated profiling as a fold
over the round traces the server records.

Model sensitivity of class c is the L1 norm of the feature-layer gradient of
the mean loss on the class-c auxiliary subset: how far one full-batch
retraining step on that subset would move the feature layer, per unit of
learning rate.  The profiler consumes the per-class absolute difference
between the sensitivity of the model a user received last round and the
sensitivity of the model it uploaded this round.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import fedsim, nn
from .data import (AuxiliaryStore, DistributionSpec, LabeledDataset, preference_class,
                   realize_distribution, sample_cp_cd, spec_counts)
from .errors import ConfigError, InputError, StateError
from .seeding import derive_seed

# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------


def extract_sensitivity(pv: nn.ParamVector, arch: nn.Architecture,
                        aux: AuxiliaryStore) -> np.ndarray:
    """Per-class model sensitivity: the summed absolute feature-layer gradient
    of the mean loss on each class's auxiliary samples.  The input model is
    never mutated."""
    off, length = pv.layout[arch.feature_id]
    out = np.zeros(aux.n_label)
    for c in range(aux.n_label):
        Xc = aux.per_class[c]
        if len(Xc) == 0:
            raise InputError(f"auxiliary store has no samples for class {c}")
        grad = nn.backward(pv, arch, Xc, np.full(len(Xc), c, dtype=np.int64))
        out[c] = np.abs(grad.values[off:off + length]).sum()
    return out


def differential_sensitivity(s_agg_prev: np.ndarray, s_now: np.ndarray) -> np.ndarray:
    """Elementwise |previous aggregated-model sensitivity - current sensitivity|."""
    a = np.asarray(s_agg_prev, dtype=np.float64)
    b = np.asarray(s_now, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"sensitivity lengths differ: {a.shape} vs {b.shape}")
    return np.abs(a - b)


def normalize_features(v: np.ndarray) -> np.ndarray:
    """Scale a feature vector by its max; zero vectors pass through unchanged."""
    v = np.asarray(v, dtype=np.float64)
    m = v.max()
    return v / m if m > 0 else v.copy()


# ---------------------------------------------------------------------------
# Shadow corpus
# ---------------------------------------------------------------------------


@dataclass
class ShadowRecord:
    params: nn.ParamVector
    dataset: LabeledDataset
    preference: int
    sensitivity: np.ndarray


@dataclass
class MetaSample:
    features: np.ndarray
    label: int


def default_shadow_sampler(n_label: int, total_size: int,
                           cp_range=(0.35, 0.7), cd_range=(0.1, 0.6),
                           mode: str = "majority") -> Callable:
    """Distribution sampler for shadow datasets; cd is clamped below cp."""

    def sample(preferred: int, rng: np.random.Generator) -> DistributionSpec:
        cp, cd = sample_cp_cd(rng, cp_range, cd_range, mode)
        return DistributionSpec(n_label, total_size, cp, cd, preferred, mode)

    return sample


def draw_shadow_specs(n_label: int, n_shadows: int, spec_sampler: Callable, seed: int,
                      mode: str = "majority") -> List[Tuple[DistributionSpec, int]]:
    """One (spec, sub-seed) per shadow, preference classes forced round-robin
    so every class is covered; a draw whose class counts do not prefer the
    forced class is resampled.  No data is read, so a config can be checked
    before a run."""
    if n_shadows < n_label:
        raise ConfigError(f"{n_shadows} shadows cannot cover {n_label} preference classes")
    draws = []
    for i in range(n_shadows):
        forced = i % n_label
        for attempt in range(50):
            sub = derive_seed(seed, "shadow", i, attempt)
            spec = spec_sampler(forced, np.random.default_rng(derive_seed(sub, "spec")))
            if preference_class(spec_counts(spec), mode) == forced:
                break
        else:
            raise ConfigError(f"could not realize a shadow preferring class {forced}")
        draws.append((spec, sub))
    return draws


def train_shadows(aux: AuxiliaryStore, arch: nn.Architecture,
                  draws: List[Tuple[DistributionSpec, int]],
                  train_cfg: nn.TrainConfig) -> List[ShadowRecord]:
    """Train one shadow model per :func:`draw_shadow_specs` draw on a dataset
    realized from the auxiliary pool; its preference is the spec's preferred
    class."""
    pool = aux.to_dataset()
    shadows = []
    for spec, sub in draws:
        ds = realize_distribution(pool, spec, seed=derive_seed(sub, "data"))
        params = nn.init_params(arch, seed=derive_seed(sub, "init"))
        cfg = dataclasses.replace(train_cfg, seed=derive_seed(sub, "train"))
        params = nn.train(params, arch, ds.X, ds.y, cfg)
        shadows.append(ShadowRecord(params, ds, spec.preferred_class,
                                    extract_sensitivity(params, arch, aux)))
    return shadows


# ---------------------------------------------------------------------------
# Meta datasets
# ---------------------------------------------------------------------------


def build_meta_dataset_centralized(shadows: List[ShadowRecord]) -> List[MetaSample]:
    """One (sensitivity vector, preference) sample per shadow model."""
    if not shadows:
        raise InputError("no shadow records")
    return [MetaSample(s.sensitivity, s.preference) for s in shadows]


def _most_opposite(column, target: int, mode: str) -> List[int]:
    """Every id but ``target``, most opposite first at one class: the largest
    ``column[id]`` first in majority mode, the smallest first in minority
    mode.  Ties go to the lower id."""
    sign = -1.0 if mode == "majority" else 1.0
    others = [j for j in range(len(column)) if j != target]
    return sorted(others, key=lambda j: (sign * column[j], j))


def _pair_partner(shadows: List[ShadowRecord], i: int, mode: str) -> int:
    """The other shadow with the most opposite sensitivity at shadow i's class."""
    key = shadows[i].preference
    return _most_opposite([s.sensitivity[key] for s in shadows], i, mode)[0]


def build_meta_dataset_federated(shadows: List[ShadowRecord], aux: AuxiliaryStore,
                                 arch: nn.Architecture, update_cfg: nn.TrainConfig, seed: int,
                                 mode: str = "majority") -> List[MetaSample]:
    """Pair each shadow with its most opposite peer and mimic two FL rounds.

    For shadow i: average it (equal weights) with the partner, extract S1 of
    the aggregate, retrain the aggregate for one pass over shadow i's own
    dataset (the next-round local update), extract S2, and emit
    (|S1 - S2|, preference of i).
    """
    if len(shadows) < 2:
        raise ConfigError("federated meta dataset needs at least two shadows")
    samples = []
    for i, sh in enumerate(shadows):
        partner = _pair_partner(shadows, i, mode)
        agg = fedsim.fedavg([sh.params, shadows[partner].params], [1.0, 1.0])
        s1 = extract_sensitivity(agg, arch, aux)
        cfg = dataclasses.replace(update_cfg, seed=derive_seed(seed, "shadow-update", i))
        updated = nn.train(agg, arch, sh.dataset.X, sh.dataset.y, cfg)
        s2 = extract_sensitivity(updated, arch, aux)
        samples.append(MetaSample(differential_sensitivity(s1, s2), sh.preference))
    return samples


# ---------------------------------------------------------------------------
# Meta-classifier
# ---------------------------------------------------------------------------


@dataclass
class MetaClassifier:
    """Small perceptron mapping max-normalized sensitivity features to classes."""

    params: nn.ParamVector
    arch: nn.Architecture
    train_accuracy: float = 0.0

    def scores(self, features: np.ndarray) -> np.ndarray:
        f = normalize_features(features)
        return nn.predict_logits(self.params, self.arch, f[None, :])[0]

    def predict(self, features: np.ndarray) -> int:
        return int(np.argmax(self.scores(features)))

    def ranking(self, features: np.ndarray) -> np.ndarray:
        """All classes ordered from most to least likely preference."""
        return np.argsort(-self.scores(features), kind="stable")


def train_meta(meta_samples: List[MetaSample], n_label: int,
               train_cfg: nn.TrainConfig, hidden: int = 32) -> MetaClassifier:
    """Fit the meta-classifier on (features, preference) pairs."""
    if len(meta_samples) < n_label:
        raise ConfigError(
            f"need at least {n_label} meta samples, got {len(meta_samples)}"
        )
    labels = np.array([s.label for s in meta_samples])
    missing = sorted(set(range(n_label)) - set(labels.tolist()))
    if missing:
        raise ConfigError(f"meta dataset has no samples for classes {missing}")
    feats = np.stack([normalize_features(s.features) for s in meta_samples])
    arch = nn.Architecture(
        (nn.Dense(n_label, hidden), nn.Relu(), nn.Dense(hidden, n_label)),
        (n_label,), n_label,
    )
    params = nn.init_params(arch, seed=derive_seed(train_cfg.seed, "meta-init"))
    cfg = dataclasses.replace(train_cfg, batch_size=min(train_cfg.batch_size, len(feats)))
    params = nn.train(params, arch, feats, labels, cfg)
    acc = nn.accuracy(params, arch, feats, labels)
    return MetaClassifier(params, arch, acc)


# ---------------------------------------------------------------------------
# Selective aggregation partner choice
# ---------------------------------------------------------------------------


def select_partners(target_user: int, all_sensitivities, x: int,
                    mode: str = "majority") -> List[int]:
    """The x other users with the most opposite sensitivity at the candidate class.

    The candidate class is argmin of the target's sensitivity in majority mode
    (argmax in minority mode); partners are the x users with the largest
    (resp. smallest) sensitivity there.  Ties break toward lower user ids.
    """
    n = len(all_sensitivities)
    if x > n - 1:
        raise InputError(f"x={x} but only {n - 1} other users exist")
    s_t = np.asarray(all_sensitivities[target_user])
    c = int(np.argmin(s_t)) if mode == "majority" else int(np.argmax(s_t))
    return _most_opposite([s[c] for s in all_sensitivities], target_user, mode)[:x]


# ---------------------------------------------------------------------------
# Online profiling
# ---------------------------------------------------------------------------


@dataclass
class ProfilerState:
    """Per-user verdict streaks and locks for streak-gated profiling."""

    th_round: int
    n_user: int
    last_pred: list = field(default_factory=list)
    streak: list = field(default_factory=list)
    locked: list = field(default_factory=list)
    locked_round: list = field(default_factory=list)

    def __post_init__(self):
        if self.th_round < 1:
            raise InputError("th_round must be >= 1")
        if not self.last_pred:
            self.last_pred = [None] * self.n_user
            self.streak = [0] * self.n_user
            self.locked = [None] * self.n_user
            self.locked_round = [None] * self.n_user


def profile_round(state: ProfilerState, user: int, features: np.ndarray,
                  meta: MetaClassifier, round_index: Optional[int] = None):
    """Feed one round of features for one user; lock after th_round repeats.

    Returns (prediction, locked?).  Calling this for an already locked user is
    a state error: monitoring them is over.
    """
    if state.locked[user] is not None:
        raise StateError(f"user {user} is already locked")
    pred = meta.predict(features)
    if pred == state.last_pred[user]:
        state.streak[user] += 1
    else:
        state.last_pred[user] = pred
        state.streak[user] = 1
    locked = state.streak[user] >= state.th_round
    if locked:
        state.locked[user] = pred
        state.locked_round[user] = round_index
    return pred, locked


def topk_accuracy_from_counts(predicted_rankings, class_counts_list, k: int,
                              mode: str = "majority") -> float:
    """Top-k accuracy against count-derived ground truth, tie-aware.

    The true ranking runs from the largest count down in majority mode and
    from the smallest count up in minority mode.  Classes ranked strictly
    before the k-th class are mandatory; classes tied with it are
    interchangeable.  A prediction is correct iff its top-k set is one of the
    valid top-k sets, so order within the top-k is ignored, but at k=1 a
    preference ranked second is a miss.
    """
    if len(predicted_rankings) != len(class_counts_list):
        raise InputError("rankings and counts differ in length")
    sign = 1 if mode == "majority" else -1
    hits = 0
    for rank, counts in zip(predicted_rankings, class_counts_list):
        counts = sign * np.asarray(counts)
        if k > counts.size or k > len(rank):
            raise InputError(f"k={k} exceeds the number of classes")
        kth = np.sort(counts)[::-1][k - 1]
        mandatory = set(np.flatnonzero(counts > kth).tolist())
        optional = set(np.flatnonzero(counts == kth).tolist())
        picked = set(int(c) for c in rank[:k])
        hits += int(mandatory <= picked <= (mandatory | optional))
    return hits / len(predicted_rankings)


# ---------------------------------------------------------------------------
# The attacking server as an aggregation hook
# ---------------------------------------------------------------------------


@dataclass
class RoundTrace:
    """What the server observed in one round, per user: the sensitivity of
    the upload and its differential sensitivity (DS) against the model the
    user received the round before."""

    round_index: int
    sensitivities: np.ndarray
    ds: np.ndarray


class PreferenceProfiler:
    """Aggregation hook that extracts sensitivities, records a RoundTrace per
    round and aggregates each upload with its x :func:`select_partners`
    partners at equal weights, or by plain FedAvg when x is None.

    ``init_model`` is the model every user starts from.  Verdicts never feed
    back into aggregation, so :func:`profile_history` computes them afterwards
    over ``history``.
    """

    def __init__(self, arch: nn.Architecture, aux: AuxiliaryStore, n_user: int,
                 init_model: nn.ParamVector, x: Optional[int] = None,
                 mode: str = "majority"):
        self.arch = arch
        self.aux = aux
        self.n_user = n_user
        self.x = x
        self.mode = mode
        self.prev_agg_sens = np.tile(extract_sensitivity(init_model, arch, aux), (n_user, 1))
        self.history: List[RoundTrace] = []

    def __call__(self, round_index: int, uploads: list, weights: list,
                 selected: list) -> list:
        sens = np.stack([extract_sensitivity(uploads[u], self.arch, self.aux)
                         for u in range(self.n_user)])
        ds = differential_sensitivity(self.prev_agg_sens, sens)
        self.history.append(RoundTrace(round_index, sens, ds))
        distributed, self.prev_agg_sens = self._aggregate(round_index, uploads, weights,
                                                          selected, sens)
        return distributed

    def _aggregate(self, round_index, uploads, weights, selected, sens):
        n = self.n_user
        if self.x is None:
            distributed = fedsim.fedavg_hook(round_index, uploads, weights, selected)
            s = extract_sensitivity(distributed[0], self.arch, self.aux)
            return distributed, np.tile(s, (n, 1))
        distributed, agg_sens = [], []
        for u in range(n):
            group = [u] + select_partners(u, sens, self.x, self.mode)
            agg = fedsim.fedavg([uploads[v] for v in group], [1.0] * len(group), ids=group)
            distributed.append(agg)
            agg_sens.append(extract_sensitivity(agg, self.arch, self.aux))
        return distributed, np.stack(agg_sens)


# ---------------------------------------------------------------------------
# Verdicts: one fold over the recorded round traces
# ---------------------------------------------------------------------------


def round_features(trace: RoundTrace, feature_mode: str) -> np.ndarray:
    """The per-user features a meta-classifier reads in one round.

    ``"differential"`` is the cross-round differential sensitivity,
    ``"sensitivity"`` the uploaded model's raw sensitivity vector (the
    centralized-meta baseline).
    """
    if feature_mode == "differential":
        return trace.ds
    if feature_mode == "sensitivity":
        return trace.sensitivities
    raise ConfigError(f"unknown feature mode {feature_mode!r}")


@dataclass
class Profile:
    """Streak-gated verdicts over a run.

    ``predictions[r][u]`` is round r's prediction for user u, None once the
    user was locked in an earlier round; ``locked[r][u]`` is the class user u
    is locked to after round r, or None.  ``verdicts`` are the locked classes,
    falling back to the last prediction for users never locked.
    """

    predictions: list
    locked: list
    verdicts: list
    rankings: list
    lock_rounds: list


def profile_history(history: List[RoundTrace], meta: MetaClassifier,
                    feature_mode: str, th_round: int) -> Profile:
    """Streak-gated profiling of every user over recorded round traces.

    The aggregation trajectory does not depend on which meta-classifier reads
    the features, so one recorded simulation can score several meta variants
    on identical footing.
    """
    if not history:
        raise InputError("no round traces to profile")
    n_user = len(history[0].ds)
    state = ProfilerState(th_round, n_user)
    rankings = [None] * n_user
    predictions, locked = [], []
    for trace in history:
        features = round_features(trace, feature_mode)
        preds = [None] * n_user
        for u in range(n_user):
            if state.locked[u] is None:
                preds[u], _ = profile_round(state, u, features[u], meta, trace.round_index)
                rankings[u] = meta.ranking(features[u])
        predictions.append(preds)
        locked.append(list(state.locked))
    verdicts = [state.locked[u] if state.locked[u] is not None else state.last_pred[u]
                for u in range(n_user)]
    return Profile(predictions, locked, verdicts, rankings, list(state.locked_round))
