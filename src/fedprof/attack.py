"""The attacking server: per-class model-sensitivity extraction, shadow-model
corpus and meta-classifier construction (centralized and federated variants),
selective-aggregation partner choice, and streak-gated profiling as a fold
over the round traces the server records.

Model sensitivity of class c is the L1 norm of the feature-layer gradient of
the mean loss on the class-c block of the auxiliary store: how far one
full-batch retraining step on that block would move the feature layer, per
unit of learning rate.  The profiler consumes the per-class absolute difference
between the sensitivity of the model a user received last round and the
sensitivity of the model it uploaded this round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import fedsim, nn
from .data import (LabeledDataset, preference_class, realize_distribution, sample_cp_cd,
                   target_counts)
from .errors import InputError
from .seeding import derive_seed

# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------


def extract_sensitivity(pv: nn.ParamVector, arch: nn.Architecture,
                        aux: LabeledDataset) -> np.ndarray:
    """Per-class model sensitivity: the summed absolute feature-layer gradient
    of the mean loss on each class's auxiliary samples.  ``aux`` must be in
    class blocks, as :func:`data.sample_per_class` draws it.  Each walk stops
    at the feature layer (``arch.feature_index``) and returns its gradient
    alone.  A store of equal class blocks, the only kind a run builds, takes
    one backward walk over one copy of the model per class block, on the
    store's rows as they are, which gives every class's gradient, each bit
    for bit a walk over that class alone; a store of unequal blocks takes
    one walk per class.  The input model is never mutated."""
    if np.any(aux.y[1:] < aux.y[:-1]):
        raise InputError("auxiliary store is not in class blocks")
    bounds = np.searchsorted(aux.y, np.arange(aux.n_label + 1))
    counts = np.diff(bounds)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise InputError(f"auxiliary store has no samples for class {empty[0]}")
    model, stop = pv.values, arch.feature_index
    if np.all(counts == counts[0]):
        copies = np.broadcast_to(model, (aux.n_label, len(model)))
        rows = nn.backward(copies, arch, aux.X, aux.y, stop=stop)
    else:
        rows = np.concatenate([
            nn.backward(model[None], arch, aux.X[lo:hi], aux.y[lo:hi], stop=stop)
            for lo, hi in zip(bounds[:-1], bounds[1:])])
    return np.abs(rows).sum(axis=1)


def differential_sensitivity(s_agg_prev: np.ndarray, s_now: np.ndarray) -> np.ndarray:
    """Elementwise |previous aggregated-model sensitivity - current sensitivity|."""
    a = np.asarray(s_agg_prev, dtype=np.float64)
    b = np.asarray(s_now, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"sensitivity lengths differ: {a.shape} vs {b.shape}")
    return np.abs(a - b)


def normalize_features(v: np.ndarray) -> np.ndarray:
    """Scale each feature row (the last axis) by its max; zero rows pass
    through unchanged."""
    v = np.asarray(v, dtype=np.float64)
    m = v.max(axis=-1, keepdims=True)
    return np.divide(v, m, out=v.copy(), where=m > 0)


# ---------------------------------------------------------------------------
# Shadow corpus
# ---------------------------------------------------------------------------


@dataclass
class ShadowRecord:
    params: np.ndarray
    dataset: LabeledDataset
    preference: int
    sensitivity: np.ndarray


def draw_shadow_specs(n_label: int, n_shadows: int, total_size: int, cp_range, cd_range,
                      mode: str, seed: int) -> List[Tuple[int, np.ndarray, int]]:
    """One (preferred class, class counts, sub-seed) per shadow dataset of
    ``total_size`` samples.  Preference classes are forced round-robin so
    every class is covered; (cp, cd) come from :func:`data.sample_cp_cd`, and
    a draw whose counts do not prefer the forced class under ``mode`` is
    resampled.  No data is read, so a config can be checked before a run."""
    if n_shadows < n_label:
        raise InputError(f"{n_shadows} shadows cannot cover {n_label} preference classes")
    draws = []
    for i in range(n_shadows):
        forced = i % n_label
        for attempt in range(50):
            sub = derive_seed(seed, "shadow", i, attempt)
            cp, cd = sample_cp_cd(np.random.default_rng(derive_seed(sub, "spec")),
                                  cp_range, cd_range, mode)
            counts = target_counts(n_label, total_size, cp, cd, forced, mode)
            if preference_class(counts, mode) == forced:
                break
        else:
            raise InputError(f"could not realize a shadow preferring class {forced}")
        draws.append((forced, counts, sub))
    return draws


def train_shadows(aux: LabeledDataset, arch: nn.Architecture,
                  draws: List[Tuple[int, np.ndarray, int]],
                  train_cfg: nn.TrainConfig) -> List[ShadowRecord]:
    """Train one shadow model per :func:`draw_shadow_specs` draw on a dataset
    realized from the auxiliary store; its preference is the draw's preferred
    class.  Every draw is realized and initialised first; the datasets are
    equal in size, so all shadows train in one :func:`nn.train` call, each
    from its own sub-seed.  They are then checked and extracted in draw
    order, and the first diverged shadow i raises NumericalError naming
    "shadow i"."""
    datasets = [realize_distribution(aux, counts, seed=derive_seed(sub, "data"))
                for _, counts, sub in draws]
    inits = np.stack([nn.init_params(arch, seed=derive_seed(sub, "init")) for *_, sub in draws])
    trained = nn.train(inits, arch, np.concatenate([ds.X for ds in datasets]),
                       np.concatenate([ds.y for ds in datasets]), train_cfg,
                       [derive_seed(sub, "train") for *_, sub in draws])
    shadows = []
    for i, ((preferred, *_), ds, params) in enumerate(zip(draws, datasets, trained)):
        fedsim.check_finite(params, f"shadow {i}")
        shadows.append(ShadowRecord(params, ds, preferred,
                                    extract_sensitivity(nn.ParamVector(params), arch, aux)))
    return shadows


# ---------------------------------------------------------------------------
# Meta datasets
# ---------------------------------------------------------------------------


def build_meta_dataset_centralized(shadows: List[ShadowRecord]) -> LabeledDataset:
    """One (sensitivity vector, preference) sample per shadow model."""
    if not shadows:
        raise InputError("no shadow records")
    return LabeledDataset(np.stack([s.sensitivity for s in shadows]),
                          [s.preference for s in shadows], shadows[0].dataset.n_label)


def build_meta_dataset_federated(shadows: List[ShadowRecord], aux: LabeledDataset,
                                 arch: nn.Architecture, update_cfg: nn.TrainConfig, seed: int,
                                 mode: str) -> LabeledDataset:
    """Pair each shadow with its most opposite peer and mimic two FL rounds.

    For shadow i: average it (equal weights) with its :func:`select_partners`
    partner at its preferred class, extract S1 of the aggregate, retrain the
    aggregate for one pass over shadow i's own dataset (the next-round local
    update), extract S2, and emit
    (|S1 - S2|, preference of i).  All pairs average in one
    :func:`fedsim.average_groups` call, shadow i as its pair's anchor.  The
    updates of all shadows train in one :func:`nn.train` call, since the
    shadow datasets are equal in size, and are then checked in shadow order:
    the first diverged update raises NumericalError naming "meta-dataset
    update i".
    """
    if len(shadows) < 2:
        raise InputError("federated meta dataset needs at least two shadows")
    partners = select_partners(np.stack([sh.sensitivity for sh in shadows]), 1, mode,
                               [sh.preference for sh in shadows])[:, 0]
    pairs = np.column_stack([np.arange(len(shadows)), partners])
    aggs = fedsim.average_groups(np.stack([sh.params for sh in shadows]), pairs,
                                 np.full(pairs.shape, 0.5))
    updates = nn.train(aggs, arch, np.concatenate([sh.dataset.X for sh in shadows]),
                       np.concatenate([sh.dataset.y for sh in shadows]), update_cfg,
                       [derive_seed(seed, "shadow-update", i) for i in range(len(shadows))])
    features = []
    for i, (agg, updated) in enumerate(zip(aggs, updates)):
        fedsim.check_finite(updated, f"meta-dataset update {i}")
        features.append(differential_sensitivity(
            extract_sensitivity(nn.ParamVector(agg), arch, aux),
            extract_sensitivity(nn.ParamVector(updated), arch, aux)))
    return LabeledDataset(np.stack(features), [sh.preference for sh in shadows], aux.n_label)


# ---------------------------------------------------------------------------
# Meta-classifier
# ---------------------------------------------------------------------------


@dataclass
class MetaClassifier:
    """Small perceptron mapping max-normalized sensitivity features to classes."""

    params: np.ndarray
    arch: nn.Architecture
    train_accuracy: float

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Logits for an (n, n_label) feature matrix, one row per sample;
        the predicted class is the row argmax."""
        return nn.predict_logits(self.params, self.arch, normalize_features(features))


def train_meta(meta: LabeledDataset, train_cfg: nn.TrainConfig, seed: int) -> MetaClassifier:
    """Fit the meta-classifier, a perceptron with one 32-wide hidden layer, on
    (sensitivity features, preference) samples; ``seed`` fixes its initial
    weights and its training, at ``train_cfg``'s batch, which must not exceed
    ``len(meta)``.  Diverged weights raise NumericalError naming the
    "meta-classifier"."""
    n_label = meta.n_label
    if len(meta) < n_label:
        raise InputError(f"need at least {n_label} meta samples, got {len(meta)}")
    missing = np.flatnonzero(meta.class_counts == 0).tolist()
    if missing:
        raise InputError(f"meta dataset has no samples for classes {missing}")
    feats = normalize_features(meta.X)
    arch = nn.Architecture(
        (nn.Dense(n_label, 32), nn.Relu(), nn.Dense(32, n_label)),
        (n_label,), n_label,
    )
    params = nn.train(nn.init_params(arch, seed=derive_seed(seed, "meta-init"))[None], arch,
                      feats, meta.y, train_cfg, [seed])[0]
    fedsim.check_finite(params, "meta-classifier")
    acc = nn.accuracy(params, arch, feats, meta.y)
    return MetaClassifier(params, arch, acc)


# ---------------------------------------------------------------------------
# Selective aggregation partner choice
# ---------------------------------------------------------------------------


def select_partners(sensitivities, x: int, mode: str, classes=None) -> np.ndarray:
    """Every user's x partners, as an (n_user, x) array: row u holds the x
    other users with the most opposite sensitivity at u's candidate class,
    the largest first in majority mode and the smallest first in minority
    mode.  Ties break toward lower user ids.

    The candidate class is ``classes[u]`` when given (a shadow's preferred
    class), else the argmin of row u in majority mode (argmax in minority
    mode).  One stable argsort per candidate class ranks every user at it,
    so memory stays O(n_user * (n_label + x)).
    """
    s = np.asarray(sensitivities, dtype=np.float64)
    n = len(s)
    if x > n - 1:
        raise InputError(f"x={x} but only {n - 1} other users exist")
    if classes is None:
        classes = s.argmin(axis=1) if mode == "majority" else s.argmax(axis=1)
    classes = np.asarray(classes)
    sign = -1.0 if mode == "majority" else 1.0
    partners, cols = np.empty((n, x), dtype=np.int64), np.arange(x)
    for c in set(classes.tolist()):
        users = np.flatnonzero(classes == c)
        order = np.argsort(sign * s[:, c], kind="stable")
        rank = np.argsort(order)
        # the first x of the ranking, stepping over the user itself
        partners[users] = order[cols + (cols >= rank[users, None])]
    return partners


# ---------------------------------------------------------------------------
# Top-k scoring
# ---------------------------------------------------------------------------


def topk_accuracy_from_counts(predicted_rankings, class_counts_list, k: int,
                              mode: str) -> float:
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
    """What the server observed in one round: the sampled user ids
    (``selected``, ascending), the sensitivity of every upload, and one
    differential sensitivity (DS) row per sampled user, ``ds[i]`` for user
    ``selected[i]``: its upload against the model it received the round
    before.  An unsampled user trained nothing, so it has no DS row."""

    selected: List[int]
    sensitivities: np.ndarray
    ds: np.ndarray


class PreferenceProfiler:
    """Aggregation hook ``profiler(received, uploads, selected)`` that
    extracts sensitivities, records a RoundTrace per round and aggregates
    each upload with its x :func:`select_partners` partners at equal weights,
    or by :func:`fedsim.fedavg_hook` when x is None.  ``received`` and
    ``uploads`` are (n_user, n_params) arrays.  All the groups, each in
    ascending id, reduce in one :func:`fedsim.average_groups` call over
    ``uploads``, whose (n_user, n_params) result is the hook's return.

    A sampled user's DS compares the model it received (``received[u]``,
    which :func:`fedsim.run_round` passes in) with the model it trained from
    it and uploaded.  Partner choice reads every upload's sensitivity, but
    only the sampled users' received models are extracted.
    ``history[r - 1]`` is the trace of round r.  Verdicts never feed back
    into aggregation, so :func:`profile_history` computes them afterwards
    over ``history``.

    Each distinct model is extracted once per round window.  Sensitivity is
    a function of the parameter values alone, so ``memo`` maps round r to
    the sensitivities read in round r, keyed by the exact parameter bytes,
    and a model read this round or last round is served from it: an idle
    user's upload, a received model whose aggregate members did not change,
    and every user's copy of a broadcast model.  Profilers of several server
    rules on one federation share one memo and advance in lockstep, so a
    model that any of them read (round 1's, which is the same under every
    rule) is extracted once.  Rounds older than the last one are dropped.
    A model is read only once it has been received, so the final round's
    distributed models are never extracted.
    """

    def __init__(self, arch: nn.Architecture, aux: LabeledDataset, x: Optional[int], mode: str,
                 memo: dict):
        self.arch = arch
        self.aux = aux
        self.x = x
        self.mode = mode
        self.memo = memo
        self.history: List[RoundTrace] = []

    def _sensitivity(self, model: np.ndarray, rnd: int) -> np.ndarray:
        """:func:`extract_sensitivity` of ``model``, unless a model with the
        same parameter bytes was read in round ``rnd`` or the round before."""
        key = model.tobytes()
        this_round = self.memo[rnd]
        s = this_round.get(key)
        if s is None:
            s = self.memo.get(rnd - 1, {}).get(key)
            if s is None:
                s = extract_sensitivity(nn.ParamVector(model), self.arch, self.aux)
            this_round[key] = s
        return s

    def __call__(self, received: np.ndarray, uploads: np.ndarray, selected: list) -> np.ndarray:
        rnd = len(self.history) + 1
        self.memo.pop(rnd - 2, None)
        self.memo.setdefault(rnd, {})
        selected = [int(u) for u in selected]
        sens = np.stack([self._sensitivity(m, rnd) for m in uploads])
        sent = np.stack([self._sensitivity(received[u], rnd) for u in selected])
        self.history.append(RoundTrace(selected, sens,
                                       differential_sensitivity(sent, sens[selected])))
        if self.x is None:
            return fedsim.fedavg_hook(received, uploads, selected)
        groups = np.sort(np.column_stack([np.arange(len(uploads)),
                                          select_partners(sens, self.x, self.mode)]), axis=1)
        return fedsim.average_groups(uploads, groups,
                                     np.full(groups.shape, 1.0 / groups.shape[1]))


# ---------------------------------------------------------------------------
# Verdicts: one fold over the per-round feature matrices
# ---------------------------------------------------------------------------


@dataclass
class Profile:
    """Streak-gated verdicts over a run of rounds 1..T.

    ``predictions[r - 1, u]`` is the meta-classifier's class for user u in
    round r, scored whenever u was observed in round r, locked or not, and
    -1 when it was not.  ``lock_rounds[u]`` is the round user u locked in,
    or None.  ``verdicts`` are the locked classes, falling back to the last
    prediction for users never locked; ``rankings[u]`` orders every class
    for user u, frozen at its lock round.  A user never observed keeps the
    initial state: verdict 0, the identity ranking and no lock round.
    """

    predictions: np.ndarray
    lock_rounds: list
    verdicts: list
    rankings: np.ndarray


def profile_round(ids: np.ndarray, preds: np.ndarray, last: np.ndarray, streak: np.ndarray,
                  lock_round: np.ndarray, round_index: int, th_round: int) -> np.ndarray:
    """One streak step for the users ``ids`` observed in one round, whose
    predictions are ``preds``, updating the per-user state arrays in place.

    An observed user not yet locked (``lock_round`` 0) extends its streak
    when its prediction repeats its last one and restarts it at 1 otherwise;
    once the streak reaches th_round it locks at ``round_index``.  Locked
    and unobserved users are left alone.  Returns the mask of the rows of
    ``ids`` whose users were open this round.
    """
    open_ = lock_round[ids] == 0
    users, preds = ids[open_], preds[open_]
    streak[users] = np.where(preds == last[users], streak[users] + 1, 1)
    last[users] = preds
    lock_round[users[streak[users] >= th_round]] = round_index
    return open_


def profile_history(rounds: List[Tuple[list, np.ndarray]], n_user: int, meta: MetaClassifier,
                    th_round: int) -> Profile:
    """Streak-gated profiling of users 0..n_user-1, as one fold over rounds
    1..T.  ``rounds[r - 1]`` is round r's (observed user ids, feature
    matrix) pair, one feature row per id: the differential sensitivities
    ``[(tr.selected, tr.ds) for tr in history]``, or the sampled users' raw
    sensitivities for the centralized-meta baseline.  Full participation is
    the case where every id is observed.  Each round is scored once, and
    only observed users' streaks and rankings move.

    The aggregation trajectory does not depend on which meta-classifier reads
    the features, so one recorded simulation can score several meta variants
    on identical footing.
    """
    if not rounds:
        raise InputError("no round features to profile")
    if th_round < 1:
        raise InputError("th_round must be >= 1")
    n_label = np.shape(rounds[0][1])[1]
    # A first prediction starts a streak of 1 whatever ``last`` holds, so
    # starting at class 0 changes no streak and is the verdict of a user
    # never observed.
    last = np.zeros(n_user, dtype=np.int64)
    streak, lock_round = np.zeros(n_user, dtype=np.int64), np.zeros(n_user, dtype=np.int64)
    rankings = np.tile(np.arange(n_label), (n_user, 1))
    predictions = np.full((len(rounds), n_user), -1)
    for r, (ids, f) in enumerate(rounds, start=1):
        ids = np.asarray(ids, dtype=np.int64)
        scores = meta.scores(f)
        preds = scores.argmax(axis=1)
        open_ = profile_round(ids, preds, last, streak, lock_round, r, th_round)
        rankings[ids[open_]] = np.argsort(-scores[open_], axis=1, kind="stable")
        predictions[r - 1, ids] = preds
    return Profile(predictions, [int(r) if r else None for r in lock_round],
                   last.tolist(), rankings)
