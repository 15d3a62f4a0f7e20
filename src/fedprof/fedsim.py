"""Federated training loop: local training, upload, aggregation, distribution.
It is the FL protocol alone and scores no model.

The aggregation step is delegated to a hook so an attacker-controlled server
can observe the models it sent and the uploads, and hand back per-user
models.  The identity hook is FedAvg at equal weights, since every client
holds the same number of samples, broadcast to everyone.
A round's sampled clients hold equal-size datasets and share one
optimiser, so they train together in one :func:`nn.train` call, each from
its own seed.  All per-round randomness is derived from the run seed, so
trajectories are bit-reproducible.  A model with a non-finite parameter, or
one whose magnitude exceeds :data:`DIVERGENCE_BOUND`, stops the run;
:func:`check_finite` is that check, and the attacker's offline training
applies it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import nn
from .errors import InputError, InternalError, NumericalError
from .seeding import derive_seed

# Largest parameter magnitude a model may hold.  At seed 7 no parameter of the
# four benchmark workloads exceeds 0.85 in any round, 1.2 in any shadow or
# meta-dataset update, or 1.9 in the meta-classifier, while the test suite's
# small config at learning rate 1e6 is past 1e17 after its first round.
DIVERGENCE_BOUND = 1e6


@dataclass
class RoundState:
    """The models of one FL round: each user's upload and the model
    distributed to it, row u of an (n_user, n_params) array each (maybe a
    read-only broadcast view), and the sampled user ids (None in round 0).

    ``distributed[u]`` may differ per user under an attacking server.
    """

    round_index: int
    uploaded: np.ndarray
    distributed: np.ndarray
    selected: Optional[list] = None


# (received, uploads, selected) -> distributed, each model set an (n_user, n_params)
# array with row u for user u; received[u] is the model user u was sent last round
AggregationHook = Callable[[np.ndarray, np.ndarray, list], np.ndarray]


def average_groups(stacked: np.ndarray, groups: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Row g: the average of rows ``stacked[groups[g]]`` at weights
    ``shares[g]`` (summing to 1), as weighted deltas around the anchor
    ``stacked[groups[g, 0]]`` added in column order, one vector step per
    column for every group at once.  Algebraically the weighted mean, but
    bitwise the anchor when all members are identical.  The shares are cast
    to the models' dtype, so the sums stay in it."""
    shares = shares.astype(stacked.dtype, copy=False)
    anchor = stacked[groups[:, 0]]
    acc = np.zeros_like(anchor)
    for k in range(groups.shape[1]):
        acc += shares[:, k, None] * (stacked[groups[:, k]] - anchor)
    return anchor + acc


def fedavg(models, weights: list, ids: Optional[list] = None) -> np.ndarray:
    """Data-size weighted elementwise average of models (1-D arrays, or the
    rows of a stack), the one-group case of :func:`average_groups`.

    If ``ids`` are given, (model, weight) pairs are reduced in ascending id
    order, which makes the result invariant (bitwise) under shuffling.
    """
    if not len(models):
        raise InputError("fedavg needs at least one model")
    if len(models) != len(weights):
        raise InputError("models and weights must pair up")
    if any(w <= 0 for w in weights):
        raise InputError("weights must be positive")
    if len({m.size for m in models}) > 1:
        raise InternalError("fedavg size mismatch across models")
    order = np.arange(len(models)) if ids is None else np.argsort(np.asarray(ids))
    total = float(sum(weights))
    shares = np.array([[weights[i] / total for i in order]])
    return average_groups(np.stack(models), order[None], shares)[0]


def client_fraction_sample(n_user: int, fraction: float,
                           rng: np.random.Generator) -> np.ndarray:
    """ceil(fraction * n_user) distinct user ids, uniform without replacement.

    The ceiling is taken of the decimal ``fraction`` is written as, so 0.07 of
    100 users is 7, not the 8 of ``ceil(7.000000000000001)``.
    """
    if not 0.0 < fraction <= 1.0:
        raise InputError("fraction must be in (0, 1]")
    k = math.ceil(Fraction(str(fraction)) * n_user)
    return np.sort(rng.choice(n_user, size=k, replace=False))


def fedavg_hook(received: np.ndarray, uploads: np.ndarray, selected: list) -> np.ndarray:
    """Identity server: FedAvg over the sampled uploads at equal weights (all
    clients hold the same number of samples), reduced in ascending id and
    broadcast to all as a read-only (n_user, n_params) view of the one
    average; ``received`` is not read."""
    g = fedavg(uploads[selected], [1.0] * len(selected), ids=list(selected))
    return np.broadcast_to(g, uploads.shape)


def initial_state(n_user: int, init_model: np.ndarray) -> RoundState:
    """Round 0: one seeded global init shared by (distributed to) all users,
    as read-only (n_user, n_params) views of it."""
    models = np.broadcast_to(init_model, (n_user, init_model.size))
    return RoundState(0, models, models)


def run_round(prev: RoundState, clients: list, arch: nn.Architecture,
              train_cfg: nn.TrainConfig, client_fraction: float, hook: AggregationHook,
              run_seed: int) -> RoundState:
    """Advance the federation by one round.

    A ``client_fraction`` share of the clients is sampled.  Sampled clients
    train ``train_cfg.epochs`` on their last distributed model and upload;
    they train in one :func:`nn.train` call, and user u's seed in round r is
    derived from (run_seed, r, u), so each upload is what training u alone
    gives and the trajectory is a function of run_seed.  Unsampled clients keep their
    previous upload and model.  The hook is called as
    ``hook(prev.distributed, uploads, selected)``: it sees the model
    each user received last round and every current upload, and returns the
    distributed models as an (n_user, n_params) array, row u for user u;
    anything else is an InternalError naming that shape.  No model is
    scored here.
    Raises NumericalError, naming the round and user, if an upload or a
    distributed model has a parameter that is non-finite or larger in
    magnitude than DIVERGENCE_BOUND (1e6).  The uploads are checked once all
    are trained, in ascending user id, so the error names the lowest
    diverged user and the hook is not called; an unsampled user's upload was
    checked in the round that trained it.
    """
    n_user = len(clients)
    rnd = prev.round_index + 1
    rng = np.random.default_rng(derive_seed(run_seed, "sampling", rnd))
    selected = client_fraction_sample(n_user, client_fraction, rng)

    uploads = prev.uploaded.copy()
    trained = nn.train(prev.distributed[selected], arch,
                       np.concatenate([clients[u].X for u in selected]),
                       np.concatenate([clients[u].y for u in selected]), train_cfg,
                       [derive_seed(run_seed, "local-train", rnd, int(u)) for u in selected])
    for u, model in zip(selected, trained):
        check_finite(model, f"round {rnd}: the model uploaded for user {u}")
        uploads[u] = model

    distributed = hook(prev.distributed, uploads, list(selected))
    if not isinstance(distributed, np.ndarray) or distributed.shape != (n_user, arch.n_params):
        raise InternalError(f"the hook must return an array of shape ({n_user}, {arch.n_params})")
    for u, m in enumerate(distributed):
        check_finite(m, f"round {rnd}: the model distributed for user {u}")
    return RoundState(rnd, uploads, distributed, list(selected))


def check_finite(model: np.ndarray, where: str) -> None:
    """Raise NumericalError naming ``where`` if the model has a parameter that
    is non-finite or larger in magnitude than DIVERGENCE_BOUND."""
    peak = np.abs(model).max()
    if not peak <= DIVERGENCE_BOUND:  # NaN compares false too
        raise NumericalError(
            f"{where} has non-finite or diverged parameters "
            f"(largest magnitude {peak:.3g}, bound {DIVERGENCE_BOUND:g})"
        )
