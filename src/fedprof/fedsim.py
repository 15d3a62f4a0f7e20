"""Federated training loop: local training, upload, aggregation, distribution.
It is the FL protocol alone and scores no model.

The aggregation step is delegated to a hook so an attacker-controlled server
can observe the models it sent and the uploads, and hand back per-user
models.  The identity hook is FedAvg at equal weights, since every client
holds the same number of samples, broadcast to everyone.
All per-round randomness is derived from the run seed, so trajectories are
bit-reproducible.  A model with a non-finite parameter, or one whose
magnitude exceeds :data:`DIVERGENCE_BOUND`, stops the run;
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
    distributed to it, and the sampled user ids (None in round 0).

    ``distributed[u]`` may differ per user under an attacking server.
    """

    round_index: int
    uploaded: list
    distributed: list
    selected: Optional[list] = None


# (received, uploads, selected) -> the model distributed to each user;
# received[u] is the model user u was sent last round
AggregationHook = Callable[[list, list, list], list]


def fedavg(models: list, weights: list, ids: Optional[list] = None) -> nn.ParamVector:
    """Data-size weighted elementwise average of parameter vectors.

    If ``ids`` are given, (model, weight) pairs are reduced in ascending id
    order, which makes the result invariant (bitwise) under shuffling.
    """
    if not models:
        raise InputError("fedavg needs at least one model")
    if len(models) != len(weights):
        raise InputError("models and weights must pair up")
    if any(w <= 0 for w in weights):
        raise InputError("weights must be positive")
    order = list(range(len(models))) if ids is None else list(np.argsort(np.asarray(ids)))
    anchor = models[order[0]]
    total = float(sum(weights))
    # Accumulate weighted deltas around an anchor model: algebraically the
    # weighted mean, but bitwise idempotent when all models are identical.
    acc = np.zeros_like(anchor.values)
    for i in order:
        m = models[i]
        if m.values.size != anchor.values.size:
            raise InternalError("fedavg size mismatch across models")
        acc += (weights[i] / total) * (m.values - anchor.values)
    return nn.ParamVector(anchor.values + acc)


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


def fedavg_hook(received: list, uploads: list, selected: list) -> list:
    """Identity server: FedAvg over the sampled uploads at equal weights (all
    clients hold the same number of samples), reduced in ascending id and
    broadcast to all; ``received`` is not read."""
    g = fedavg([uploads[u] for u in selected], [1.0] * len(selected), ids=list(selected))
    return [g] * len(uploads)


def initial_state(n_user: int, init_model: nn.ParamVector) -> RoundState:
    """Round 0: one seeded global init shared by (distributed to) all users."""
    return RoundState(0, uploaded=[init_model] * n_user,
                      distributed=[init_model] * n_user)


def run_round(prev: RoundState, clients: list, arch: nn.Architecture,
              train_cfg: nn.TrainConfig, client_fraction: float, hook: AggregationHook,
              run_seed: int) -> RoundState:
    """Advance the federation by one round.

    A ``client_fraction`` share of the clients is sampled.  Sampled clients
    train ``train_cfg.epochs`` on their last distributed model and upload;
    user u's seed in round r is derived from (run_seed, r, u), so the
    trajectory is a function of run_seed.  Unsampled clients keep their
    previous upload and model.  The hook is called as
    ``hook(prev.distributed, uploads, selected)``: it sees the model
    each user received last round and every current upload, and returns the
    per-user distributed models.  No model is scored here.
    Raises NumericalError, naming the round and user, if an upload or a
    distributed model has a parameter that is non-finite or larger in
    magnitude than DIVERGENCE_BOUND (1e6).  Each upload is checked as it is
    trained; an unsampled user's was checked in the round that trained it.
    """
    n_user = len(clients)
    rnd = prev.round_index + 1
    rng = np.random.default_rng(derive_seed(run_seed, "sampling", rnd))
    selected = client_fraction_sample(n_user, client_fraction, rng)

    uploads = list(prev.uploaded)
    for u in selected:
        uploads[u] = nn.train(prev.distributed[u], arch, clients[u].X, clients[u].y, train_cfg,
                              derive_seed(run_seed, "local-train", rnd, int(u)))
        check_finite(uploads[u], f"round {rnd}: the model uploaded for user {u}")

    distributed = hook(prev.distributed, uploads, list(selected))
    if len(distributed) != n_user:
        raise InternalError("hook returned wrong number of distributed models")
    for u, m in enumerate(distributed):
        check_finite(m, f"round {rnd}: the model distributed for user {u}")
    return RoundState(rnd, uploads, distributed, list(selected))


def check_finite(model: nn.ParamVector, where: str) -> None:
    """Raise NumericalError naming ``where`` if the model has a parameter that
    is non-finite or larger in magnitude than DIVERGENCE_BOUND."""
    peak = np.abs(model.values).max()
    if not peak <= DIVERGENCE_BOUND:  # NaN compares false too
        raise NumericalError(
            f"{where} has non-finite or diverged parameters "
            f"(largest magnitude {peak:.3g}, bound {DIVERGENCE_BOUND:g})"
        )
