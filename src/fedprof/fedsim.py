"""Federated training loop: local training, upload, aggregation, distribution.

The aggregation step is delegated to a hook so an attacker-controlled server
can observe uploads and hand back per-user models.  The identity hook is
plain weighted FedAvg broadcast to everyone.  All per-round randomness is
derived from the run seed, so trajectories are bit-reproducible.  A model
with a non-finite parameter, or one whose magnitude exceeds
:data:`DIVERGENCE_BOUND`, stops the run; :func:`check_finite` is that check,
and the attacker's offline training applies it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import nn
from .errors import InputError, InternalError, NumericalError
from .seeding import derive_seed, rng_for

# Largest parameter magnitude a model may hold.  At seed 7 no parameter of the
# four benchmark workloads exceeds 0.85 in any round, 1.2 in any shadow or
# meta-dataset update, or 1.9 in the meta-classifier, while the test suite's
# small config at learning rate 1e6 is past 1e17 after its first round.
DIVERGENCE_BOUND = 1e6


@dataclass
class RoundState:
    """Everything the simulator knows about one FL round.

    ``distributed[u]`` may differ per user under an attacking server.
    """

    round_index: int
    uploaded: list
    distributed: list
    local_acc: Optional[list] = None
    global_acc: Optional[list] = None
    selected: Optional[list] = None


# (uploads, weights, selected) -> the model distributed to each user
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
    """ceil(fraction * n_user) distinct user ids, uniform without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise InputError("fraction must be in (0, 1]")
    k = int(np.ceil(fraction * n_user))
    return np.sort(rng.choice(n_user, size=k, replace=False))


def fedavg_hook(uploads: list, weights: list, selected: list) -> list:
    """Identity server: plain FedAvg over the sampled uploads, broadcast to all."""
    models = [uploads[u] for u in selected]
    w = [weights[u] for u in selected]
    g = fedavg(models, w, ids=list(selected))
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
    previous upload and model.  The hook
    observes all current uploads and returns the per-user distributed models.
    Per-user accuracy on the user's own data is recorded for the uploaded
    model and for the received model, using the same evaluation set.
    Raises NumericalError, naming the round and user, if an upload or a
    distributed model has a parameter that is non-finite or larger in
    magnitude than DIVERGENCE_BOUND (1e6).
    """
    n_user = len(clients)
    rnd = prev.round_index + 1
    rng = rng_for(run_seed, "sampling", rnd)
    selected = client_fraction_sample(n_user, client_fraction, rng)

    uploads = list(prev.uploaded)
    for u in selected:
        uploads[u] = nn.train(prev.distributed[u], arch, clients[u].X, clients[u].y, train_cfg,
                              derive_seed(run_seed, "local-train", rnd, int(u)))

    for u, m in enumerate(uploads):
        check_finite(m, f"round {rnd}: the model uploaded for user {u}")

    weights = [len(c) for c in clients]
    distributed = hook(uploads, weights, list(selected))
    if len(distributed) != n_user:
        raise InternalError("hook returned wrong number of distributed models")
    for u, m in enumerate(distributed):
        check_finite(m, f"round {rnd}: the model distributed for user {u}")

    local_acc = [nn.accuracy(uploads[u], arch, clients[u].X, clients[u].y)
                 for u in range(n_user)]
    global_acc = [nn.accuracy(distributed[u], arch, clients[u].X, clients[u].y)
                  for u in range(n_user)]
    return RoundState(
        round_index=rnd,
        uploaded=uploads,
        distributed=distributed,
        local_acc=local_acc,
        global_acc=global_acc,
        selected=list(selected),
    )


def check_finite(model: nn.ParamVector, where: str) -> None:
    """Raise NumericalError naming ``where`` if the model has a parameter that
    is non-finite or larger in magnitude than DIVERGENCE_BOUND."""
    peak = np.abs(model.values).max()
    if not peak <= DIVERGENCE_BOUND:  # NaN compares false too
        raise NumericalError(
            f"{where} has non-finite or diverged parameters "
            f"(largest magnitude {peak:.3g}, bound {DIVERGENCE_BOUND:g})"
        )
