"""Attack machinery tests: sensitivity extraction, shadow/meta pipeline,
partner selection, streak-gated profiling and top-k scoring."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from fedprof import attack, data, fedsim, harness, nn
from fedprof.errors import InputError, NumericalError


@pytest.fixture(scope="module")
def world():
    """Small pool, reserved auxiliary store, and an MLP over 4 classes."""
    pool = data.make_synthetic(4, 8, 200, seed=10, sigma=1.0)
    aux = data.sample_per_class(pool, 30, None)
    arch = nn.Architecture((nn.Dense(8, 16), nn.Relu(), nn.Dense(16, 4)), (8,), 4)
    return pool, aux, arch


def default_draws(n_label, n_shadows, total_size, seed):
    """Shadow draws at the config's default ranges, majority mode."""
    return attack.draw_shadow_specs(n_label, n_shadows, total_size, (0.35, 0.7), (0.1, 0.6),
                                    "majority", seed)


# ---------------------------------------------------------------------------
# extract_sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_matches_summed_feature_layer_gradient(world):
    pool, aux, arch = world
    params = nn.init_params(arch, seed=1)
    got = attack.extract_sensitivity(nn.ParamVector(params), arch, aux)
    off, _, w_size, b_size = arch.param_slots[arch.feature_index]
    for c in range(4):
        Xc = aux.X[aux.y == c]
        grad = nn.backward(params[None], arch, Xc, np.full(len(Xc), c))[0]
        want = np.abs(grad[off:off + w_size + b_size]).sum()
        assert got[c] == want


def test_sensitivity_zero_at_stationary_point(world):
    # Saturated correct logits for class 0's auxiliary batch -> ~zero gradient.
    pool, aux, arch = world
    big = nn.Architecture((nn.Dense(8, 2),), (8,), 2)
    params = np.zeros(big.n_params)
    W, b = nn._layer_params(params, big, 0)
    b[:] = [80.0, -80.0]  # class 0 always wins regardless of input
    first_two = aux.y < 2
    aux2 = data.LabeledDataset(aux.X[first_two], aux.y[first_two], 2)
    s = attack.extract_sensitivity(nn.ParamVector(params), big, aux2)
    assert s[0] < 1e-6


def test_sensitivity_never_mutates_the_model(world):
    pool, aux, arch = world
    params = nn.init_params(arch, seed=2)
    before = params.copy()
    attack.extract_sensitivity(nn.ParamVector(params), arch, aux)
    assert np.array_equal(params, before)


def test_sensitivity_rejects_empty_class(world):
    pool, aux, arch = world
    params = nn.init_params(arch, seed=3)
    empty = data.LabeledDataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), 4)
    with pytest.raises(InputError, match="no samples for class 0"):
        attack.extract_sensitivity(nn.ParamVector(params), arch, empty)
    no_class_2 = aux.subset(np.flatnonzero(aux.y != 2))
    with pytest.raises(InputError, match="no samples for class 2"):
        attack.extract_sensitivity(nn.ParamVector(params), arch, no_class_2)


def test_sensitivity_rejects_a_store_not_in_class_blocks(world):
    pool, aux, arch = world
    params = nn.init_params(arch, seed=3)
    swapped = aux.subset(np.r_[np.arange(30, 60), np.arange(30), np.arange(60, 120)])
    with pytest.raises(InputError, match="class blocks"):
        attack.extract_sensitivity(nn.ParamVector(params), arch, swapped)
    # the same rows back in class order give the store's own sensitivity
    restored = swapped.subset(np.argsort(swapped.y, kind="stable"))
    assert np.array_equal(attack.extract_sensitivity(nn.ParamVector(params), arch, restored),
                          attack.extract_sensitivity(nn.ParamVector(params), arch, aux))


def test_cnn_sensitivity_equals_a_full_walk_per_class_reference():
    # The benchmark CNN's feature layer is its second convolution, so
    # extraction's walk stops above the first; the full walk reads the same.
    arch = harness.validate_config(json.dumps({"model": {"kind": "cnn"},
                                               "dataset": {"dim": 36}})).arch
    assert arch.feature_index > min(arch.param_slots)
    aux = data.sample_per_class(data.make_synthetic(10, 36, 20, seed=12, sigma=1.0), 15, None)
    params = nn.init_params(arch, seed=6)
    got = attack.extract_sensitivity(nn.ParamVector(params), arch, aux)
    off, _, w_size, b_size = arch.param_slots[arch.feature_index]
    for c in range(10):
        Xc = aux.X[aux.y == c]
        grad = nn.backward(params[None], arch, Xc, np.full(len(Xc), c))[0]
        assert got[c] == np.abs(grad[off:off + w_size + b_size]).sum()


@pytest.mark.parametrize("overrides, dim", [({}, 16), ({"model": {"kind": "cnn"}}, 36)],
                         ids=["mlp", "benchmark-cnn"])
def test_sensitivity_of_unequal_class_blocks_equals_a_full_walk_per_class(overrides, dim):
    # No run builds such a store; it takes one walk per class, not one walk
    # over a copy of the model per class, and reads the same as that
    # class's batch alone.
    arch = harness.validate_config(json.dumps({**overrides, "dataset": {"dim": dim}})).arch
    counts = [3, 8, 1, 5, 5, 2, 7, 4, 6, 3]
    aux = data.sample_per_class(data.make_synthetic(10, dim, 20, seed=13, sigma=1.0), 8, None)
    aux = aux.subset(np.concatenate([np.flatnonzero(aux.y == c)[:k] for c, k in enumerate(counts)]))
    assert np.array_equal(np.bincount(aux.y), counts)
    params = nn.init_params(arch, seed=7)
    got = attack.extract_sensitivity(nn.ParamVector(params), arch, aux)
    off, _, w_size, b_size = arch.param_slots[arch.feature_index]
    for c in range(10):
        Xc = aux.X[aux.y == c]
        grad = nn.backward(params[None], arch, Xc, np.full(len(Xc), c))[0]
        assert got[c] == np.abs(grad[off:off + w_size + b_size]).sum()


@pytest.mark.parametrize("overrides, dim", [({}, 16), ({"model": {"kind": "cnn"}}, 36)],
                         ids=["mlp", "benchmark-cnn"])
def test_float32_sensitivity_matches_the_float64_engine(overrides, dim, monkeypatch):
    """The float32 engine's sensitivities against the float64 engine's, for
    the same models and store (float32 values, which float64 holds exactly):
    an initial model and one trained from it.  A sensitivity is a sum of
    absolute gradient entries, which do not cancel, so the two agree at
    1e-5 relative, about 80 float32 ulps."""
    overrides = {**overrides, "dataset": {"dim": dim}}
    arch = harness.validate_config(json.dumps(overrides)).arch
    aux = data.sample_per_class(data.make_synthetic(10, dim, 40, seed=12, sigma=1.0), 30, None)
    assert aux.X.dtype == np.float32
    init = nn.init_params(arch, seed=6)
    trained = nn.train(init[None], arch, aux.X, aux.y, nn.TrainConfig(0.05, 2, 32), [4])[0]
    for params in (init, trained):
        got = attack.extract_sensitivity(nn.ParamVector(params), arch, aux)
        with monkeypatch.context() as m:
            m.setattr(nn, "DTYPE", np.float64)
            want = attack.extract_sensitivity(nn.ParamVector(params), arch, aux)
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert np.max(np.abs(got - want) / want) <= 1e-5


def test_skewed_training_orders_sensitivity():
    # Heavily trained class -> low sensitivity; starved class -> high.
    pool = data.make_synthetic(4, 8, 800, seed=11, sigma=1.0)
    aux = data.sample_per_class(pool, 100, None)
    arch = nn.Architecture((nn.Dense(8, 16), nn.Relu(), nn.Dense(16, 4)), (8,), 4)
    aux_idx = aux.source_indices
    counts = np.array([700, 28, 336, 336])  # 50% / 2% / rest even
    avail = [np.setdiff1d(np.flatnonzero(pool.y == c), aux_idx) for c in range(4)]
    idx = np.concatenate([avail[c][:counts[c]] for c in range(4)])
    ds = pool.subset(idx)
    params = nn.train(nn.init_params(arch, seed=4)[None], arch, ds.X, ds.y,
                      nn.TrainConfig(0.03, 1, 32), [5])[0]
    s = attack.extract_sensitivity(nn.ParamVector(params), arch, aux)
    assert int(np.argmin(s)) == 0
    assert int(np.argmax(s)) == 1


# ---------------------------------------------------------------------------
# differential sensitivity and normalization
# ---------------------------------------------------------------------------


def test_differential_sensitivity_examples():
    assert np.array_equal(attack.differential_sensitivity([5, 2], [3, 4]), [2, 2])
    z = attack.differential_sensitivity([1.0, 2.0], [1.0, 2.0])
    assert np.array_equal(z, [0.0, 0.0])
    rng = np.random.default_rng(0)
    a, b = rng.random(6), rng.random(6)
    assert np.array_equal(attack.differential_sensitivity(a, b),
                          attack.differential_sensitivity(b, a))
    with pytest.raises(InputError):
        attack.differential_sensitivity([1.0], [1.0, 2.0])


def test_normalize_features_scale_free():
    v = np.array([2.0, 4.0, 1.0])
    assert np.array_equal(attack.normalize_features(v), attack.normalize_features(10 * v))
    assert np.array_equal(attack.normalize_features(np.zeros(3)), np.zeros(3))
    # a matrix is scaled row by row; a zero row passes through
    M = np.array([[2.0, 4.0, 1.0], [0.0, 0.0, 0.0], [3.0, 1.0, 1.5]])
    want = np.stack([attack.normalize_features(row) for row in M])
    assert np.array_equal(attack.normalize_features(M), want)
    assert np.array_equal(want, [[0.5, 1.0, 0.25], [0.0, 0.0, 0.0], [1.0, 1 / 3, 0.5]])


# ---------------------------------------------------------------------------
# shadows and meta datasets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shadows(world):
    pool, aux, arch = world
    draws = default_draws(4, 8, 40, seed=77)
    return attack.train_shadows(aux, arch, draws, nn.TrainConfig(0.05, 3, 16))


def test_shadows_cover_every_class(shadows):
    prefs = {s.preference for s in shadows}
    assert prefs == {0, 1, 2, 3}
    for s in shadows:
        assert s.preference == int(np.argmax(s.dataset.class_counts))


def test_shadow_measured_cp_matches_sampler_contract(world):
    pool, aux, arch = world
    draws = attack.draw_shadow_specs(4, 4, 30, (0.9, 0.9), (0.2, 0.2), "majority", seed=5)
    out = attack.train_shadows(aux, arch, draws, nn.TrainConfig(0.05, 1, 16))
    for s in out:
        measured = s.dataset.class_counts.max() / 30
        assert 0.89 <= measured <= 0.91


def test_too_few_shadows_is_config_error():
    with pytest.raises(InputError):
        default_draws(4, 3, 40, seed=0)


def test_forty_shadows_ten_classes_all_preferred():
    pool = data.make_synthetic(10, 8, 120, seed=20, sigma=1.0)
    aux = data.sample_per_class(pool, 40, None)
    arch = nn.Architecture((nn.Dense(8, 12), nn.Relu(), nn.Dense(12, 10)), (8,), 10)
    draws = default_draws(10, 40, 50, seed=6)
    out = attack.train_shadows(aux, arch, draws, nn.TrainConfig(0.05, 1, 16))
    prefs = [s.preference for s in out]
    assert set(prefs) == set(range(10))


def test_centralized_meta_dataset_labels_and_nonnegativity(shadows, world):
    pool, aux, arch = world
    meta_ds = attack.build_meta_dataset_centralized(shadows)
    assert meta_ds.X.shape == (len(shadows), 4) and meta_ds.n_label == 4
    assert meta_ds.y.tolist() == [sh.preference for sh in shadows]
    assert (meta_ds.X >= 0).all()


def test_centralized_meta_argmin_tracks_label_for_skewed_shadows(world):
    pool, aux, arch = world
    draws = attack.draw_shadow_specs(4, 12, 50, (0.6, 0.6), (0.4, 0.4), "majority", seed=8)
    out = attack.train_shadows(aux, arch, draws, nn.TrainConfig(0.05, 3, 16))
    meta_ds = attack.build_meta_dataset_centralized(out)
    hit = np.mean(meta_ds.X.argmin(axis=1) == meta_ds.y)
    assert hit >= 0.8  # chance would be 0.25


def test_federated_meta_pairing_is_most_opposite(shadows, world):
    pool, aux, arch = world
    # fabricated sensitivities: partner must hold the largest value at mc_i
    fake = [dataclasses.replace(s) for s in shadows[:4]]
    for i, s in enumerate(fake):
        s.sensitivity = np.zeros(4)
        s.preference = 0
    fake[1].sensitivity[0] = 1.0
    fake[2].sensitivity[0] = 9.0
    fake[3].sensitivity[0] = 3.0
    assert pair_partners(fake, "majority")[0] == 2
    assert pair_partners(fake, "minority")[0] == 1  # index 0 excluded, min value

    two = fake[:2]
    two[0].preference, two[1].preference = 0, 1
    two[0].sensitivity = np.array([0.1, 5.0, 0.0, 0.0])
    two[1].sensitivity = np.array([5.0, 0.1, 0.0, 0.0])
    assert pair_partners(two, "majority").tolist() == [1, 0]


def pair_partners(shadows, mode):
    """Each shadow's partner, as build_meta_dataset_federated pairs them."""
    return attack.select_partners(np.stack([s.sensitivity for s in shadows]), 1, mode,
                                  [s.preference for s in shadows])[:, 0]


def test_federated_meta_dataset_shapes(shadows, world, monkeypatch):
    pool, aux, arch = world
    upd = nn.TrainConfig(0.05, 1, 16)
    train, trained_from = nn.train, []
    monkeypatch.setattr(nn, "train", lambda models, *args: trained_from.extend(models)
                        or train(models, *args))
    meta_ds = attack.build_meta_dataset_federated(shadows, aux, arch, upd, seed=9, mode="majority")
    # each update starts from the equal-weight fedavg of a shadow (the
    # anchor) and its per-shadow reference partner
    sens = [sh.sensitivity for sh in shadows]
    assert len(trained_from) == len(shadows)
    for i, (sh, got) in enumerate(zip(shadows, trained_from)):
        j, = reference_partners(sens, i, 1, "majority", sh.preference)
        want = fedsim.fedavg([sh.params, shadows[j].params], [1.0, 1.0])
        assert np.array_equal(got, want)
    assert meta_ds.X.shape == (len(shadows), 4) and meta_ds.n_label == 4
    assert meta_ds.y.tolist() == [sh.preference for sh in shadows]
    assert (meta_ds.X >= 0).all()
    with pytest.raises(InputError):
        attack.build_meta_dataset_federated(shadows[:1], aux, arch, upd, seed=9, mode="majority")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_diverged_meta_dataset_update_raises_numerical_error(shadows, world):
    pool, aux, arch = world
    with pytest.raises(NumericalError, match=r"^meta-dataset update 0 .*bound 1e\+06"):
        attack.build_meta_dataset_federated(shadows, aux, arch, nn.TrainConfig(1e6, 1, 16),
                                            seed=9, mode="majority")


def test_meta_csv_export(tmp_path, shadows, world):
    pool, aux, arch = world
    meta_ds = attack.build_meta_dataset_centralized(shadows)
    path = tmp_path / "meta.csv"
    harness.write_meta_csv(meta_ds, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s0,s1,s2,s3,label"
    assert len(lines) == len(meta_ds) + 1
    first = lines[1].split(",")
    assert len(first) == 5
    assert float(first[0]) == pytest.approx(meta_ds.X[0, 0])
    assert int(first[4]) == meta_ds.y[0]


# ---------------------------------------------------------------------------
# meta-classifier
# ---------------------------------------------------------------------------


def peaked_meta_dataset(rng, n_label, per_class, floor):
    """per_class rows of each class, in class blocks: features uniform in
    [0, floor) except a 1.0 at the row's class, so trivially separable."""
    y = np.repeat(np.arange(n_label), per_class)
    X = rng.random((len(y), n_label)) * floor
    X[np.arange(len(y)), y] = 1.0
    return data.LabeledDataset(X, y, n_label)


def test_meta_degenerate_single_label_always_predicts_it():
    rng = np.random.default_rng(1)
    # all-class coverage is required, so exercise the degenerate behaviour via
    # a heavily imbalanced but covering dataset instead
    X = np.concatenate([rng.random((3, 3)),
                        np.array([0.1, 0.9, 0.2]) + 0.01 * rng.random((60, 3))])
    samples = data.LabeledDataset(X, [0, 1, 2] + [1] * 60, 3)
    meta = attack.train_meta(samples, nn.TrainConfig(0.1, 200, 16), 0)
    preds = meta.scores(np.array([0.1, 0.9, 0.2]) + 0.01 * rng.random((20, 3))).argmax(axis=1)
    assert (preds == 1).sum() >= 18


def test_meta_linearly_separable_reaches_perfect_training_accuracy():
    samples = peaked_meta_dataset(np.random.default_rng(2), 4, 12, 0.2)
    meta = attack.train_meta(samples, nn.TrainConfig(0.2, 300, 16), 1)
    assert meta.train_accuracy == 1.0


def test_meta_missing_class_and_too_few_samples_rejected():
    samples = data.LabeledDataset(np.ones((3, 3)), [0, 1, 1], 3)
    with pytest.raises(InputError, match=r"no samples for classes \[2\]"):
        attack.train_meta(samples, nn.TrainConfig(0.1, 10, 4), 0)
    with pytest.raises(InputError, match="at least 3"):
        attack.train_meta(samples.subset([0, 1]), nn.TrainConfig(0.1, 10, 4), 0)


def test_meta_prediction_invariant_under_feature_scaling():
    rng = np.random.default_rng(3)
    samples = peaked_meta_dataset(rng, 3, 10, 0.3)
    meta = attack.train_meta(samples, nn.TrainConfig(0.2, 200, 16), 2)
    V = rng.random((10, 3))
    for scale in (500.0, 0.01):
        assert np.array_equal(np.argsort(-meta.scores(V), axis=1, kind="stable"),
                              np.argsort(-meta.scores(scale * V), axis=1, kind="stable"))


# ---------------------------------------------------------------------------
# select_partners
# ---------------------------------------------------------------------------


def reference_partners(sens, target, x, mode, cls=None):
    """The per-user partner choice: every other id sorted by (value at the
    candidate class, id), the largest value first in majority mode and the
    smallest first in minority mode.  The candidate class is ``cls`` if
    given, else the argmin (majority) or argmax (minority) of the target's
    row."""
    if cls is None:
        cls = int(np.argmin(sens[target]) if mode == "majority" else np.argmax(sens[target]))
    sign = -1.0 if mode == "majority" else 1.0
    others = [j for j in range(len(sens)) if j != target]
    return sorted(others, key=lambda j: (sign * sens[j][cls], j))[:x]


def test_partner_choice_top_x_by_value():
    s_target = np.array([0.5, 9.0])  # candidate class = argmin = 0
    sens = [s_target,
            np.array([1.0, 0.0]),
            np.array([5.0, 0.0]),
            np.array([3.0, 0.0]),
            np.array([9.0, 0.0])]
    assert attack.select_partners(sens, 2, "majority")[0].tolist() == [4, 2]


def test_partner_choice_boundary_all_others():
    sens = [np.arange(3, dtype=float) for _ in range(5)]
    got = attack.select_partners(sens, 4, "majority")
    assert got.shape == (5, 4)
    assert sorted(got[2]) == [0, 1, 3, 4]
    with pytest.raises(InputError):
        attack.select_partners(sens, 5, "majority")


def test_partner_choice_ties_break_to_lower_id():
    sens = [np.array([0.0, 1.0]), np.array([2.0, 0.0]), np.array([2.0, 0.0]),
            np.array([1.0, 0.0])]
    assert attack.select_partners(sens, 2, "majority")[0].tolist() == [1, 2]


def test_partner_choice_minority_mode_smallest_at_argmax():
    s_target = np.array([0.1, 7.0])  # minority candidate = argmax = 1
    sens = [s_target, np.array([0.0, 4.0]), np.array([0.0, 1.0]), np.array([0.0, 2.5])]
    assert attack.select_partners(sens, 2, "minority")[0].tolist() == [2, 3]


def test_partner_choice_deterministic_and_excludes_target():
    rng = np.random.default_rng(4)
    sens = [rng.random(5) for _ in range(8)]
    a = attack.select_partners(sens, 4, "majority")
    b = attack.select_partners(sens, 4, "majority")
    assert np.array_equal(a, b)
    assert all(u not in row for u, row in enumerate(a.tolist()))


@pytest.mark.parametrize("mode", ["majority", "minority"])
@pytest.mark.parametrize("tied", [False, True], ids=["random", "integer-tied"])
def test_partner_choice_equals_per_user_sorted_reference(mode, tied):
    rng = np.random.default_rng(60 + tied)
    for n_user in (2, 3, 4, 7, 16, 45, 100):
        n_label = int(rng.integers(2, 8))
        sens = (rng.integers(0, 3, (n_user, n_label)).astype(float) if tied
                else rng.random((n_user, n_label)))
        for x in sorted({1, n_user // 2, n_user - 1}):
            got = attack.select_partners(sens, x, mode)
            assert got.shape == (n_user, x)
            assert got.tolist() == [reference_partners(sens, u, x, mode) for u in range(n_user)]
        # the shadow pairing: x = 1 at each shadow's preferred class
        prefs = rng.integers(0, n_label, n_user)
        assert attack.select_partners(sens, 1, mode, prefs).tolist() == [
            reference_partners(sens, i, 1, mode, c) for i, c in enumerate(prefs)]


def test_partner_choice_memory_stays_linear_in_users():
    # An (n_user, n_user) key matrix would take 3.2 GB at 20,000 users, and
    # federation.n_user validates up to 2**63 - 1.
    sens = np.random.default_rng(5).random((20_000, 10))
    tracemalloc.start()
    try:
        partners = attack.select_partners(sens, 4, "majority")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert partners.shape == (20_000, 4)
    assert peak < 4 * 2 ** 20, peak
    for u in (0, 12_345, 19_999):
        assert partners[u].tolist() == reference_partners(sens, u, 4, "majority")


# ---------------------------------------------------------------------------
# streak-gated profiling
# ---------------------------------------------------------------------------


class ScoresAreFeatures:
    """Stand-in meta-classifier whose scores are the features themselves."""

    def scores(self, features):
        return np.asarray(features, dtype=np.float64)


def one_hot_rounds(script, n_label=3):
    """User 0's per-round (ids, (1, n_label) features), predicting ``script``."""
    return [([0], np.eye(n_label)[[c]]) for c in script]


def scalar_profile(rounds, n_user, score, th_round):
    """Per-user, per-round streak gate, the reference for the batched fold.

    ``rounds`` holds each round's (observed user ids, feature rows) pair, and
    ``score`` maps one user's feature row to its class scores.  A user is
    scored only in the rounds it was observed in; one never observed keeps
    verdict 0 and the identity ranking.  Returns the verdicts, lock rounds,
    rankings, and per-round predictions with None for users not observed in
    the round or locked in an earlier one.
    """
    n_label = len(rounds[0][1][0])
    last, streak = [None] * n_user, [0] * n_user
    lock, ranking = [None] * n_user, [list(range(n_label))] * n_user
    masked = []
    for r, (ids, f) in enumerate(rounds, start=1):
        row = [None] * n_user
        for u, feats in zip(ids, f):
            if lock[u] is not None:
                continue
            s = list(score(feats))
            pred = max(range(len(s)), key=lambda c: (s[c], -c))  # first max wins
            streak[u] = streak[u] + 1 if pred == last[u] else 1
            last[u] = pred
            ranking[u] = sorted(range(len(s)), key=lambda c: (-s[c], c))
            if streak[u] >= th_round:
                lock[u] = r
            row[u] = pred
        masked.append(row)
    return [0 if v is None else v for v in last], lock, ranking, masked


def test_th_round_one_locks_immediately():
    profile = attack.profile_history(one_hot_rounds([2, 0]), 1, ScoresAreFeatures(), th_round=1)
    assert profile.lock_rounds == [1] and profile.verdicts == [2]
    assert profile.predictions[:, 0].tolist() == [2, 0]  # later rounds are still scored


def test_streak_semantics_locks_on_round_five():
    meta = ScoresAreFeatures()
    profile = attack.profile_history(one_hot_rounds([0, 0, 1, 1, 1]), 1, meta, 3)  # A,A,B,B,B
    assert profile.lock_rounds == [5] and profile.verdicts == [1]
    profile = attack.profile_history(one_hot_rounds([0, 0, 1, 1]), 1, meta, 3)
    assert profile.lock_rounds == [None] and profile.verdicts == [1]


def test_profile_round_leaves_locked_users_alone():
    # user 0 locked to class 2 in round 1; user 1 is open with no prediction
    # yet; user 2 is open on a streak of 1 but not observed this round
    last, streak, lock = np.array([2, 0, 1]), np.array([1, 0, 1]), np.array([1, 0, 0])
    open_ = attack.profile_round(np.array([0, 1]), np.array([0, 0]), last, streak, lock, 2,
                                 th_round=1)
    assert open_.tolist() == [False, True]
    assert last.tolist() == [2, 0, 1] and streak.tolist() == [1, 1, 1]
    assert lock.tolist() == [1, 2, 0]


def test_profile_history_rejects_no_rounds_and_th_round_zero():
    with pytest.raises(InputError):
        attack.profile_history([], 1, ScoresAreFeatures(), 1)
    with pytest.raises(InputError):
        attack.profile_history(one_hot_rounds([0]), 1, ScoresAreFeatures(), 0)


@pytest.mark.parametrize("th_round", [1, 2, 3])
def test_batched_fold_matches_scalar_reference(th_round):
    rng = np.random.default_rng(60 + th_round)
    meta = ScoresAreFeatures()
    seen = {"locked": False, "never_locked": False, "broken_streak": False,
            "partial_round": False, "never_sampled": False}
    for trial in range(30):
        n_user, n_label, T = (int(v) for v in rng.integers((1, 2, 1), (8, 5, 9)))
        # every third trial samples a random non-empty subset of users per round
        ids = [np.sort(rng.choice(n_user, int(rng.integers(1, n_user + 1)), replace=False))
               if trial % 3 == 2 else np.arange(n_user) for _ in range(T)]
        # small integers tie often, in the argmax and in the ranking
        rounds = [(i, rng.integers(0, 3, (len(i), n_label)).astype(np.float64)
                   if trial % 2 else rng.random((len(i), n_label))) for i in ids]
        profile = attack.profile_history(rounds, n_user, meta, th_round)
        verdicts, lock, ranking, masked = scalar_profile(rounds, n_user, lambda row: row,
                                                         th_round)
        assert profile.verdicts == verdicts
        assert profile.lock_rounds == lock
        assert profile.rankings.tolist() == ranking
        accs = [(r, [0.0] * n_user, [0.0] * n_user) for r in range(1, T + 1)]
        log = harness._round_log(accs, profile)
        assert [e["predicted_class"] for e in log] == [p for row in masked for p in row]
        assert [e["locked"] for e in log] == [lock[u] is not None and lock[u] <= r
                                              for r in range(1, T + 1) for u in range(n_user)]
        seen["locked"] |= any(lr is not None for lr in lock)
        seen["never_locked"] |= any(lr is None for lr in lock)
        seen["broken_streak"] |= any(
            masked[r][u] != masked[r + 1][u] and masked[r + 1][u] is not None
            for r in range(T - 1) for u in range(n_user))
        seen["partial_round"] |= any(len(i) < n_user for i in ids)
        seen["never_sampled"] |= len(set().union(*map(set, ids))) < n_user
    assert seen["locked"] and seen["partial_round"] and seen["never_sampled"]
    if th_round > 1:
        assert seen["never_locked"] and seen["broken_streak"]


# ---------------------------------------------------------------------------
# top-k accuracy
# ---------------------------------------------------------------------------


# Distinct counts: the true ranking is strict, so exactly one top-k set is valid.


def test_topk_order_free_within_the_set():
    counts = [[4, 3, 2, 1]]  # true ranking 0, 1, 2, 3
    for pred in ([0, 1, 2, 3], [0, 2, 1, 3], [1, 0, 2, 3]):
        assert attack.topk_accuracy_from_counts([np.array(pred)], counts, 3, "majority") == 1.0


def test_top1_ranked_second_is_a_miss():
    counts = [[3, 2, 1]]  # true ranking 0, 1, 2
    pred = [np.array([1, 0, 2])]
    assert attack.topk_accuracy_from_counts(pred, counts, 1, "majority") == 0.0
    assert attack.topk_accuracy_from_counts(pred, counts, 2, "majority") == 1.0


def test_topk_exact_prediction_is_always_correct():
    truth = [np.array([2, 0, 1, 3])]
    counts = [[3, 2, 4, 1]]  # true ranking 2, 0, 1, 3
    for k in (1, 2, 3, 4):
        assert attack.topk_accuracy_from_counts(truth, counts, k, "majority") == 1.0
    with pytest.raises(InputError):
        attack.topk_accuracy_from_counts(truth, counts, 5, "majority")


def test_topk_from_counts_tie_aware():
    counts = [[10, 5, 5, 1]]
    # rank 2 is tied between classes 1 and 2: either completion is valid
    assert attack.topk_accuracy_from_counts([np.array([0, 1, 3, 2])], counts, 2, "majority") == 1.0
    assert attack.topk_accuracy_from_counts([np.array([0, 2, 3, 1])], counts, 2, "majority") == 1.0
    assert attack.topk_accuracy_from_counts([np.array([0, 3, 1, 2])], counts, 2, "majority") == 0.0
    # distinct counts behave exactly like the strict ranking comparison
    distinct = [[9, 7, 5, 3]]
    assert attack.topk_accuracy_from_counts([np.array([1, 0, 2, 3])], distinct, 1,
                                            "majority") == 0.0
    assert attack.topk_accuracy_from_counts([np.array([1, 0, 2, 3])], distinct, 2,
                                            "majority") == 1.0
    # minority mode ranks from the smallest count up; classes 1 and 2 tie there
    tied = [[10, 1, 1, 5]]

    def score(rank, k):
        return attack.topk_accuracy_from_counts([np.array(rank)], tied, k, "minority")

    assert score([1, 2, 3, 0], 1) == 1.0
    assert score([2, 1, 3, 0], 1) == 1.0
    assert score([3, 1, 2, 0], 1) == 0.0
    assert score([2, 1, 0, 3], 2) == 1.0
    assert score([1, 3, 2, 0], 2) == 0.0
    assert score([3, 2, 1, 0], 3) == 1.0
    assert score([0, 1, 2, 3], 3) == 0.0
    assert attack.topk_accuracy_from_counts([np.array([1, 2, 3, 0])], tied, 1, "majority") == 0.0


# ---------------------------------------------------------------------------
# profiler hook end to end (tiny)
# ---------------------------------------------------------------------------


def test_profiler_hook_runs_and_locks(world):
    pool, aux, arch = world
    aux_idx = aux.source_indices
    fed = data.make_federation_spec(4, 4, 60, (0.5, 0.6), (0.2, 0.4), seed=30,
                                    mode="majority", equalize_rest=False)
    # carve clients from the part of the pool not reserved for the auxiliary
    sub = pool.subset(np.setdiff1d(np.arange(len(pool)), aux_idx))
    clients, _ = data.build_federation(sub, fed, seed=31)
    draws = default_draws(4, 8, 40, seed=32)
    shadows = attack.train_shadows(aux, arch, draws, nn.TrainConfig(0.05, 3, 16))
    meta_ds = attack.build_meta_dataset_federated(shadows, aux, arch,
                                                  nn.TrainConfig(0.05, 1, 16), seed=33,
                                                  mode="majority")
    meta = attack.train_meta(meta_ds, nn.TrainConfig(0.1, 200, 8), 34)  # 8 meta rows
    init = nn.init_params(arch, seed=35)
    prof = attack.PreferenceProfiler(arch, aux, 2, "majority", {})
    train_cfg = nn.TrainConfig(0.05, 1, 16)
    st = fedsim.initial_state(4, init)
    for _ in range(8):
        st = fedsim.run_round(st, clients, arch, train_cfg, 1.0, prof, run_seed=36)
    assert len(prof.history) == 8
    profile = attack.profile_history([(tr.selected, tr.ds) for tr in prof.history], 4, meta,
                                     th_round=2)
    assert all(p is not None for p in profile.verdicts)
    last = prof.history[-1]
    assert last.selected == [0, 1, 2, 3]
    assert last.sensitivities.shape == (4, 4)
    assert last.ds.shape == (4, 4)
    # a locked user's verdict is its prediction in its lock round
    for u, lr_ in enumerate(profile.lock_rounds):
        if lr_ is not None:
            assert profile.predictions[lr_ - 1, u] == profile.verdicts[u]
    # every distributed model is a valid equal-weight fedavg of x+1 uploads
    for u in range(4):
        group = [u] + reference_partners(last.sensitivities, u, 2, "majority")
        want = fedsim.fedavg([st.uploaded[v] for v in group], [1.0] * 3, ids=group)
        assert np.array_equal(st.distributed[u], want)


def test_replay_matches_online_profiling(world):
    pool, aux, arch = world
    rng = np.random.default_rng(40)
    n_user, n_label, T = 4, 4, 6
    # rounds 1 and 4 sample users 0-2, the others two of them; user 3 is
    # never sampled
    selected = [[0, 1, 2], [0, 2], [1, 2], [0, 1, 2], [0, 1], [1, 2]]
    history = [attack.RoundTrace(ids, rng.random((n_user, n_label)),
                                 rng.random((len(ids), n_label))) for ids in selected]
    samples = peaked_meta_dataset(rng, 4, 8, 0.3)
    meta = attack.train_meta(samples, nn.TrainConfig(0.2, 150, 16), 41)
    rounds = [(tr.selected, tr.ds) for tr in history]
    profile = attack.profile_history(rounds, n_user, meta, 2)
    # online: one observed user and one round at a time, one meta-classifier row each
    verdicts, lock, ranking, masked = scalar_profile(
        rounds, n_user, lambda row: meta.scores(row[None])[0], 2)
    assert profile.verdicts == verdicts
    assert profile.lock_rounds == lock
    assert profile.rankings.tolist() == ranking
    assert (verdicts[3], lock[3], ranking[3]) == (0, None, [0, 1, 2, 3])
    log = harness._round_log([(r, [0.0] * n_user, [0.0] * n_user) for r in range(1, T + 1)],
                             profile)
    assert [e["predicted_class"] for e in log] == [p for row in masked for p in row]
    assert all(e["predicted_class"] is None for e in log if e["user"] == 3)
    assert any(e["predicted_class"] is None and e["user"] not in selected[e["round"] - 1]
               and not e["locked"] and e["user"] != 3 for e in log)


class ReferenceProfiler:
    """The profiler without its memo and its array forms: one
    extract_sensitivity per upload and per sampled user's received model,
    every round, and one per-user partner choice and fedavg per user."""

    def __init__(self, arch, aux, x, mode):
        self.arch, self.aux, self.x, self.mode = arch, aux, x, mode
        self.history = []

    def __call__(self, received, uploads, selected):
        sens = np.stack([attack.extract_sensitivity(nn.ParamVector(m), self.arch, self.aux)
                         for m in uploads])
        sent = np.stack([attack.extract_sensitivity(nn.ParamVector(received[u]), self.arch,
                                                    self.aux) for u in selected])
        ds = attack.differential_sensitivity(sent, sens[selected])
        self.history.append(attack.RoundTrace([int(u) for u in selected], sens, ds))
        if self.x is None:
            return fedsim.fedavg_hook(received, uploads, selected)
        distributed = []
        for u in range(len(uploads)):
            group = [u] + reference_partners(sens, u, self.x, self.mode)
            distributed.append(fedsim.fedavg([uploads[v] for v in group], [1.0] * len(group),
                                             ids=group))
        return np.stack(distributed)


@pytest.mark.parametrize("x", [2, None], ids=["x2", "fedavg"])
def test_memoised_profiler_matches_per_model_reference(world, monkeypatch, x):
    pool, aux, arch = world
    fed = data.make_federation_spec(6, 4, 40, (0.5, 0.6), (0.2, 0.4), seed=50,
                                    mode="majority", equalize_rest=False)
    sub = pool.subset(np.setdiff1d(np.arange(len(pool)), aux.source_indices))
    clients, _ = data.build_federation(sub, fed, seed=51)
    init = nn.init_params(arch, seed=52)
    train_cfg = nn.TrainConfig(0.05, 1, 16)

    # calls[r - 1] holds the parameter bytes of every extraction in round r.
    # The reference's calls are every model each round reads.
    extract = attack.extract_sensitivity

    def recorded(pv, arch, aux):
        calls[-1].append(pv.values.tobytes())
        return extract(pv, arch, aux)

    monkeypatch.setattr(attack, "extract_sensitivity", recorded)

    def run(*hooks):
        """The hooks in lockstep, one federation each; returns each one's
        round states."""
        sts, states = [fedsim.initial_state(6, init)] * len(hooks), []
        for _ in range(6):
            calls.append([])
            sts = [fedsim.run_round(st, clients, arch, train_cfg, 0.5, hook, run_seed=53)
                   for st, hook in zip(sts, hooks)]
            states.append(sts)
        return [list(arm) for arm in zip(*states)]

    calls = []
    ref = ReferenceProfiler(arch, aux, x, "majority")
    (ref_states,) = run(ref)
    requested, calls = calls, []
    prof = attack.PreferenceProfiler(arch, aux, x, "majority", {})
    (states,) = run(prof)

    assert len(prof.history) == len(ref.history) == 6
    for got, want in zip(prof.history, ref.history):
        assert got.selected == want.selected
        assert np.array_equal(got.sensitivities, want.sensitivities)
        assert np.array_equal(got.ds, want.ds)
    for got, want in zip(states, ref_states):
        assert got.selected == want.selected and len(got.selected) == 3
        for a, b in zip([*got.distributed, *got.uploaded], [*want.distributed, *want.uploaded]):
            assert np.array_equal(a, b)
    # DS from the round states alone, one row per sampled user: the model it
    # was sent the round before (the initial model in round 1) against the
    # model it trained from it and uploaded.
    received = [fedsim.initial_state(6, init)] + states[:-1]
    for tr, before, now in zip(prof.history, received, states):
        assert tr.selected == now.selected and tr.ds.shape == (3, 4)
        for row, u in zip(tr.ds, now.selected):
            want = np.abs(extract(nn.ParamVector(before.distributed[u]), arch, aux)
                          - extract(nn.ParamVector(now.uploaded[u]), arch, aux))
            assert np.array_equal(row, want)
    # Only uploads and the sampled users' received models are read.  An
    # unsampled user's received model, and a final-round distributed model,
    # is never extracted unless it was read as one of those.
    read = {m.tobytes() for before, now in zip(received, states)
            for m in [*before.distributed[now.selected], *now.uploaded]}
    unread = {m.tobytes() for before, now in zip(received, states)
              for m in [*before.distributed, *now.distributed]} - read
    skipped = {before.distributed[u].tobytes() for before, now in zip(received, states)
               for u in range(6) if u not in now.selected} - read
    assert set().union(*requested) == set().union(*calls) == read
    assert unread and unread.isdisjoint(set().union(*calls))
    assert skipped or x is None  # a broadcast model is read through a sampled user
    # One extraction per distinct model that neither this round nor the last
    # one has read already.
    for r in range(len(calls)):
        seen_last_round = set(requested[r - 1]) if r else set()
        assert sorted(calls[r]) == sorted(set(requested[r]) - seen_last_round)
    assert sum(map(len, calls)) < sum(map(len, requested))
    # The memo holds the models of those two rounds and no older ones.
    assert sorted(prof.memo) == [5, 6]
    assert set(prof.memo[5]) == set(requested[-2]) and set(prof.memo[6]) == set(requested[-1])

    # Two profilers, this rule and the other one, in lockstep on one memo:
    # each keeps its solo history, and a model read by either of them this
    # round or last round is not extracted again, so round 1, the same under
    # both rules, is extracted once.
    memo, calls = {}, []
    arms = [attack.PreferenceProfiler(arch, aux, rule, "majority", memo)
            for rule in (x, 2 if x is None else None)]
    arm_states = run(*arms)
    for got, want in zip(arms[0].history, prof.history):
        assert got.selected == want.selected
        assert np.array_equal(got.sensitivities, want.sensitivities)
        assert np.array_equal(got.ds, want.ds)
    assert np.array_equal(arm_states[0][-1].distributed, states[-1].distributed)

    def round_reads(arm):
        """Per round, the bytes of the models a profiler reads: the sampled
        users' received models and every upload."""
        return [{m.tobytes() for m in [*before.distributed[now.selected], *now.uploaded]}
                for before, now in zip([fedsim.initial_state(6, init)] + arm[:-1], arm)]

    reads = [a | b for a, b in zip(*map(round_reads, arm_states))]
    for r in range(len(calls)):
        assert sorted(calls[r]) == sorted(reads[r] - (reads[r - 1] if r else set()))
    assert sorted(calls[0]) == sorted(set(requested[0]))
    assert sorted(memo) == [5, 6]
    assert set(memo[5]) == reads[-2] and set(memo[6]) == reads[-1]
