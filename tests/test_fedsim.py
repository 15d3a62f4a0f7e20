"""Federation loop tests: aggregation algebra, client sampling, round driver."""

import dataclasses

import numpy as np
import pytest

from fedprof import data, fedsim, nn
from fedprof.errors import InputError, InternalError, NumericalError


def pv(values):
    return nn.ParamVector(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# fedavg
# ---------------------------------------------------------------------------


def test_fedavg_idempotent_on_identical_models():
    m = pv([1.0, -2.0, 3.0])
    out = fedsim.fedavg([m, m, m], [1, 7, 2])
    assert np.array_equal(out.values, m.values)


def test_fedavg_weighted_mean_example():
    out = fedsim.fedavg([pv([2.0]), pv([4.0])], [1, 3])
    assert out.values[0] == pytest.approx(3.5)


def test_fedavg_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    models = [pv(rng.standard_normal(17)) for _ in range(5)]
    weights = [int(w) for w in rng.integers(1, 50, 5)]
    got = fedsim.fedavg(models, weights)
    total = sum(weights)
    expected = np.zeros(17)
    for i in range(17):
        acc = 0.0
        for m, w in zip(models, weights):
            acc += (w / total) * m.values[i]
        expected[i] = acc
    assert np.max(np.abs(got.values - expected)) <= 1e-12


def test_fedavg_permutation_invariant_with_ids():
    rng = np.random.default_rng(4)
    models = [pv(rng.standard_normal(9)) for _ in range(6)]
    weights = [int(w) for w in rng.integers(1, 9, 6)]
    ids = list(range(6))
    base = fedsim.fedavg(models, weights, ids=ids)
    perm = rng.permutation(6)
    shuffled = fedsim.fedavg([models[i] for i in perm], [weights[i] for i in perm],
                             ids=[ids[i] for i in perm])
    assert np.array_equal(base.values, shuffled.values)


def test_fedavg_equal_weights_is_plain_mean():
    rng = np.random.default_rng(5)
    models = [pv(rng.standard_normal(7)) for _ in range(4)]
    out = fedsim.fedavg(models, [3, 3, 3, 3])
    mean = np.mean([m.values for m in models], axis=0)
    assert np.allclose(out.values, mean, atol=1e-15)
    # equal sample counts s give the unit-weight average bit for bit: while
    # s * k is exact (below 2**53), s / (s * k) and 1 / k are the same double
    for k in (1, 2, 3, 7, 10, 20, 100):
        models = [pv(rng.standard_normal(5)) for _ in range(k)]
        ids = rng.permutation(k).tolist()
        unit = fedsim.fedavg(models, [1.0] * k, ids)
        for s in (1, 3, 40, 600, 12345, 10 ** 9):
            assert np.array_equal(fedsim.fedavg(models, [s] * k, ids).values, unit.values)


def anchored_loop(rows, shares):
    """The weighted average of ``rows`` as one loop over them, accumulating
    weighted deltas from the first row in row order."""
    acc = np.zeros_like(rows[0])
    for row, w in zip(rows, shares):
        acc += w * (row - rows[0])
    return rows[0] + acc


def test_average_groups_equals_the_per_group_anchored_loop():
    rng = np.random.default_rng(6)
    stacked = rng.standard_normal((12, 9))
    for width in (1, 2, 5, 12):
        groups = np.stack([rng.permutation(12)[:width] for _ in range(7)])
        shares = rng.random((7, width))
        shares /= shares.sum(axis=1, keepdims=True)
        got = fedsim.average_groups(stacked, groups, shares)
        assert got.shape == (7, 9)
        for avg, group, w in zip(got, groups, shares):
            assert np.array_equal(avg, anchored_loop(stacked[group], w))
    # fedavg is the one-group case, in ascending id order when ids are given
    models, weights, ids = [pv(row) for row in stacked[:5]], [3, 1, 4, 1, 5], [4, 0, 3, 1, 2]
    order = np.argsort(ids)
    want = anchored_loop(stacked[order], [weights[i] / 14 for i in order])
    assert np.array_equal(fedsim.fedavg(models, weights, ids).values, want)


def test_fedavg_rejects_bad_input():
    with pytest.raises(InputError):
        fedsim.fedavg([], [])
    with pytest.raises(InputError):
        fedsim.fedavg([pv([1.0])], [0])
    with pytest.raises(InternalError):
        fedsim.fedavg([pv([1.0, 2.0]), pv([1.0, 2.0, 3.0])], [1, 1])


# ---------------------------------------------------------------------------
# client sampling
# ---------------------------------------------------------------------------


def test_sample_full_fraction_returns_everyone():
    got = fedsim.client_fraction_sample(10, 1.0, np.random.default_rng(0))
    assert np.array_equal(got, np.arange(10))


@pytest.mark.parametrize("fraction", [0.0, 1.5])
def test_sample_fraction_outside_zero_one_is_input_error(fraction):
    with pytest.raises(InputError):
        fedsim.client_fraction_sample(10, fraction, np.random.default_rng(0))


# 0.07 * 100 is 7.000000000000001 in floats; the sample takes the ceiling of
# the decimal the fraction is written as.
@pytest.mark.parametrize("n_user, fraction, size", [
    (100, 0.07, 7), (50, 0.14, 7), (100, 0.0701, 8), (100, 0.2, 20), (10, 0.1, 1),
    (10, 1e-9, 1),
])
def test_sample_size_is_the_ceiling_of_the_decimal_fraction(n_user, fraction, size):
    got = fedsim.client_fraction_sample(n_user, fraction, np.random.default_rng(1))
    assert got.shape == (size,)
    assert len(set(got.tolist())) == size


def test_sampling_is_uniform_within_three_sigma():
    n, frac, draws = 10, 0.3, 10_000
    rng = np.random.default_rng(42)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[fedsim.client_fraction_sample(n, frac, rng)] += 1
    k = int(np.ceil(frac * n))
    p = k / n
    expected = draws * p
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


# ---------------------------------------------------------------------------
# run_round
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_world():
    pool = data.make_synthetic(3, 4, 120, seed=0, sigma=1.0)
    fed = data.make_federation_spec(3, 3, 45, (0.5, 0.6), (0.1, 0.2), seed=1,
                                    mode="majority", equalize_rest=False)
    clients, _ = data.build_federation(pool, fed, seed=2)
    arch = nn.Architecture((nn.Dense(4, 8), nn.Relu(), nn.Dense(8, 3)), (4,), 3)
    init = nn.init_params(arch, seed=3)
    return clients, arch, init


def test_single_client_identity_hook_global_equals_upload(tiny_world):
    clients, arch, init = tiny_world
    clients = clients[:1]
    cfg = nn.TrainConfig(0.05, 1, 8)
    state = fedsim.initial_state(1, init)
    state = fedsim.run_round(state, clients, arch, cfg, 1.0, fedsim.fedavg_hook, run_seed=7)
    assert np.array_equal(state.distributed[0].values, state.uploaded[0].values)


def test_two_rounds_bit_identical_on_rerun(tiny_world):
    clients, arch, init = tiny_world
    cfg = nn.TrainConfig(0.05, 1, 8)

    def run():
        st = fedsim.initial_state(3, init)
        for _ in range(2):
            st = fedsim.run_round(st, clients, arch, cfg, 1.0, fedsim.fedavg_hook, run_seed=11)
        return st

    a, b = run(), run()
    for u in range(3):
        assert np.array_equal(a.uploaded[u].values, b.uploaded[u].values)
        assert np.array_equal(a.distributed[u].values, b.distributed[u].values)


def test_run_round_scores_no_model(tiny_world, monkeypatch):
    clients, arch, init = tiny_world

    def refuse(*args):
        raise AssertionError("run_round scored a model")

    monkeypatch.setattr(nn, "accuracy", refuse)
    st = fedsim.initial_state(3, init)
    for _ in range(2):
        st = fedsim.run_round(st, clients, arch, nn.TrainConfig(0.05, 1, 8), 0.5,
                              fedsim.fedavg_hook, run_seed=12)
    assert st.round_index == 2 and len(st.selected) == 2
    assert [f.name for f in dataclasses.fields(st)] == [
        "round_index", "uploaded", "distributed", "selected"]


def test_training_improves_over_initial_model():
    pool = data.make_synthetic(4, 6, 300, seed=5, sigma=1.0)
    fed = data.make_federation_spec(10, 4, 80, (0.4, 0.6), (0.1, 0.3), seed=6,
                                    mode="majority", equalize_rest=False)
    clients, used = data.build_federation(pool, fed, seed=7)
    test = data.sample_per_class(pool, 20, used)
    arch = nn.Architecture((nn.Dense(6, 12), nn.Relu(), nn.Dense(12, 4)), (6,), 4)
    init = nn.init_params(arch, seed=8)
    before = nn.accuracy(init, arch, test.X, test.y)
    cfg = nn.TrainConfig(0.05, 1, 16)
    st = fedsim.initial_state(10, init)
    for _ in range(5):
        st = fedsim.run_round(st, clients, arch, cfg, 1.0, fedsim.fedavg_hook, run_seed=9)
    after = nn.accuracy(st.distributed[0], arch, test.X, test.y)
    assert after > before


def test_identity_hook_broadcasts_one_model(tiny_world):
    clients, arch, init = tiny_world
    cfg = nn.TrainConfig(0.05, 1, 8)
    st = fedsim.run_round(fedsim.initial_state(3, init), clients, arch, cfg, 1.0,
                          fedsim.fedavg_hook, run_seed=13)
    for u in range(1, 3):
        assert np.array_equal(st.distributed[0].values, st.distributed[u].values)


def test_unsampled_clients_keep_previous_upload(tiny_world):
    clients, arch, init = tiny_world
    cfg = nn.TrainConfig(0.05, 1, 8)
    st = fedsim.run_round(fedsim.initial_state(3, init), clients, arch, cfg,
                          0.34, fedsim.fedavg_hook, run_seed=17)  # ceil -> 2 of 3
    assert len(st.selected) == 2
    skipped = [u for u in range(3) if u not in st.selected]
    for u in skipped:
        assert np.array_equal(st.uploaded[u].values, init.values)
    for u in st.selected:
        assert not np.array_equal(st.uploaded[u].values, init.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_diverging_local_training_raises_numerical_error_naming_round_and_user(tiny_world):
    clients, arch, init = tiny_world
    cfg = nn.TrainConfig(1e6, 1, 8)
    with pytest.raises(NumericalError, match=r"round 1: .* user \d+ .*bound 1e\+06"):
        fedsim.run_round(fedsim.initial_state(3, init), clients, arch, cfg, 1.0,
                         fedsim.fedavg_hook, run_seed=7)


def test_each_round_checks_only_the_fresh_uploads(tiny_world, monkeypatch):
    # An idle upload is last round's model, already checked when it was
    # trained (or the shared init), so a round checks its sampled uploads
    # only, in ascending user order, and every distributed model.
    clients, arch, init = tiny_world
    checked = []
    check_finite = fedsim.check_finite

    def recording(model, where):
        checked.append(where)
        check_finite(model, where)

    monkeypatch.setattr(fedsim, "check_finite", recording)
    st = fedsim.initial_state(3, init)
    for _ in range(3):
        checked.clear()
        st = fedsim.run_round(st, clients, arch, nn.TrainConfig(0.05, 1, 8), 0.5,
                              fedsim.fedavg_hook, run_seed=12)
        assert len(st.selected) == 2
        assert checked == (
            [f"round {st.round_index}: the model uploaded for user {u}" for u in st.selected]
            + [f"round {st.round_index}: the model distributed for user {u}" for u in range(3)])


def test_a_round_trains_its_clients_in_one_call_and_names_the_lowest_diverged_user(
        tiny_world, monkeypatch):
    """The sampled clients train together, so a divergence is found after
    training: the uploads are checked in ascending id, the error names the
    first diverged user, and nothing is aggregated."""
    clients, arch, init = tiny_world
    calls = []
    train = nn.train

    def diverging(models, arch_, X, y, cfg, seeds):
        calls.append(len(seeds))
        out = train(models, arch_, X, y, cfg, seeds)
        for u in (2, 0):
            out[u] = pv(np.full(arch.n_params, np.inf))
        return out

    def hook(*args):
        raise AssertionError("a round with a diverged upload aggregated")

    monkeypatch.setattr(nn, "train", diverging)
    with pytest.raises(NumericalError, match="round 1: the model uploaded for user 0 "):
        fedsim.run_round(fedsim.initial_state(3, init), clients, arch, nn.TrainConfig(0.05, 1, 8),
                         1.0, hook, run_seed=7)
    assert calls == [3]


def test_diverged_distributed_model_raises_numerical_error_naming_user(tiny_world):
    clients, arch, init = tiny_world

    def blow_up_user_2(received, uploads, selected):
        out = fedsim.fedavg_hook(received, uploads, selected)
        return out[:2] + [pv(np.full(arch.n_params, np.inf))]

    with pytest.raises(NumericalError, match="round 1: the model distributed for user 2 "):
        fedsim.run_round(fedsim.initial_state(3, init), clients, arch, nn.TrainConfig(0.05, 1, 8),
                         1.0, blow_up_user_2, run_seed=7)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, -2e6])
def test_check_finite_rejects_nan_inf_and_diverged_values(bad):
    fedsim.check_finite(pv([0.5, -fedsim.DIVERGENCE_BOUND, 0.0]), "a model at the bound")
    with pytest.raises(NumericalError, match="^user 4 has non-finite or diverged parameters"):
        fedsim.check_finite(pv([0.5, bad, 0.0]), "user 4")
