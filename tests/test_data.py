"""Dataset synthesis, IDX I/O and partitioning tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprof import data, nn
from fedprof.errors import FormatError, InputError, SpecError


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------


def test_synthetic_near_zero_sigma_nearest_centroid_is_perfect():
    ds = data.make_synthetic(n_label=2, dim=4, per_class_pool=50, seed=1, sigma=1e-9)
    means = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(2)])
    d = np.linalg.norm(ds.X[:, None, :] - means[None, :, :], axis=-1)
    assert (d.argmin(axis=1) == ds.y).all()


def test_synthetic_same_seed_identical_bytes():
    a = data.make_synthetic(10, 8, 30, seed=7)
    b = data.make_synthetic(10, 8, 30, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = data.make_synthetic(10, 8, 30, seed=8)
    assert not np.array_equal(a.X, c.X)


def test_synthetic_mean_separation_at_least_four_sigma():
    sigma = 1.3
    ds = data.make_synthetic(10, 6, 200, seed=3, sigma=sigma)
    means = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(10)])
    gaps = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    offdiag = gaps[np.triu_indices(10, 1)]
    # empirical means wobble around the true centers; allow a small slack
    assert offdiag.min() > 4 * sigma - 0.5


def test_synthetic_mlp_reaches_90_percent_in_50_epochs():
    # Means depend on the seed, so train and eval on disjoint slices of one pool.
    pool = data.make_synthetic(10, 16, 110, seed=5)
    tr, te = [], []
    for c in range(10):
        idx = np.flatnonzero(pool.y == c)
        tr.append(idx[:80])
        te.append(idx[80:])
    tr_ds = pool.subset(np.concatenate(tr))
    te_ds = pool.subset(np.concatenate(te))
    arch = nn.Architecture((nn.Dense(16, 32), nn.Relu(), nn.Dense(32, 10)), (16,), 10)
    params = nn.init_params(arch, seed=0)
    cfg = nn.TrainConfig(learning_rate=0.1, epochs=50, batch_size=32)
    out = nn.train(params, arch, tr_ds.X, tr_ds.y, cfg, seed=1)
    assert nn.accuracy(out, arch, te_ds.X, te_ds.y) >= 0.90


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------


def test_idx_pixel_scaling_matches_format_arithmetic(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 1, 2, 2) + bytes([0, 255, 128, 64]))
    lbl.write_bytes(struct.pack(">II", 0x801, 1) + bytes([3]))
    ds = data.load_idx(img, lbl)
    assert len(ds) == 1 and ds.y[0] == 3
    assert np.allclose(ds.X[0], [0.0, 1.0, 128 / 255, 64 / 255])
    assert ds.X[0][2] == pytest.approx(0.50196, abs=1e-5)
    assert ds.X[0][3] == pytest.approx(0.25098, abs=1e-5)


def test_idx_bad_magic_named_in_error(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 1, 1, 1) + bytes([7]))
    # labels file carrying the images magic must be rejected
    lbl.write_bytes(struct.pack(">II", 0x803, 1) + bytes([0]))
    with pytest.raises(FormatError, match="magic"):
        data.load_idx(img, lbl)


def test_idx_truncation_and_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(7)))  # one byte short
    lbl.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    with pytest.raises(FormatError, match="pixel"):
        data.load_idx(img, lbl)
    img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8)))
    lbl.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 2]))
    with pytest.raises(FormatError, match="mismatch"):
        data.load_idx(img, lbl)


def test_idx_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.integers(0, 256, (25, 12)).astype(np.float64) / 255.0
    y = rng.integers(0, 10, 25)
    ds = data.LabeledDataset(X, y, 10, feature_shape=(3, 4))
    img, lbl = tmp_path / "a.idx", tmp_path / "b.idx"
    data.write_idx(ds, img, lbl)
    back = data.load_idx(img, lbl)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert back.feature_shape == (3, 4)


def test_idx_write_rejects_labels_beyond_a_byte(tmp_path):
    ds = data.LabeledDataset(np.zeros((2, 4)), [3, 299], 300)
    img, lbl = tmp_path / "a.idx", tmp_path / "b.idx"
    with pytest.raises(InputError, match="label 299"):
        data.write_idx(ds, img, lbl)


def test_idx_at_mnist_test_scale(tmp_path):
    # Structural stand-in for the canonical 10k-image test pair.
    rng = np.random.default_rng(1)
    X = rng.integers(0, 256, (10_000, 28 * 28)).astype(np.float64) / 255.0
    y = rng.integers(0, 10, 10_000)
    ds = data.LabeledDataset(X, y, 10, feature_shape=(28, 28))
    img, lbl = tmp_path / "t10k-images.idx", tmp_path / "t10k-labels.idx"
    data.write_idx(ds, img, lbl)
    back = data.load_idx(img, lbl)
    assert len(back) == 10_000
    assert back.class_counts.sum() == 10_000


# ---------------------------------------------------------------------------
# Distribution realization
# ---------------------------------------------------------------------------


def test_spec_counts_forced_allocation():
    spec = data.DistributionSpec(10, 100, cp=0.4, cd=0.2, preferred_class=0)
    counts = data.spec_counts(spec)
    assert counts[0] == 40 and counts[1] == 20
    assert (counts[2:] == 5).all()
    assert counts.sum() == 100


def test_spec_counts_cp_one_boundary():
    spec = data.DistributionSpec(10, 100, cp=1.0, cd=0.0, preferred_class=3)
    counts = data.spec_counts(spec)
    assert counts[3] == 100 and counts.sum() == 100
    assert np.count_nonzero(counts) == 1  # CP 1, CD 0: no runner-up class


def test_preference_class_by_mode_ties_to_lowest_index():
    counts = np.array([5, 9, 2, 9, 2])
    assert data.preference_class(counts, "majority") == 1
    assert data.preference_class(counts, "minority") == 2


def test_spec_counts_negative_runner_up_is_spec_error():
    with pytest.raises(SpecError):
        data.DistributionSpec(10, 100, cp=0.3, cd=0.5, preferred_class=0)


def test_realized_cp_at_case_study_scale():
    pool = data.make_synthetic(10, 4, 1600, seed=2)
    spec = data.DistributionSpec(10, 4000, cp=0.35, cd=0.325, preferred_class=2)
    ds = data.realize_distribution(pool, spec, seed=3)
    counts = ds.class_counts
    assert len(ds) == 4000
    measured_cp = counts.max() / 4000
    assert abs(measured_cp - 0.35) <= 0.00025


def test_realize_without_replacement_and_determinism():
    pool = data.make_synthetic(4, 3, 60, seed=0)
    spec = data.DistributionSpec(4, 80, cp=0.5, cd=0.25, preferred_class=1)
    a = data.realize_distribution(pool, spec, seed=9)
    b = data.realize_distribution(pool, spec, seed=9)
    assert np.array_equal(a.source_indices, b.source_indices)
    assert len(np.unique(a.source_indices)) == len(a)


def test_realize_insufficient_pool_is_input_error():
    pool = data.make_synthetic(4, 3, 10, seed=0)
    spec = data.DistributionSpec(4, 80, cp=0.5, cd=0.25, preferred_class=1)
    with pytest.raises(InputError):
        data.realize_distribution(pool, spec, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    n_label=st.integers(3, 10),
    total=st.integers(40, 400),
    cp=st.floats(0.2, 0.9),
    frac=st.floats(0.0, 1.0),
    pref=st.integers(0, 9),
)
def test_spec_counts_sum_and_round_trip_in_feasible_regime(n_label, total, cp, frac, pref):
    pref = pref % n_label
    cd = cp * frac
    spec = data.DistributionSpec(n_label, total, cp=cp, cd=cd, preferred_class=pref)
    counts = data.spec_counts(spec)
    assert counts.sum() == total
    assert counts.min() >= 0
    # measured CP round-trips whenever the preferred class really is the max
    if counts[pref] == counts.max() and counts[pref] > 0:
        assert abs(counts[pref] / total - cp) <= 1.0 / total + 1e-9
    # measured CD round-trips only when the runner-up target fits in the
    # remaining budget and the even spread stays below it
    runner = min(c for c in range(n_label) if c != pref)
    others = np.delete(counts, [pref, runner])
    uncapped = counts[pref] + (counts[pref] - round(cd * total)) <= total
    if (len(others) and uncapped and others.max() <= counts[runner]
            and counts[pref] == counts.max()):
        order = np.sort(counts)
        measured_cd = (order[-1] - order[-2]) / total
        assert abs(measured_cd - cd) <= 2.0 / total + 1e-9


def test_minority_mode_mirrors_majority_arithmetic():
    spec = data.DistributionSpec(10, 100, cp=0.02, cd=0.03, preferred_class=4,
                                 mode="minority")
    counts = data.spec_counts(spec)
    assert counts[4] == 2
    runner = 0  # lowest index != preferred
    assert counts[runner] == 5
    assert counts.sum() == 100
    assert counts[4] == counts.min()


# ---------------------------------------------------------------------------
# Federation building and auxiliary disjointness
# ---------------------------------------------------------------------------


def small_federation(seed=0):
    pool = data.make_synthetic(5, 3, 200, seed=seed)
    fed = data.make_federation_spec(
        n_user=4, n_label=5, total_size=60, cp_range=(0.4, 0.6),
        cd_range=(0.1, 0.3), seed=seed,
    )
    clients, used = data.build_federation(pool, fed, seed=seed)
    return pool, fed, clients, used


def test_federation_clients_are_mutually_disjoint():
    _, _, clients, used = small_federation()
    all_idx = np.concatenate([c.source_indices for c in clients])
    assert len(np.unique(all_idx)) == len(all_idx)
    assert np.array_equal(np.sort(all_idx), np.sort(used))


def test_auxiliary_disjoint_from_every_client():
    pool, _, clients, used = small_federation()
    aux = data.sample_per_class(pool, 10, used)
    assert len(np.intersect1d(aux.source_indices, used)) == 0
    assert np.array_equal(aux.class_counts, [10] * 5)
    assert np.array_equal(pool.y[aux.source_indices], aux.y)
    assert np.array_equal(pool.X[aux.source_indices], aux.X)


def test_sample_per_class_is_class_blocked():
    pool = data.make_synthetic(4, 3, 20, seed=2)
    shuffled = pool.subset(np.random.default_rng(0).permutation(len(pool)))
    drawn = data.sample_per_class(shuffled, 6, [0, 1, 2])
    assert drawn.y.tolist() == [0] * 6 + [1] * 6 + [2] * 6 + [3] * 6
    # each block holds its class's lowest unexcluded indices, in index order
    for c in range(4):
        want = [i for i in np.flatnonzero(shuffled.y == c) if i > 2][:6]
        assert drawn.source_indices[drawn.y == c].tolist() == \
            shuffled.source_indices[want].tolist()
    assert drawn.feature_shape == pool.feature_shape


def test_auxiliary_empty_store_and_exhausted_pool():
    pool = data.make_synthetic(3, 3, 20, seed=1)
    empty = data.sample_per_class(pool, 0, None)
    assert len(empty) == 0 and empty.X.shape == (0, 3) and empty.n_label == 3
    with pytest.raises(InputError):
        data.sample_per_class(pool, 5, np.arange(len(pool)))


def test_sample_per_class_rejects_a_negative_count():
    pool = data.make_synthetic(3, 3, 20, seed=1)
    with pytest.raises(InputError, match="per_class must be >= 0"):
        data.sample_per_class(pool, -1, None)


def test_federation_matches_spec_counts():
    pool, fed, clients, _ = small_federation(seed=3)
    for spec, ds in zip(fed.specs, clients):
        assert np.array_equal(ds.class_counts, data.spec_counts(spec))


# ---------------------------------------------------------------------------
# Federation specs
# ---------------------------------------------------------------------------


def test_make_federation_spec_ud_target_shares_class_zero():
    fed = data.make_federation_spec(10, 5, 100, (0.4, 0.6), (0.1, 0.3), seed=1,
                                    ud_target=0.3)
    prefs = [s.preferred_class for s in fed.specs]
    assert prefs[:3] == [0, 0, 0]
    assert 0 not in prefs[3:]


def test_make_federation_spec_hits_id_target():
    fed = data.make_federation_spec(6, 5, 100, (0.4, 0.6), (0.1, 0.3), seed=1,
                                    id_target=25.0)
    sizes = [s.total_size for s in fed.specs]
    assert np.var(sizes, ddof=1) == pytest.approx(25.0, rel=0.2)


@pytest.mark.parametrize("mode", ["majority", "minority"])
def test_equalized_grid_specs_tie_the_other_classes(mode):
    for n_label, total in ((2, 30), (3, 40), (4, 80), (5, 81)):
        grid = data.equalized_grid(n_label, total, (0.0, 1.0), (0.0, 1.0), mode)
        assert grid
        for cp, cd in grid:
            spec = data.DistributionSpec(n_label, total, cp, cd, n_label - 1, mode)
            counts = data.spec_counts(spec)
            preferred, rest = counts[-1], counts[:-1]
            assert rest.min() == rest.max()
            assert (preferred > rest[0]) if mode == "majority" else (preferred < rest[0])


def test_minority_equalized_federation_prefers_the_smallest_class():
    grid = data.equalized_grid(4, 80, (0.05, 0.15), (0.1, 0.2), "minority")
    assert grid == [(0.1, 0.2), (0.1375, 0.15)]
    fed = data.make_federation_spec(6, 4, 80, (0.05, 0.15), (0.1, 0.2), seed=1,
                                    mode="minority", equalize_rest=True)
    for spec in fed.specs:
        assert sorted(data.spec_counts(spec).tolist()) in ([8, 24, 24, 24], [11, 23, 23, 23])
        assert data.preference_class(data.spec_counts(spec), "minority") == spec.preferred_class
    # a preferred share of 40-60% is never the smallest of four classes
    with pytest.raises(SpecError, match="no equalized"):
        data.make_federation_spec(4, 4, 80, (0.4, 0.6), (0.4, 0.6), seed=1,
                                  mode="minority", equalize_rest=True)
