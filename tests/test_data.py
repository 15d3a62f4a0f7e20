"""Dataset synthesis, IDX I/O and partitioning tests."""

import math
import re
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprof import data, nn
from fedprof.errors import FormatError, InputError


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------


def test_synthetic_near_zero_sigma_nearest_centroid_is_perfect():
    ds = data.make_synthetic(n_label=2, dim=4, per_class_pool=50, seed=1, sigma=1e-9)
    means = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(2)])
    d = np.linalg.norm(ds.X[:, None, :] - means[None, :, :], axis=-1)
    assert (d.argmin(axis=1) == ds.y).all()


def test_synthetic_same_seed_identical_bytes():
    a = data.make_synthetic(10, 8, 30, seed=7, sigma=1.0)
    b = data.make_synthetic(10, 8, 30, seed=7, sigma=1.0)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = data.make_synthetic(10, 8, 30, seed=8, sigma=1.0)
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
    pool = data.make_synthetic(10, 16, 110, seed=5, sigma=1.0)
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
    out = nn.train([params], arch, tr_ds.X, tr_ds.y, cfg, [1])[0]
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
    counts = data.target_counts(10, 100, cp=0.4, cd=0.2, preferred_class=0, mode="majority")
    assert counts[0] == 40 and counts[1] == 20
    assert (counts[2:] == 5).all()
    assert counts.sum() == 100


def test_spec_counts_cp_one_boundary():
    counts = data.target_counts(10, 100, cp=1.0, cd=0.0, preferred_class=3, mode="majority")
    assert counts[3] == 100 and counts.sum() == 100
    assert np.count_nonzero(counts) == 1  # CP 1, CD 0: no runner-up class


def test_preference_class_by_mode_ties_to_lowest_index():
    counts = np.array([5, 9, 2, 9, 2])
    assert data.preference_class(counts, "majority") == 1
    assert data.preference_class(counts, "minority") == 2


def test_spec_counts_negative_runner_up_is_spec_error():
    with pytest.raises(InputError):
        data.target_counts(10, 100, cp=0.3, cd=0.5, preferred_class=0, mode="majority")


@pytest.mark.parametrize("args, message", [
    ((1, 100, 0.5, 0.2, 0, "majority"), "n_label must be >= 2"),
    ((10, 0, 0.5, 0.2, 0, "majority"), "total_size must be >= 1"),
    ((10, 100, 0.0, 0.0, 0, "majority"), "cp must be in (0, 1], got 0.0"),
    ((10, 100, 1.5, 0.2, 0, "majority"), "cp must be in (0, 1], got 1.5"),
    ((10, 100, 1.0, 1.5, 0, "minority"), "cd must be in [0, 1], got 1.5"),
    ((10, 100, 0.3, 0.5, 0, "majority"), "cd 0.5 > cp 0.3 implies a negative class count"),
    ((10, 100, 0.5, 0.2, 10, "majority"), "preferred_class out of range"),
    ((10, 100, 0.5, 0.2, -1, "majority"), "preferred_class out of range"),
    ((10, 100, 0.5, 0.2, 0, "median"), "mode must be 'majority' or 'minority', got 'median'"),
], ids=["one-label", "empty", "cp-zero", "cp-above-one", "cd-above-one", "cd-above-cp",
        "preferred-too-high", "preferred-negative", "unknown-mode"])
def test_target_counts_rejects_arguments_that_describe_no_dataset(args, message):
    with pytest.raises(InputError, match=re.escape(message)):
        data.target_counts(*args)


def test_realized_cp_at_case_study_scale():
    pool = data.make_synthetic(10, 4, 1600, seed=2, sigma=1.0)
    target = data.target_counts(10, 4000, cp=0.35, cd=0.325, preferred_class=2, mode="majority")
    ds = data.realize_distribution(pool, target, seed=3)
    counts = ds.class_counts
    assert len(ds) == 4000
    measured_cp = counts.max() / 4000
    assert abs(measured_cp - 0.35) <= 0.00025


def test_realize_without_replacement_and_determinism():
    pool = data.make_synthetic(4, 3, 60, seed=0, sigma=1.0)
    counts = data.target_counts(4, 80, cp=0.5, cd=0.25, preferred_class=1, mode="majority")
    a = data.realize_distribution(pool, counts, seed=9)
    b = data.realize_distribution(pool, counts, seed=9)
    assert np.array_equal(a.source_indices, b.source_indices)
    assert len(np.unique(a.source_indices)) == len(a)


def test_realize_insufficient_pool_is_input_error():
    pool = data.make_synthetic(4, 3, 10, seed=0, sigma=1.0)
    counts = data.target_counts(4, 80, cp=0.5, cd=0.25, preferred_class=1, mode="majority")
    with pytest.raises(InputError):
        data.realize_distribution(pool, counts, seed=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
    counts = data.target_counts(n_label, total, cp=cp, cd=cd, preferred_class=pref,
                                mode="majority")
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
    counts = data.target_counts(10, 100, cp=0.02, cd=0.03, preferred_class=4,
                                mode="minority")
    assert counts[4] == 2
    runner = 0  # lowest index != preferred
    assert counts[runner] == 5
    assert counts.sum() == 100
    assert counts[4] == counts.min()


# ---------------------------------------------------------------------------
# Federation building and auxiliary disjointness
# ---------------------------------------------------------------------------


def small_federation(seed=0):
    pool = data.make_synthetic(5, 3, 200, seed=seed, sigma=1.0)
    fed = data.make_federation_spec(
        n_user=4, n_label=5, total_size=60, cp_range=(0.4, 0.6),
        cd_range=(0.1, 0.3), seed=seed, mode="majority", equalize_rest=False,
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
    pool = data.make_synthetic(4, 3, 20, seed=2, sigma=1.0)
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
    pool = data.make_synthetic(3, 3, 20, seed=1, sigma=1.0)
    empty = data.sample_per_class(pool, 0, None)
    assert len(empty) == 0 and empty.X.shape == (0, 3) and empty.n_label == 3
    with pytest.raises(InputError):
        data.sample_per_class(pool, 5, np.arange(len(pool)))


def test_sample_per_class_rejects_a_negative_count():
    pool = data.make_synthetic(3, 3, 20, seed=1, sigma=1.0)
    with pytest.raises(InputError, match="per_class must be >= 0"):
        data.sample_per_class(pool, -1, None)


def test_federation_matches_spec_counts():
    pool, fed, clients, _ = small_federation(seed=3)
    assert fed.shape == (4, 5) and fed.dtype == np.int64
    for row, ds in zip(fed, clients):
        assert np.array_equal(ds.class_counts, row)


# ---------------------------------------------------------------------------
# Federation specs
# ---------------------------------------------------------------------------


def test_make_federation_spec_rejects_counts_that_miss_the_preferred_class():
    # two classes at cp 0.4: the class each user was given holds the smaller share
    with pytest.raises(InputError, match=r"^user 0's counts \[40, 60\] prefer class 1, "
                                        r"not its class 0$"):
        data.make_federation_spec(3, 2, 100, (0.4, 0.4), (0.1, 0.1), seed=1,
                                  mode="majority", equalize_rest=False)


def reference_equalized_point(n_label, total_size, cp_range, cd_range, mode, m):
    """(cp, cd) of preferred count m if the equalized grid keeps it, else
    None: one step of the slow reference walk."""
    rest_classes = n_label - 1
    if (total_size - m) % rest_classes:
        return None
    pack = (total_size - m) // rest_classes
    gap = m - pack if mode == "majority" else pack - m
    if gap <= 0:
        return None
    cp, cd = m / total_size, gap / total_size
    if cp_range[0] <= cp <= cp_range[1] and cd_range[0] <= cd <= cd_range[1]:
        return cp, cd
    return None


def reference_equalized_grid(n_label, total_size, cp_range, cd_range, mode):
    """{m: (cp, cd)} of every equalized grid point, in ascending m, by a walk
    over each m below total_size: the slow reference for
    :func:`data.equalized_grid`."""
    points = ((m, reference_equalized_point(n_label, total_size, cp_range, cd_range, mode, m))
              for m in range(1, total_size))
    return {m: point for m, point in points if point is not None}


def test_equalized_grid_and_rows_match_the_reference_walk():
    rng = np.random.default_rng(26)
    for i in range(1000):
        n_label, total = int(rng.integers(2, 13)), int(rng.integers(1, 2001))
        mode = ("majority", "minority")[i % 2]
        ranges = []
        for _ in range(2):
            if i % 3 == 0:  # round ends, in steps of 0.05
                ends = rng.integers(0, 21, 2) / 20
            elif i % 3 == 1:  # ends that are exact shares of the total
                ends = rng.integers(0, total + 1, 2) / total
            else:
                ends = rng.uniform(0.0, 1.0, 2)
            ranges.append(tuple(sorted(float(e) for e in ends)))
        want = reference_equalized_grid(n_label, total, *ranges, mode)
        grid = data.equalized_grid(n_label, total, *ranges, mode)
        assert list(grid) == list(want)
        if not want:
            continue
        # each equalized row is what target_counts makes of the reference's
        # (cp, cd) for its preferred count
        fed = data.make_federation_spec(5, n_label, total, *ranges, seed=i, mode=mode,
                                        equalize_rest=True)
        for row in fed:
            pref = data.preference_class(row, mode)
            assert np.array_equal(
                row, data.target_counts(n_label, total, *want[int(row[pref])], pref, mode))


def test_equalized_grid_keeps_a_share_equal_to_its_range_end():
    # 0.55 * 100 is 55.00000000000001, so ceil(0.55 * 100) is 56, yet the
    # grid's own test 55 / 100 >= 0.55 holds: the grid starts at 55
    assert math.ceil(0.55 * 100) == 56
    grid = data.equalized_grid(2, 100, (0.55, 0.6), (0.0, 1.0), "majority")
    assert list(grid) == [55, 56, 57, 58, 59, 60]


@pytest.mark.parametrize("total", [10 ** 12, 2 ** 63 - 1])
@pytest.mark.parametrize("mode, cp_range, cd_range", [
    ("majority", (0.4, 0.6), (0.4, 0.6)),
    ("minority", (0.02, 0.08), (0.05, 0.1)),
])
def test_equalized_grid_of_a_huge_user_size_returns_at_once(total, mode, cp_range, cd_range):
    t0 = time.perf_counter()
    grid = data.equalized_grid(10, total, cp_range, cd_range, mode)
    assert time.perf_counter() - t0 < 0.5
    assert grid.step == 9

    def kept(m):
        return reference_equalized_point(10, total, cp_range, cd_range, mode, m) is not None

    # the ends pass the reference's tests, the aligned counts beyond them fail
    assert kept(grid[0]) and kept(grid[-1])
    assert not kept(grid[0] - 9) and not kept(grid[-1] + 9)


@pytest.mark.parametrize("mode", ["majority", "minority"])
def test_equalized_grid_specs_tie_the_other_classes(mode):
    for n_label, total in ((2, 30), (3, 40), (4, 80), (5, 81)):
        fed = data.make_federation_spec(12, n_label, total, (0.0, 1.0), (0.0, 1.0), seed=n_label,
                                        mode=mode, equalize_rest=True)
        for row in fed:
            pref = data.preference_class(row, mode)
            preferred, rest = row[pref], np.delete(row, pref)
            assert row.sum() == total and rest.min() == rest.max()
            assert (preferred > rest[0]) if mode == "majority" else (preferred < rest[0])


def test_minority_equalized_federation_prefers_the_smallest_class():
    grid = data.equalized_grid(4, 80, (0.05, 0.15), (0.1, 0.2), "minority")
    assert list(grid) == [8, 11]
    fed = data.make_federation_spec(6, 4, 80, (0.05, 0.15), (0.1, 0.2), seed=1,
                                    mode="minority", equalize_rest=True)
    for row in fed:
        assert sorted(row.tolist()) in ([8, 24, 24, 24], [11, 23, 23, 23])
    # the preferred classes are drawn at random, and each row's one smallest
    # class is its preferred one
    assert [data.preference_class(row, "minority") for row in fed] == [0, 0, 2, 0, 2, 3]
    assert all((row == row.min()).sum() == 1 for row in fed)
    # a preferred share of 40-60% is never the smallest of four classes
    with pytest.raises(InputError, match="no equalized"):
        data.make_federation_spec(4, 4, 80, (0.4, 0.6), (0.4, 0.6), seed=1,
                                  mode="minority", equalize_rest=True)
