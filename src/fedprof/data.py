"""Dataset synthesis, IDX container I/O and heterogeneous partitioning.

All sampling is without replacement and deterministic given a seed.  Client
datasets, the server's auxiliary store and the test set are kept disjoint by
index bookkeeping against a shared source pool.
"""

from __future__ import annotations

import bisect
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from .errors import InputError, FormatError
from .seeding import derive_seed

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


# ---------------------------------------------------------------------------
# Core containers
# ---------------------------------------------------------------------------


@dataclass
class LabeledDataset:
    """Feature matrix (n, d), stored in the engine's dtype ``nn.DTYPE``, with
    integer labels in [0, n_label).

    ``source_indices`` records where each sample sits in the pool it was
    drawn from, which is what makes disjointness checks possible.
    """

    X: np.ndarray
    y: np.ndarray
    n_label: int
    feature_shape: tuple = ()
    source_indices: Optional[np.ndarray] = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=nn.DTYPE)
        if self.X.ndim == 1:
            self.X = self.X[:, None]
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.shape[0] != self.y.shape[0]:
            raise InputError("X and y disagree on sample count")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_label):
            raise InputError(f"labels must lie in [0, {self.n_label})")
        if not self.feature_shape:
            self.feature_shape = (self.X.shape[1],)
        if self.source_indices is not None:
            self.source_indices = np.asarray(self.source_indices, dtype=np.int64)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_label)

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.int64)
        src = self.source_indices[indices] if self.source_indices is not None else indices
        return LabeledDataset(self.X[indices], self.y[indices], self.n_label,
                              self.feature_shape, src)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def make_synthetic(n_label: int, dim: int, per_class_pool: int, seed: int,
                   sigma: float) -> LabeledDataset:
    """Isotropic Gaussian blobs, one per class, pairwise mean distance >= 4*sigma.

    Class means sit on random unit directions scaled so the closest pair is
    max(4*sigma, 1) apart: classes are learnable but not trivially separable,
    and shrinking sigma towards zero degenerates into point clusters.
    """
    if n_label < 2:
        raise InputError("n_label must be >= 2")
    if dim < 2:
        raise InputError("dim must be >= 2")
    rng = np.random.default_rng(derive_seed(seed, "synthetic"))
    min_gap = 0.0
    while min_gap < 1e-3:  # redrawing is essentially never needed, but keeps the scale finite
        dirs = rng.standard_normal((n_label, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gaps = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=-1)
        min_gap = gaps[np.triu_indices(n_label, 1)].min()
    means = dirs * (max(4.0 * sigma, 1.0) / min_gap)
    # Drawn in float64 one class at a time and cast into the engine dtype, so
    # the stream does not depend on the dtype and no float64 pool is held.
    X = np.empty((n_label * per_class_pool, dim), dtype=nn.DTYPE)
    for c in range(n_label):
        X[c * per_class_pool:(c + 1) * per_class_pool] = (
            means[c] + sigma * rng.standard_normal((per_class_pool, dim)))
    y = np.repeat(np.arange(n_label), per_class_pool)
    return LabeledDataset(X, y, n_label)


# ---------------------------------------------------------------------------
# IDX container I/O
# ---------------------------------------------------------------------------


def _read_exact(f, size, what):
    blob = f.read(size)
    if len(blob) != size:
        raise FormatError(f"truncated file {f.name} while reading {what}")
    return blob


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an image/label IDX pair; pixels scaled to [0, 1]."""
    n, rows, cols = load_idx_header(images_path)
    with open(images_path, "rb") as f:
        f.seek(16)
        pixels = np.frombuffer(_read_exact(f, n * rows * cols, "images pixel data"), dtype=np.uint8)
    y = load_idx_labels(labels_path)
    if n != len(y):
        raise FormatError(f"count mismatch: {n} images but {len(y)} labels")
    X = pixels.astype(nn.DTYPE).reshape(n, rows * cols)
    X /= 255.0  # k / 255 in float32 is the float64 quotient cast, for every byte k
    n_label = int(y.max()) + 1 if n else 1
    return LabeledDataset(X, y, n_label, feature_shape=(rows, cols))


def _check_size(f, need: int, what: str) -> None:
    """Raise FormatError, naming the open file ``f``, if it is shorter than
    the ``need`` bytes its header promises (``what``)."""
    size = os.fstat(f.fileno()).st_size
    if size < need:
        raise FormatError(f"{f.name} holds {size} bytes, fewer than the {need} its header "
                          f"promises ({what})")


def load_idx_header(images_path) -> tuple:
    """(count, rows, cols) from the 16-byte header of an IDX image file, which
    must hold the count * rows * cols pixel bytes the header promises."""
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "images magic"))
        if magic != IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, "images dimensions"))
        _check_size(f, 16 + n * rows * cols, f"{n} images of {rows}x{cols} pixels")
    return n, rows, cols


def load_idx_labels(labels_path) -> np.ndarray:
    """The labels of an IDX label file, as int64."""
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "labels magic"))
        if magic != LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{LABELS_MAGIC:08x}")
        (n,) = struct.unpack(">I", _read_exact(f, 4, "labels count"))
        _check_size(f, 8 + n, f"{n} one-byte labels")
        return np.frombuffer(_read_exact(f, n, "labels data"), dtype=np.uint8).astype(np.int64)


def write_idx(ds: LabeledDataset, images_path, labels_path) -> None:
    """Write a dataset as an IDX image/label pair.

    Features are clipped to [0, 1] and quantised to the u8 grid, so a write
    followed by a load is exact for any dataset whose values already lie on
    that grid (in particular anything previously loaded from IDX).
    """
    if len(ds) and ds.y.max() > 255:
        raise InputError(f"IDX labels are single bytes, label {ds.y.max()} does not fit")
    if len(ds.feature_shape) == 2:
        rows, cols = ds.feature_shape
    else:
        rows, cols = 1, ds.X.shape[1]
    pixels = np.rint(np.clip(ds.X, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, len(ds), rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, len(ds)))
        f.write(ds.y.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Heterogeneous partitioning
# ---------------------------------------------------------------------------


def preference_class(counts: np.ndarray, mode: str) -> int:
    """The most (majority mode) or least (minority mode) frequent class; ties
    go to the lowest class index."""
    return int(np.argmax(counts) if mode == "majority" else np.argmin(counts))


def target_counts(n_label: int, total_size: int, cp: float, cd: float,
                  preferred_class: int, mode: str) -> np.ndarray:
    """The int64 per-class counts of a dataset of ``total_size`` samples
    shaped by class proportion ``cp`` and class dominance ``cd``.

    In majority mode the preferred class holds round(cp * total_size) samples
    and a designated runner-up class, the lowest other index, holds
    cp*total - cd*total; in minority mode the preferred class is the smallest
    and the runner-up is cd*total above it.  The rest is spread as evenly as
    possible over the remaining classes, remainder to the lowest class
    indices.  Counts always sum to total_size.  The measured CD only
    round-trips cd when the even spread stays below the runner-up count;
    targets outside that regime are still realized (majority count first,
    runner-up capped by what is left).  Raises InputError for arguments that
    describe no dataset.
    """
    if n_label < 2:
        raise InputError("n_label must be >= 2")
    if total_size < 1:
        raise InputError("total_size must be >= 1")
    if not 0.0 < cp <= 1.0:
        raise InputError(f"cp must be in (0, 1], got {cp}")
    if not 0.0 <= cd <= 1.0:
        raise InputError(f"cd must be in [0, 1], got {cd}")
    if mode == "majority" and cd > cp:
        raise InputError(f"cd {cd} > cp {cp} implies a negative class count")
    if not 0 <= preferred_class < n_label:
        raise InputError("preferred_class out of range")
    if mode not in ("majority", "minority"):
        raise InputError(f"mode must be 'majority' or 'minority', got {mode!r}")
    counts = np.zeros(n_label, dtype=np.int64)
    runner = min(c for c in range(n_label) if c != preferred_class)
    others = [c for c in range(n_label) if c not in (preferred_class, runner)]

    if mode == "majority":
        main = int(round(cp * total_size))
        main = max(1, min(main, total_size))
        second = main - int(round(cd * total_size))
        if second < 0:
            raise InputError(f"cp={cp}, cd={cd} give a negative runner-up count")
        second = min(second, total_size - main)
    else:
        main = int(round(cp * total_size))
        main = max(0, min(main, total_size))
        second = min(main + int(round(cd * total_size)), total_size - main)
    counts[preferred_class] = main
    if not others:
        counts[runner] = total_size - main
        return counts
    counts[runner] = second
    rest = total_size - main - second
    base, extra = divmod(rest, len(others))
    for rank, c in enumerate(sorted(others)):
        counts[c] = base + (1 if rank < extra else 0)
    return counts


def realize_distribution(pool: LabeledDataset, counts: np.ndarray,
                         seed: int) -> LabeledDataset:
    """Draw ``counts[c]`` samples of each class c from ``pool`` without
    replacement."""
    if pool.n_label != len(counts):
        raise InputError("pool and counts disagree on n_label")
    rng = np.random.default_rng(derive_seed(seed, "realize"))
    picked = []
    for c in range(pool.n_label):
        if counts[c] == 0:
            continue
        avail = np.flatnonzero(pool.y == c)
        if len(avail) < counts[c]:
            raise InputError(
                f"pool has {len(avail)} samples of class {c}, the target needs {counts[c]}"
            )
        picked.append(rng.choice(avail, size=counts[c], replace=False))
    return pool.subset(np.concatenate(picked))


def build_federation(pool: LabeledDataset, counts: np.ndarray, seed: int):
    """Realize the (n_user, n_label) class counts ``counts``, one row per
    user, from the pool with mutually disjoint samples.

    Per-class index stacks are shuffled once, then consumed in user order, so
    the result is deterministic and each user's draw is uniform without
    replacement.  Returns (client datasets, used pool indices).
    """
    stacks = []
    for c in range(pool.n_label):
        idx = np.flatnonzero(pool.y == c)
        rng = np.random.default_rng(derive_seed(seed, "federation-class", c))
        stacks.append(rng.permutation(idx))
    cursor = [0] * pool.n_label
    clients = []
    for u, row in enumerate(counts):
        picked = []
        for c in range(pool.n_label):
            need = int(row[c])
            if need == 0:
                continue
            if cursor[c] + need > len(stacks[c]):
                raise InputError(
                    f"pool exhausted for class {c} while building user {u}"
                )
            picked.append(stacks[c][cursor[c]:cursor[c] + need])
            cursor[c] += need
        clients.append(pool.subset(np.concatenate(picked)))
    used = np.concatenate([ds.source_indices for ds in clients])
    return clients, used


def sample_per_class(pool: LabeledDataset, per_class: int, excluded_indices) -> LabeledDataset:
    """The lowest-index ``per_class`` samples of each class that are not
    excluded, in class blocks: class 0's rows first, then class 1's, and so
    on.  This draws the server's auxiliary store and the test set."""
    if per_class < 0:
        raise InputError("per_class must be >= 0")
    excluded = np.zeros(len(pool), dtype=bool)
    if excluded_indices is not None and len(excluded_indices):
        excluded[np.asarray(excluded_indices, dtype=np.int64)] = True
    picked = []
    for c in range(pool.n_label):
        avail = np.flatnonzero((pool.y == c) & ~excluded)
        if len(avail) < per_class:
            raise InputError(
                f"only {len(avail)} unexcluded samples of class {c}, need {per_class}"
            )
        picked.append(avail[:per_class])
    return pool.subset(np.concatenate(picked))


# ---------------------------------------------------------------------------
# Federation spec construction helpers
# ---------------------------------------------------------------------------


def equalized_grid(n_label: int, total_size: int, cp_range, cd_range, mode: str) -> range:
    """The ascending preferred counts m under which every non-preferred class
    holds the same count, pack = (total - m) / (n_label - 1).

    With the usual rounding, nearby classes end up one sample apart, which
    leaves the rank-2/3 ground truth of a dataset decided by a single sample.
    On this grid the top-k truth is a clean (preferred + any others) family.
    m steps by n_label - 1 through the m >= 1 that leave total - m a positive
    multiple of it, and keeps m > pack in majority mode, m < pack in minority
    mode, cp = m / total inside ``cp_range`` and cd = |m - pack| / total
    inside ``cd_range``.  Each test is monotone in m, so bisection finds the
    two ends.
    """
    rest = n_label - 1
    aligned = range((total_size - 1) % rest + 1, total_size - rest + 1, rest)

    def holds(m):
        """(the tests that only turn true as m grows, those that only turn false)"""
        pack = (total_size - m) // rest
        gap = m - pack if mode == "majority" else pack - m
        cp, cd = m / total_size, gap / total_size
        big_gap, small_gap = gap > 0 and cd_range[0] <= cd, cd <= cd_range[1]
        # majority mode's gap grows with m, minority mode's shrinks
        rising, falling = (big_gap, small_gap) if mode == "majority" else (small_gap, big_gap)
        return cp_range[0] <= cp and rising, cp <= cp_range[1] and falling

    lo = bisect.bisect_left(aligned, True, key=lambda m: holds(m)[0])
    hi = bisect.bisect_left(aligned, True, key=lambda m: not holds(m)[1])
    return aligned[lo:hi]


def sample_cp_cd(rng: np.random.Generator, cp_range, cd_range, mode: str) -> tuple:
    """cp ~ U(cp_range), then cd ~ U(cd_range) clamped below cp in majority
    mode, so the runner-up count stays non-negative."""
    cp = float(rng.uniform(*cp_range))
    hi = min(cd_range[1], cp) if mode == "majority" else cd_range[1]
    lo = min(cd_range[0], hi)
    return cp, float(rng.uniform(lo, hi))


def make_federation_spec(n_user: int, n_label: int, total_size: int,
                         cp_range, cd_range, seed: int, mode: str,
                         equalize_rest: bool) -> np.ndarray:
    """Sample each user's target; returns the (n_user, n_label) int64 class
    counts, user 0's row first, that :func:`build_federation` realizes.

    Every row holds ``total_size`` samples.  Preferred classes are drawn
    uniformly at random, so several users may share one, the usual
    statistical heterogeneity.  (cp, cd) come from :func:`sample_cp_cd` and
    :func:`target_counts` rounds them to counts.  equalize_rest instead draws
    the preferred count m from the :func:`equalized_grid` of ``mode`` and
    gives every other class (total_size - m) // (n_label - 1), so that the
    non-preferred classes tie exactly.  A row whose :func:`preference_class`
    under ``mode`` is not the user's preferred class raises InputError;
    nothing is redrawn.
    """
    rng = np.random.default_rng(derive_seed(seed, "federation-spec"))
    prefs = rng.integers(0, n_label, n_user).tolist()
    if equalize_rest:
        grid = equalized_grid(n_label, total_size, cp_range, cd_range, mode)
        if not grid:
            raise InputError(f"no equalized (cp, cd) grid point inside cp {cp_range}, "
                            f"cd {cd_range}")
    rows = []
    for pref in prefs:
        if equalize_rest:
            m = grid[int(rng.integers(0, len(grid)))]
            counts = np.full(n_label, (total_size - m) // (n_label - 1), dtype=np.int64)
            counts[pref] = m
        else:
            cp, cd = sample_cp_cd(rng, cp_range, cd_range, mode)
            counts = target_counts(n_label, total_size, cp, cd, pref, mode)
        got = preference_class(counts, mode)
        if got != pref:
            raise InputError(f"user {len(rows)}'s counts {counts.tolist()} prefer class {got}, "
                            f"not its class {pref}")
        rows.append(counts)
    return np.stack(rows)
