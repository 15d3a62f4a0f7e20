"""Dataset synthesis, IDX container I/O, heterogeneous partitioning and the
four distribution metrics (class proportion, class dominance, user dispersion,
imbalance degree).

All sampling is without replacement and deterministic given a seed.  Client
datasets and the server's auxiliary store are kept disjoint by index
bookkeeping against a shared source pool.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, FormatError, SpecError
from .seeding import derive_seed

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


# ---------------------------------------------------------------------------
# Core containers
# ---------------------------------------------------------------------------


@dataclass
class LabeledDataset:
    """Feature matrix (n, d) with integer labels in [0, n_label).

    ``source_indices`` records where each sample sits in the pool it was
    drawn from, which is what makes disjointness checks possible.
    """

    X: np.ndarray
    y: np.ndarray
    n_label: int
    feature_shape: tuple = ()
    source_indices: Optional[np.ndarray] = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
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


@dataclass(frozen=True)
class DistributionSpec:
    """Target shape of one client's dataset.

    In majority mode the preferred class holds round(cp * total_size) samples
    and a designated runner-up class holds cp*total - cd*total; in minority
    mode the preferred class is the smallest and the runner-up is cd*total
    above it.  The rest is spread as evenly as possible over the remaining
    classes, remainder to the lowest class indices.
    """

    n_label: int
    total_size: int
    cp: float
    cd: float
    preferred_class: int
    mode: str = "majority"

    def __post_init__(self):
        if self.n_label < 2:
            raise SpecError("n_label must be >= 2")
        if self.total_size < 1:
            raise SpecError("total_size must be >= 1")
        if not 0.0 < self.cp <= 1.0:
            raise SpecError(f"cp must be in (0, 1], got {self.cp}")
        if not 0.0 <= self.cd <= 1.0:
            raise SpecError(f"cd must be in [0, 1], got {self.cd}")
        if self.mode == "majority" and self.cd > self.cp:
            raise SpecError(f"cd {self.cd} > cp {self.cp} implies a negative class count")
        if not 0 <= self.preferred_class < self.n_label:
            raise SpecError("preferred_class out of range")
        if self.mode not in ("majority", "minority"):
            raise SpecError(f"mode must be 'majority' or 'minority', got {self.mode!r}")


@dataclass(frozen=True)
class FederationSpec:
    n_user: int
    specs: tuple
    ud_target: Optional[float] = None
    id_target: Optional[float] = None

    def __post_init__(self):
        if len(self.specs) != self.n_user:
            raise SpecError(f"expected {self.n_user} user specs, got {len(self.specs)}")


@dataclass
class AuxiliaryStore:
    """Per-class sample lists held by the server, disjoint from every client."""

    per_class: list
    samples_per_class: int
    n_label: int
    feature_shape: tuple = ()
    source_indices: Optional[list] = None

    def __post_init__(self):
        if len(self.per_class) != self.n_label:
            raise InputError("per_class list length must equal n_label")

    def class_batch(self, c: int) -> np.ndarray:
        return self.per_class[c]

    def to_dataset(self) -> LabeledDataset:
        X = np.concatenate(self.per_class, axis=0)
        y = np.concatenate([np.full(len(b), c, dtype=np.int64)
                            for c, b in enumerate(self.per_class)])
        src = (np.concatenate(self.source_indices)
               if self.source_indices is not None else None)
        return LabeledDataset(X, y, self.n_label, self.feature_shape, src)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def make_synthetic(n_label: int, dim: int, per_class_pool: int, seed: int,
                   sigma: float = 1.0) -> LabeledDataset:
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
    dirs = rng.standard_normal((n_label, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    gaps = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=-1)
    min_gap = gaps[np.triu_indices(n_label, 1)].min()
    while min_gap < 1e-3:  # essentially impossible, but keeps the scale finite
        dirs = rng.standard_normal((n_label, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gaps = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=-1)
        min_gap = gaps[np.triu_indices(n_label, 1)].min()
    means = dirs * (max(4.0 * sigma, 1.0) / min_gap)
    X = np.concatenate([
        means[c] + sigma * rng.standard_normal((per_class_pool, dim))
        for c in range(n_label)
    ])
    y = np.repeat(np.arange(n_label), per_class_pool)
    return LabeledDataset(X, y, n_label)


# ---------------------------------------------------------------------------
# IDX container I/O
# ---------------------------------------------------------------------------


def _read_exact(f, size, what):
    blob = f.read(size)
    if len(blob) != size:
        raise FormatError(f"truncated file while reading {what}")
    return blob


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an image/label IDX pair; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "images magic"))
        if magic != IMAGES_MAGIC:
            raise FormatError(f"bad magic 0x{magic:08x} in images file, expected 0x{IMAGES_MAGIC:08x}")
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, "images dimensions"))
        pixels = np.frombuffer(_read_exact(f, n * rows * cols, "images pixel data"), dtype=np.uint8)
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "labels magic"))
        if magic != LABELS_MAGIC:
            raise FormatError(f"bad magic 0x{magic:08x} in labels file, expected 0x{LABELS_MAGIC:08x}")
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, "labels count"))
        labels = np.frombuffer(_read_exact(f, n_labels, "labels data"), dtype=np.uint8)
    if n != n_labels:
        raise FormatError(f"count mismatch: {n} images but {n_labels} labels")
    X = pixels.astype(np.float64).reshape(n, rows * cols) / 255.0
    y = labels.astype(np.int64)
    n_label = int(y.max()) + 1 if n else 1
    return LabeledDataset(X, y, n_label, feature_shape=(rows, cols))


def write_idx(ds: LabeledDataset, images_path, labels_path) -> None:
    """Write a dataset as an IDX image/label pair.

    Features are clipped to [0, 1] and quantised to the u8 grid, so a write
    followed by a load is exact for any dataset whose values already lie on
    that grid (in particular anything previously loaded from IDX).
    """
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


def normalized_unit(ds: LabeledDataset) -> LabeledDataset:
    """Min-max rescale features into [0, 1] (for IDX export of synthetic data)."""
    lo, hi = ds.X.min(), ds.X.max()
    span = hi - lo if hi > lo else 1.0
    return LabeledDataset((ds.X - lo) / span, ds.y, ds.n_label,
                          ds.feature_shape, ds.source_indices)


# ---------------------------------------------------------------------------
# Heterogeneous partitioning
# ---------------------------------------------------------------------------


def spec_counts(spec: DistributionSpec) -> np.ndarray:
    """Deterministic per-class counts realizing a DistributionSpec.

    Counts always sum to total_size.  The measured CD only round-trips the
    spec when the even spread over the remaining classes stays below the
    runner-up count; specs outside that regime are still realized (majority
    count first, runner-up capped by what is left).
    """
    n, total = spec.n_label, spec.total_size
    counts = np.zeros(n, dtype=np.int64)
    pref = spec.preferred_class
    runner = min(c for c in range(n) if c != pref)
    others = [c for c in range(n) if c not in (pref, runner)]

    if spec.mode == "majority":
        main = int(round(spec.cp * total))
        main = max(1, min(main, total))
        second = main - int(round(spec.cd * total))
        if second < 0:
            raise SpecError(f"cp={spec.cp}, cd={spec.cd} give a negative runner-up count")
        second = min(second, total - main)
    else:
        main = int(round(spec.cp * total))
        main = max(0, min(main, total))
        second = min(main + int(round(spec.cd * total)), total - main)
    counts[pref] = main
    if not others:
        counts[runner] = total - main
        return counts
    counts[runner] = second
    rest = total - main - second
    base, extra = divmod(rest, len(others))
    for rank, c in enumerate(sorted(others)):
        counts[c] = base + (1 if rank < extra else 0)
    return counts


def realize_distribution(pool: LabeledDataset, spec: DistributionSpec,
                         seed: int) -> LabeledDataset:
    """Draw a dataset matching ``spec`` from ``pool`` without replacement."""
    if pool.n_label != spec.n_label:
        raise InputError("pool and spec disagree on n_label")
    counts = spec_counts(spec)
    rng = np.random.default_rng(derive_seed(seed, "realize"))
    picked = []
    for c in range(spec.n_label):
        if counts[c] == 0:
            continue
        avail = np.flatnonzero(pool.y == c)
        if len(avail) < counts[c]:
            raise InputError(
                f"pool has {len(avail)} samples of class {c}, spec needs {counts[c]}"
            )
        picked.append(rng.choice(avail, size=counts[c], replace=False))
    return pool.subset(np.concatenate(picked))


def build_federation(pool: LabeledDataset, fed: FederationSpec, seed: int):
    """Realize every user spec from the pool with mutually disjoint samples.

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
    for u, spec in enumerate(fed.specs):
        counts = spec_counts(spec)
        picked = []
        for c in range(pool.n_label):
            need = int(counts[c])
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


def sample_per_class(pool: LabeledDataset, per_class: int, excluded_indices):
    """Lowest-index per-class draw from the pool, avoiding excluded indices."""
    excluded = np.zeros(len(pool), dtype=bool)
    if excluded_indices is not None and len(excluded_indices):
        excluded[np.asarray(excluded_indices, dtype=np.int64)] = True
    batches, indices = [], []
    for c in range(pool.n_label):
        avail = np.flatnonzero((pool.y == c) & ~excluded)
        if len(avail) < per_class:
            raise InputError(
                f"only {len(avail)} unexcluded samples of class {c}, need {per_class}"
            )
        take = avail[:per_class]
        batches.append(pool.X[take])
        indices.append(take)
    return batches, indices


def build_auxiliary(pool: LabeledDataset, samples_per_class: int,
                    excluded_indices) -> AuxiliaryStore:
    """Auxiliary store with exactly samples_per_class per class, disjoint from
    every excluded pool index (i.e. from every client dataset)."""
    if samples_per_class < 0:
        raise InputError("samples_per_class must be >= 0")
    batches, indices = sample_per_class(pool, samples_per_class, excluded_indices)
    return AuxiliaryStore(batches, samples_per_class, pool.n_label,
                          feature_shape=pool.feature_shape, source_indices=indices)


# ---------------------------------------------------------------------------
# Distribution metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FederationMetrics:
    cp: np.ndarray
    cd: np.ndarray
    ud: float
    id: float


def majority_class(counts: np.ndarray) -> int:
    return int(np.argmax(counts))  # tie -> lowest index


def minority_class(counts: np.ndarray) -> int:
    return int(np.argmin(counts))


def preference_class(counts: np.ndarray, mode: str) -> int:
    return majority_class(counts) if mode == "majority" else minority_class(counts)


def metrics(federation: list) -> FederationMetrics:
    """CP/CD per user plus the federation-level UD and ID.

    UD counts, for each of the n_label classes, how many users prefer it
    (zero for classes nobody prefers) and reports (max - min) / n_user, so a
    federation where everyone shares one preference scores 1.  ID is the
    sample variance (ddof=1) of the per-user dataset sizes, 0 for a single
    user.
    """
    if not federation:
        raise InputError("federation is empty")
    n_label = federation[0].n_label
    cp, cd, majors, sizes = [], [], [], []
    for ds in federation:
        counts = ds.class_counts
        size = counts.sum()
        order = np.sort(counts)
        cp.append(order[-1] / size)
        if np.count_nonzero(counts) <= 1:
            cd.append(0.0)
        else:
            cd.append((order[-1] - order[-2]) / size)
        majors.append(majority_class(counts))
        sizes.append(int(size))
    mult = np.bincount(np.asarray(majors), minlength=n_label)
    ud = float((mult.max() - mult.min()) / len(federation))
    id_ = float(np.var(sizes, ddof=1)) if len(sizes) > 1 else 0.0
    return FederationMetrics(np.asarray(cp), np.asarray(cd), ud, id_)


# ---------------------------------------------------------------------------
# Federation spec construction helpers
# ---------------------------------------------------------------------------


def equalized_grid(n_label: int, total_size: int, cp_range, cd_range) -> list:
    """(cp, cd) pairs under which every non-preferred class realizes exactly
    the same count.

    With the usual rounding, nearby classes end up one sample apart, which
    leaves the rank-2/3 ground truth of a dataset decided by a single sample.
    On this grid the preferred count m satisfies (total - m) % (n_label - 1)
    == 0 and the runner-up count equals the even spread, so the top-k truth
    is a clean (preferred + any others) family.
    """
    rest_classes = n_label - 1
    grid = []
    for m in range(1, total_size):
        if (total_size - m) % rest_classes:
            continue
        pack = (total_size - m) // rest_classes
        if m <= pack:
            continue
        cp = m / total_size
        cd = (m - pack) / total_size
        if cp_range[0] <= cp <= cp_range[1] and cd_range[0] <= cd <= cd_range[1]:
            grid.append((cp, cd))
    return grid


def sample_cp_cd(rng: np.random.Generator, cp_range, cd_range, mode: str) -> tuple:
    """cp ~ U(cp_range), then cd ~ U(cd_range) clamped below cp in majority
    mode, so the runner-up count stays non-negative."""
    cp = float(rng.uniform(*cp_range))
    hi = min(cd_range[1], cp) if mode == "majority" else cd_range[1]
    lo = min(cd_range[0], hi)
    return cp, float(rng.uniform(lo, hi))


def user_sizes(n_user: int, n_label: int, total_size: int,
               id_target: Optional[float] = None) -> np.ndarray:
    """Per-user dataset sizes: total_size each, or with id_target set,
    total_size +/- delta with delta solved so the sample variance hits the
    target (sizes clamp below at n_label)."""
    if id_target is None or n_user < 2:
        return np.full(n_user, total_size, dtype=np.int64)
    pattern = np.array([1 if u % 2 == 0 else -1 for u in range(n_user)], dtype=np.float64)
    if n_user % 2 == 1:
        pattern[-1] = 0.0
    pattern -= pattern.mean()
    denom = float((pattern ** 2).sum())
    delta = np.sqrt(id_target * (n_user - 1) / denom) if denom > 0 else 0.0
    return np.maximum(n_label, np.rint(total_size + delta * pattern)).astype(np.int64)


def make_federation_spec(n_user: int, n_label: int, total_size: int,
                         cp_range, cd_range, seed: int, mode: str = "majority",
                         ud_target: Optional[float] = None,
                         id_target: Optional[float] = None,
                         equalize_rest: bool = False) -> FederationSpec:
    """Sample one DistributionSpec per user.

    Preferred classes are drawn uniformly at random (so several users may
    share one, the usual statistical heterogeneity) unless ud_target is set,
    in which case round(ud_target * n_user) users share class 0 and the rest
    spread over the other classes.  (cp, cd) come from :func:`sample_cp_cd`.
    Sizes come from :func:`user_sizes`.  equalize_rest restricts (cp, cd) to
    the :func:`equalized_grid` so that the non-preferred classes tie exactly.
    """
    rng = np.random.default_rng(derive_seed(seed, "federation-spec"))
    if ud_target is None:
        prefs = [int(v) for v in rng.integers(0, n_label, n_user)]
    else:
        span = int(round(ud_target * n_user))
        span = max(1, min(span, n_user))
        prefs = [0] * span
        c = 1
        while len(prefs) < n_user:
            prefs.append(c % n_label if c % n_label != 0 else 1)
            c += 1
    sizes = user_sizes(n_user, n_label, total_size, id_target)
    specs = []
    for u in range(n_user):
        if equalize_rest:
            grid = equalized_grid(n_label, int(sizes[u]), cp_range, cd_range)
            if not grid:
                raise SpecError(
                    f"no equalized (cp, cd) grid point inside cp {cp_range}, cd {cd_range}"
                )
            cp, cd = grid[int(rng.integers(0, len(grid)))]
        else:
            cp, cd = sample_cp_cd(rng, cp_range, cd_range, mode)
        specs.append(DistributionSpec(n_label, int(sizes[u]), cp, cd, prefs[u], mode))
    return FederationSpec(n_user, tuple(specs), ud_target, id_target)
