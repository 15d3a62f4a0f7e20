"""Minimal differentiable feed-forward network engine.

A model is a 1-D array of :data:`DTYPE` of length ``arch.n_params``, laid
out by its :class:`Architecture`'s ``param_slots``, and S models are an
(S, n_params) array.  All operations are pure functions: they never mutate
their inputs and are bit-reproducible given the same seed.
The forward and backward walks carry a leading model axis, so :func:`train`
steps S equal-size models of one architecture in lockstep, each bit for bit
as if it trained alone; one model is the S = 1 case.
Supported layers: dense, 2-D convolution (valid, stride 1), non-overlapping max
pooling, ReLU and dropout.  The loss is softmax cross-entropy throughout.

Everything is computed in :data:`DTYPE`, float32 for runs.  Each entry point
casts the models and batches it receives to it, so a float64 caller computes
exactly as its cast and no walk mixes precisions; setting ``nn.DTYPE`` to
float64 gives the reference engine the tests check algorithms against.  The
Glorot and DP-noise draws stay in float64 and are cast, so their random
streams do not depend on the dtype.  Checkpoints store float32, so a reload
in a float32 engine is bit-exact.

Importing this module sets glibc's mmap threshold to 4 MB and its trim
threshold to 256 MB, for the whole process, so that a walk reuses the heap
pages of the last one instead of faulting them in again.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FormatError, InputError, InternalError
from .seeding import derive_seed

# The engine's floating-point type, read at call time: float32 for runs, and
# float64 as the reference mode of the tests.  It is not a config key, so a
# run stays a function of (config, seed).
DTYPE = np.float32

# 4 MB is above every engine temporary of the reference configs and below the
# 5.2 MB data pool of the 100-user config, which a higher threshold would keep
# on the heap at a higher peak RSS.  Setting either option turns off glibc's
# dynamic mmap threshold, so the trim threshold is not set alone.
_libc = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_libc, "mallopt"):
    _libc.mallopt.argtypes, _libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    _libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD

# ---------------------------------------------------------------------------
# Layer specs and architecture descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv2d:
    in_ch: int
    out_ch: int
    kernel: int


@dataclass(frozen=True)
class MaxPool2d:
    kernel: int


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Dropout:
    rate: float


_KIND = {Dense: "dense", Conv2d: "conv2d", MaxPool2d: "maxpool", Relu: "relu", Dropout: "dropout"}
# Widths, channel counts and kernels; each must be at least 1.
_SIZES = {Dense: ("in_dim", "out_dim"), Conv2d: ("in_ch", "out_ch", "kernel"),
          MaxPool2d: ("kernel",)}


# Transposes of an (S, n, c, h, w) activation into its memory order: (c, h,
# w), or channel-last.
_MEMORY_AXES = ((0, 1, 2, 3, 4), (0, 1, 3, 4, 2))


def _memory_offsets(shape, channel_last):
    """Where each element of a (c, h, w) sample sits in its memory order, in
    (c, h, w) order."""
    c, h, w = shape
    if channel_last:
        return np.arange(h * w * c, dtype=np.intp).reshape(h, w, c).transpose(2, 0, 1).ravel()
    return np.arange(c * h * w, dtype=np.intp)


def _window_taps(shape, k, step):
    """(k*k, c*ho*wo) flat (c, h, w) indices of the k x k windows of a (c, h,
    w) sample taken every ``step`` pixels: row ki*k + kj holds tap (ki, kj)
    of every window, in (c, ho, wo) order."""
    c, h, w = shape
    ki, kj, ch, oh, ow = np.ogrid[:k, :k, :c, :(h - k) // step + 1, :(w - k) // step + 1]
    return ((ch * h + oh * step + ki) * w + ow * step + kj).reshape(k * k, -1)


@dataclass
class Architecture:
    """Ordered layer stack plus input/output contract.

    Construction walks the stack once.  The walk checks every layer's sizes
    and its input shape, and fixes the parameter layout in plain attributes
    (not fields, so equality and :meth:`to_json` ignore them):
    ``param_slots`` maps each parameterised layer's index to (offset, W
    shape, W size, b size), W before b, and is the only record of where a
    layer sits in a model; ``n_params`` is the total and
    ``input_size`` the flat size of one input sample.

    ``tables`` maps each convolution and max-pool layer's index to the index
    tables its walk gathers through, as (axes, forward table, backward
    table).  ``axes`` transposes the layer's (S, n, c, h, w) input into the
    order it has in memory: channel-last after a convolution, whose GEMM
    leaves its output so and whose ReLU keeps it, and (c, h, w) otherwise;
    an activation held in another order is copied into it.  Tables index one
    sample's input in that order, or its gradient, which is always (c, h,
    w), and list taps in (ki, kj) order.  A convolution's forward table is
    its im2col, one row of (c, ki, kj) taps per output pixel in (ho, wo)
    order, flat; its backward table is its col2im, a (k*k, c*h*w) array
    whose row for a tap holds, for each input pixel, the column-gradient
    entry that tap adds to it, or the index of a zero past the columns where
    the tap misses the pixel.  A max-pool's tables are (k*k, c*ho*wo), the
    taps of every window, into its input and into its input gradient; the
    pixels a window misses on an odd side are in neither.

    ``feature_index`` is the index of the feature layer, the layer whose
    gradient sensitivity extraction reads.  It follows a rule:
    the last convolution layer; for conv-free stacks the last dense layer
    before the output layer; the only dense layer if there is just one.
    """

    layers: tuple
    input_shape: tuple
    n_classes: int

    def __post_init__(self):
        self.layers = tuple(self.layers)
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if self.n_classes < 2:
            raise InputError(f"n_classes must be >= 2, got {self.n_classes}")
        shape, offset, self.param_slots, self.tables = self.input_shape, 0, {}, {}
        dense, conv = [], None
        channel_last = False  # the memory order of the current activation
        for i, layer in enumerate(self.layers):
            for name in _SIZES.get(type(layer), ()):
                if getattr(layer, name) < 1:
                    raise InputError(f"layer {i}: {_KIND[type(layer)]} {name} must be >= 1, "
                                     f"got {getattr(layer, name)}")
            if isinstance(layer, Dense):
                if math.prod(shape) != layer.in_dim:
                    raise InputError(
                        f"layer {i}: dense expects {layer.in_dim} inputs, got shape {shape}"
                    )
                shape = (layer.out_dim,)
                w_shape, b_size = (layer.in_dim, layer.out_dim), layer.out_dim
                dense.append(i)
            elif isinstance(layer, Conv2d):
                if len(shape) != 3 or shape[0] != layer.in_ch:
                    raise InputError(
                        f"layer {i}: conv2d expects ({layer.in_ch}, H, W), got shape {shape}"
                    )
                h, w = shape[1] - layer.kernel + 1, shape[2] - layer.kernel + 1
                if h < 1 or w < 1:
                    raise InputError(f"layer {i}: conv2d kernel larger than input {shape}")
                k, c, pixels = layer.kernel, layer.in_ch, h * w
                taps = _window_taps(shape, k, 1)
                im2col = _memory_offsets(shape, channel_last)[taps].reshape(k * k, c, pixels).T
                # One sample's column gradient is (ho, wo, c, ki, kj), and
                # entry ``width`` is the zero after it.
                width = pixels * c * k * k
                col2im = np.full((k * k, math.prod(shape)), width, dtype=np.intp)
                col2im[np.arange(k * k)[:, None], taps] = np.arange(width).reshape(
                    pixels, c, k * k).T.reshape(k * k, -1)
                self.tables[i] = (_MEMORY_AXES[channel_last], im2col.ravel(), col2im)
                shape, channel_last = (layer.out_ch, h, w), True
                w_shape = (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel)
                b_size = layer.out_ch
                conv = i
            elif isinstance(layer, MaxPool2d):
                if len(shape) != 3:
                    raise InputError(f"layer {i}: maxpool expects (C, H, W), got shape {shape}")
                h, w = shape[1] // layer.kernel, shape[2] // layer.kernel
                if h < 1 or w < 1:
                    raise InputError(f"layer {i}: maxpool kernel larger than input {shape}")
                taps = _window_taps(shape, layer.kernel, layer.kernel)
                self.tables[i] = (_MEMORY_AXES[channel_last],
                                  _memory_offsets(shape, channel_last)[taps], taps)
                shape, channel_last = (shape[0], h, w), False
                continue
            elif isinstance(layer, Dropout):
                if not 0.0 <= layer.rate < 1.0:
                    raise InputError(f"layer {i}: dropout rate must be in [0, 1)")
                continue
            elif isinstance(layer, Relu):
                continue
            else:
                raise InputError(f"layer {i}: unknown layer spec {layer!r}")
            w_size = math.prod(w_shape)
            self.param_slots[i] = (offset, w_shape, w_size, b_size)
            offset += w_size + b_size
        if shape != (self.n_classes,):
            raise InputError(
                f"final layer produces shape {shape}, expected ({self.n_classes},)"
            )
        if conv is None and not dense:
            raise InputError("architecture has no parameterised layer to read as feature layer")
        self.feature_index = conv if conv is not None else dense[-2 if len(dense) > 1 else -1]
        self.n_params = offset
        self.input_size = math.prod(self.input_shape)

    def to_json(self) -> str:
        out = {"input_shape": list(self.input_shape), "n_classes": self.n_classes, "layers": []}
        for layer in self.layers:
            entry = {"kind": _KIND[type(layer)]}
            entry.update(dataclasses.asdict(layer))
            out["layers"].append(entry)
        return json.dumps(out, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Architecture":
        raw = json.loads(text)
        ctor = {kind: cls for cls, kind in _KIND.items()}
        layers = []
        for entry in raw["layers"]:
            kind = entry.pop("kind")
            layers.append(ctor[kind](**entry))
        return Architecture(tuple(layers), tuple(raw["input_shape"]), raw["n_classes"])


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParamVector:
    """One model wrapped for :func:`attack.extract_sensitivity`, the only
    function that takes one: the benchmark's tracer reads that argument as
    ``pv.values``.  Everywhere else a model is a plain 1-D array.
    This class and the four wraps at the calls of ``extract_sensitivity`` go
    once the tracer reads a plain array (ROADMAP direction 1)."""

    def __init__(self, values):
        values = np.asarray(values, dtype=DTYPE)
        if values.ndim != 1:
            raise InputError("ParamVector values must be 1-D")
        self.values = values


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """Glorot-uniform weights, zero biases, deterministic by seed; drawn in
    float64 and cast to :data:`DTYPE`."""
    rng = np.random.default_rng(derive_seed(seed, "init"))
    params = np.zeros(arch.n_params)
    for off, w_shape, w_size, b_size in arch.param_slots.values():
        # W is (in, out) for dense and (out, in, k, k) for conv: b_size output
        # units, each fed by w_size // b_size inputs, over a k*k receptive field.
        fan_in, fan_out = w_size // b_size, b_size * math.prod(w_shape[2:])
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params[off:off + w_size] = rng.uniform(-bound, bound, w_size)
    return params.astype(DTYPE, copy=False)


def _layer_params(params: np.ndarray, arch: Architecture, index: int):
    """(W, b) views into the parameters of the parameterised layer at index.
    ``params`` is one model or an array whose last axis is one, such as an
    (S, n_params) stack, whose leading axes the views keep."""
    if index not in arch.param_slots:
        raise InternalError(f"layer {index} has no parameters")
    off, w_shape, w_size, b_size = arch.param_slots[index]
    lead = params.shape[:-1]
    return (params[..., off:off + w_size].reshape(*lead, *w_shape),
            params[..., off + w_size:off + w_size + b_size])


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _as_batch(arch: Architecture, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=DTYPE)
    if X.shape[0] == 0:
        raise InputError("batch is empty")
    if X.size != X.shape[0] * arch.input_size:
        raise InputError(
            f"sample shape {X.shape[1:]} incompatible with input shape {arch.input_shape}"
        )
    return X.reshape(X.shape[0], *arch.input_shape)


def _matmul_blocks(a, b, size, out=None):
    """``a @ b`` over a leading model axis, one GEMM per model and block of
    ``size`` rows of a's row axis (axis 1); b broadcasts against a's leading
    axes.  It is one batched matmul over an (S, n // size, size, ...) view of
    a, with b broadcast over the block axis, and numpy issues one GEMM per
    (model, block) of it.  How BLAS chunks a product's rows can change its
    last bits, so each model's block is bit-identical to the product of that
    block alone.  The product goes to ``out`` when given, a view whose
    matrices are C-contiguous, as the col2im's padded columns are."""
    S, n = a.shape[:2]
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=DTYPE)
    np.matmul(a.reshape(S, n // size, size, *a.shape[2:]), b[:, None],
              out=out.reshape(S, n // size, size, *out.shape[2:]))
    return out


def _im2col(act, layer, tables):
    """The (S, n, ho*wo, c*k*k) im2col columns of an (S, n, c, h, w)
    activation: one row of (c, ki, kj) input taps per output pixel, in (ho,
    wo) order, gathered in one ``np.take`` from the activation in its memory
    order (see :class:`Architecture`)."""
    S, n, _, h, w = act.shape
    axes, im2col, _ = tables
    cols = np.take(act.transpose(axes).reshape(S, n, -1), im2col, axis=-1)
    return cols.reshape(S, n, (h - layer.kernel + 1) * (w - layer.kernel + 1), -1)


def _max_pool(act, layer, tables):
    """(pooled, argmax) of non-overlapping k x k max pooling of an (S, n, c,
    h, w) activation, both (S, n, c, h // k, w // k) and C-contiguous; argmax
    is the winning tap, ki*k + kj, of each window.  One tap-major gather,
    (S, n, k*k, c*ho*wo), then a running max over the taps in (ki, kj)
    order: a tap must beat the max so far, so the first max wins, a
    deterministic tie-break.  A NaN in a window makes its max NaN."""
    S, n, c, h, w = act.shape
    axes, taps, _ = tables
    tiles = np.take(act.transpose(axes).reshape(S, n, -1), taps, axis=-1)
    pooled = tiles[:, :, 0].copy()
    argmax = np.zeros(pooled.shape, dtype=np.intp)
    for t in range(1, len(taps)):
        np.copyto(argmax, t, where=tiles[:, :, t] > pooled)
        np.maximum(pooled, tiles[:, :, t], out=pooled)
    out_shape = (S, n, c, h // layer.kernel, w // layer.kernel)
    return pooled.reshape(out_shape), argmax.reshape(out_shape)


def _max_pool_grad(delta, in_shape, argmax, tables):
    """The C-contiguous input gradient of :func:`_max_pool`: each window's
    output gradient goes to the pixel of its winning tap, every other pixel,
    the cropped ones of an odd side included, is zero."""
    taps = tables[2]
    rows, width, windows = math.prod(in_shape[:2]), math.prod(in_shape[2:]), taps.shape[1]
    at = np.take(taps, argmax.reshape(rows, windows) * windows + np.arange(windows))
    at += np.arange(0, rows * width, width)[:, None]
    dx = np.zeros(rows * width, dtype=DTYPE)
    dx[at] = delta.reshape(rows, windows)
    return dx.reshape(in_shape)


def _col2im(d, W, size, in_shape, tables):
    """The C-contiguous (S, n, c, h, w) input gradient of a convolution from
    its (S, n, o, ho*wo) output gradient ``d`` and its (S, o, c, k, k)
    weights, blocked by ``size`` rows as in :func:`_run_layers`.  One GEMM
    per sample forms the column gradient, each sample's followed by one zero
    in the same buffer.  Each input pixel then gathers its entry of every
    tap in turn, in (ki, kj) order, into a gradient that starts at zero, so
    it sums in the order of a scatter-add tap by tap; a tap that misses the
    pixel adds the zero, which changes no sum."""
    S, n, o, pixels = d.shape
    width = pixels * W[0, 0].size
    dcols = np.empty((S, n, width + 1), dtype=DTYPE)
    dcols[..., width] = 0.0
    _matmul_blocks(d.transpose(0, 1, 3, 2), W.reshape(S, 1, o, -1), size,
                   out=dcols[..., :width].reshape(S, n, pixels, -1))
    dx = np.zeros((S, n, math.prod(in_shape[2:])), dtype=DTYPE)
    for tap in tables[2]:
        dx += np.take(dcols, tap, axis=-1)
    return dx.reshape(in_shape)


def _run_layers(params, arch, X, rngs, size=None):
    """Forward pass of an (S, n_params) stack of S models, model s on batch
    ``X[s]`` of the (S, n, *input_shape) X, returning ((S, n, n_classes)
    logits, caches) for the backward walk.  The walk is in train mode
    exactly when it gets ``rngs``, one generator per model: a Dropout layer
    then draws one mask per model from that model's generator, in model
    order, and is the identity otherwise.  ``size``, a row count that
    divides n, splits every model's batch into blocks of that many rows
    (one block of n by default): every GEMM runs once per (model, block),
    all issued as one batched call (see :func:`_matmul_blocks`), and every
    elementwise step once over all rows of all models, so a model's block
    equals a forward pass of that model on that block alone.  A convolution
    gathers its im2col columns and a max-pool its windows through the
    layer's index tables in ``arch.tables`` (see :func:`_im2col` and
    :func:`_max_pool`); a convolution caches (input shape, columns, W) and a
    max-pool (input shape, argmax)."""
    S, n = X.shape[:2]
    params = np.asarray(params, dtype=DTYPE)
    if params.shape != (S, arch.n_params):
        raise InternalError(f"parameters of shape {params.shape}, expected ({S}, {arch.n_params})")
    if size is None:
        size = n
    act = X
    caches = []
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Dense):
            flat = act.reshape(S, n, -1)
            W, b = _layer_params(params, arch, i)
            caches.append((act.shape, flat, W))
            act = _matmul_blocks(flat, W, size)
            act += b[:, None]
        elif isinstance(layer, Conv2d):
            ho, wo = act.shape[3] - layer.kernel + 1, act.shape[4] - layer.kernel + 1
            cols = _im2col(act, layer, arch.tables[i])
            W, b = _layer_params(params, arch, i)
            caches.append((act.shape, cols, W))
            out = _matmul_blocks(cols.reshape(S, n * ho * wo, -1),
                                 W.reshape(S, layer.out_ch, -1).transpose(0, 2, 1),
                                 size * ho * wo)
            out += b[:, None]
            act = out.reshape(S, n, ho, wo, -1).transpose(0, 1, 4, 2, 3)
        elif isinstance(layer, MaxPool2d):
            pooled, idx = _max_pool(act, layer, arch.tables[i])
            caches.append((act.shape, idx))
            act = pooled
        elif isinstance(layer, Relu):
            caches.append(act > 0)
            act = np.maximum(act, 0.0)
        elif isinstance(layer, Dropout):
            if rngs is not None and layer.rate > 0.0:
                keep = np.stack([rng.random(act.shape[1:]) for rng in rngs]) >= layer.rate
                scale = 1.0 / (1.0 - layer.rate)
                caches.append((keep, scale))
                act = act * keep * scale
            else:
                caches.append((None, 1.0))
    return act, caches


def _softmax_xent(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row, the gradient of that row's own cross-entropy w.r.t. its
    logits, softmax minus one-hot, as an (n, C) C-contiguous array.  The mean
    loss's gradient is this divided by the batch size.  The softmax is the
    shifted exp(z - max) / sum (Blanchard, Higham & Higham 2021), one exp
    and no log, computed on a class-major copy so that the max and the sum
    run over the short class axis as whole rows, not one row at a time.
    Those rows are added in class order; numpy would sum a one-row batch's
    single column pairwise, so that column is accumulated instead, and a row
    reads the same in a batch of one as in a larger batch."""
    e = np.ascontiguousarray(logits.T)
    e = np.exp(e - e.max(axis=0))
    e /= e.sum(axis=0) if e.shape[1] > 1 else np.add.accumulate(e, axis=0)[-1]
    grad = np.ascontiguousarray(e.T)
    grad[np.arange(logits.shape[0]), y] -= 1.0
    return grad


def _block_grads(arch: Architecture, pieces, size) -> np.ndarray:
    """(S, B, P) gradients, row [s, j] that of model s on row block j, the
    j-th ``size`` rows, from the (layer index, layer input, output gradient)
    pieces of a backward walk whose output gradients were divided by
    ``size``.  A row holds the [W, b] gradient of each layer that has a
    piece, in layer order, so P is the sum of their W and b sizes; with a
    piece for every parameterised layer, it is a row laid out by
    ``arch.param_slots``.  Each block's weight gradient is one GEMM per
    model, all issued as one batched call per layer."""
    S, n = pieces[0][2].shape[:2]
    B = n // size
    parts = []
    for i, a, d in reversed(pieces):
        block = d.reshape(S, B, size, *d.shape[2:])
        inp = a.reshape(S, B, size, *a.shape[2:])
        if isinstance(arch.layers[i], Dense):
            gW, gb = inp.transpose(0, 1, 3, 2) @ block, block.sum(axis=2)
        else:
            gW = (block.transpose(0, 1, 3, 2, 4).reshape(S, B, d.shape[2], -1)
                  @ inp.reshape(S, B, -1, a.shape[-1]))
            gb = block.sum(axis=(2, 4))
        parts += (gW.reshape(S, B, -1), gb)
    return np.concatenate(parts, axis=-1)


def _example_sq_norms(arch: Architecture, pieces) -> np.ndarray:
    """(S, batch) squared L2 norms of the per-example gradients of the
    pieces of a backward walk (see :func:`_block_grads`) whose output
    gradients are per row, without forming the (batch, n_params) rows.  A
    dense layer's row is outer(a_i, delta_i), whose squared norm is
    |a_i|^2 |delta_i|^2 (Goodfellow 2015, arXiv:1510.01799); a convolution's
    is delta_i @ cols_i over sample i's im2col columns, formed one layer at a
    time.  Each adds its bias row's |sum of delta_i|^2."""
    sq = 0.0
    for i, a, d in pieces:
        if isinstance(arch.layers[i], Dense):
            d2 = (d * d).sum(axis=-1)
            sq = sq + (a * a).sum(axis=-1) * d2 + d2
        else:
            gW, gb = d @ a, d.sum(axis=-1)
            sq = sq + (gW * gW).sum(axis=(-2, -1)) + (gb * gb).sum(axis=-1)
    return sq


def _loss_and_grad(params, arch, X, y, rng=None, clip=None, stop=None, block=None):
    """Gradient of the mean batch loss of each of S models, from one forward
    and one backward walk over all of them, in train mode when ``rng`` is
    given (see :func:`_run_layers`).

    ``params`` is an (S, n_params) stack, X and y hold the S models' equal
    batches concatenated in model order, and ``rng`` is one generator per
    model.  The gradient is an (S, P) array, P = n_params by default (see
    ``stop``).  With ``block``, a row count that divides each
    model's batch of n rows into B = n // block contiguous blocks, it is an
    (S, B, P) array whose row [s, j] is the gradient of block j's
    mean loss under model s, bit for bit what a batch of block j alone
    gives: every GEMM runs once per (model, block), all issued as one
    batched call per product (see :func:`_matmul_blocks`), and every
    elementwise step once over all rows, the division of the output
    gradients by the block size included.  A plain batch is one block.  A
    ``block`` that is not positive, exceeds n or does not divide it is an
    InternalError.  With ``clip`` set, each row's
    gradient is instead the mean over its block of the per-example
    gradients (what a one-row batch of each sample gives), each first
    scaled to L2 norm at most ``clip``; an example whose gradient is
    exactly zero is left as it is.  The walk then
    runs on the per-row output gradients, not divided by the block size,
    takes each example's norm from them (see :func:`_example_sq_norms`) and
    folds min(1, clip / norm) / block size into each piece's rows before
    the gradients are formed, so no (batch, n_params) array is held.
    A max-pool's input gradient is one scatter into a C-contiguous (c, h, w)
    array, and a convolution's is its col2im, one gather per tap through
    ``arch.tables`` (see :func:`_max_pool_grad` and :func:`_col2im`), so
    every pixel sums in the order of a tap-by-tap scatter-add.
    The walk ends once the parameter gradient of layer ``stop`` is formed.
    With ``stop`` given, it forms only that layer's gradient and returns it
    alone, its W then its b, so P is that layer's W size plus b size.  By
    default it stops at the first parameterised layer, where no one reads
    the input gradient, and returns every layer's gradient, laid out by
    ``arch.param_slots``, as training needs.  A ``stop`` that is not a
    parameterised layer is an InternalError.
    """
    form_all = stop is None
    if form_all:
        stop = min(arch.param_slots)
    elif stop not in arch.param_slots:
        raise InternalError(f"the backward walk cannot stop at layer {stop}: it has no parameters")
    X = _as_batch(arch, X)
    y = np.asarray(y, dtype=np.int64)
    S = len(params)
    n = X.shape[0] // S
    size = n if block is None else block
    if not 0 < size <= n or n % size:
        raise InternalError(f"blocks of {size} rows do not split {n} rows")
    logits, caches = _run_layers(params, arch, X.reshape(S, n, *arch.input_shape), rng, size)
    delta = _softmax_xent(logits.reshape(S * n, -1), y).reshape(S, n, -1)
    if clip is None:
        delta /= size
    pieces = []  # (layer index, layer input, output gradient) per layer formed
    for i in range(len(arch.layers) - 1, -1, -1):
        layer = arch.layers[i]
        cache = caches[i]
        if isinstance(layer, Dense):
            in_shape, flat, W = cache
            if form_all or i == stop:
                pieces.append((i, flat, delta))
            if i == stop:
                break
            delta = _matmul_blocks(delta, W.transpose(0, 2, 1), size).reshape(in_shape)
        elif isinstance(layer, Conv2d):
            in_shape, cols, W = cache
            o, ho, wo = delta.shape[2:]
            d = delta.reshape(S, n, o, ho * wo)
            if form_all or i == stop:
                pieces.append((i, cols, d))
            if i == stop:
                break
            delta = _col2im(d, W, size, in_shape, arch.tables[i])
        elif isinstance(layer, MaxPool2d):
            in_shape, idx = cache
            delta = _max_pool_grad(delta, in_shape, idx, arch.tables[i])
        elif isinstance(layer, Relu):
            delta = delta * cache
        elif isinstance(layer, Dropout):
            keep, scale = cache
            if keep is not None:
                delta = delta * keep * scale
    if clip is not None:
        norms = np.sqrt(_example_sq_norms(arch, pieces))
        scale = np.minimum(1.0, np.divide(clip, norms, out=np.ones_like(norms), where=norms > 0))
        scale /= size
        pieces = [(i, a, d * scale.reshape(S, n, *[1] * (d.ndim - 2))) for i, a, d in pieces]
    grads = _block_grads(arch, pieces, size)
    return grads if block is not None else grads[:, 0]


def forward(params: np.ndarray, arch: Architecture, X: np.ndarray, y: np.ndarray):
    """Evaluation-mode forward pass: (logits, mean softmax cross-entropy)."""
    logits = predict_logits(params, arch, X)
    y = np.asarray(y, dtype=np.int64)
    # Log-softmax by the stable log-sum-exp.  The row max is taken over a
    # class-major copy, since numpy reduces a short last axis one row at a
    # time; a max is exact in any order.
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return logits, -log_probs[np.arange(len(y)), y].mean()


def predict_logits(params: np.ndarray, arch: Architecture, X: np.ndarray) -> np.ndarray:
    X = _as_batch(arch, X)
    return _run_layers(params[None], arch, X[None], None)[0][0]


def backward(params: np.ndarray, arch: Architecture, X: np.ndarray, y: np.ndarray,
             stop: Optional[int] = None, block: Optional[int] = None):
    """Gradient of the mean batch loss (eval mode): of every parameter,
    laid out by ``arch.param_slots``, by default, or, with ``stop`` the
    index of a parameterised layer, of that layer only, a (w_size + b_size,)
    array, W then b.  With ``block``, a row count that divides the batch, it
    is one gradient row per contiguous block of that many rows, each equal
    to a call on that block alone (see :func:`_loss_and_grad`)."""
    return _loss_and_grad(params[None], arch, X, y, stop=stop, block=block)[0]


def accuracy(params: np.ndarray, arch: Architecture, X: np.ndarray, y: np.ndarray) -> float:
    logits = predict_logits(params, arch, X)
    return float((logits.argmax(axis=1) == np.asarray(y)).mean())


# ---------------------------------------------------------------------------
# Optimisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpConfig:
    """Per-example clipping plus Gaussian noise for DP-SGD local training."""

    clip_norm: float
    noise_multiplier: float

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise InputError("clip_norm must be > 0")
        if self.noise_multiplier < 0:
            raise InputError("noise_multiplier must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    """The optimiser: SGD, or DP-SGD with ``dp`` set.  Dropout is a layer of
    the architecture, and each model's seed is an argument of :func:`train`."""

    learning_rate: float
    epochs: int
    batch_size: int
    dp: Optional[DpConfig] = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InputError("learning_rate must be > 0")
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """``params - lr * grad``, elementwise, for one model or a stack."""
    if params.shape != grad.shape:
        raise InternalError(f"gradient of shape {grad.shape} for a model of shape {params.shape}")
    return params - lr * grad


def dp_sgd_step(
    params: np.ndarray,
    per_example_grads: np.ndarray,
    dp: DpConfig,
    lr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Clip each row of per_example_grads, a (batch, n_params) array with one
    sample's gradient per row, to dp.clip_norm; average; add Gaussian noise
    with per-coordinate std dp.noise_multiplier * dp.clip_norm / batch_size;
    then step.  This is the step in row form; :func:`train` takes the same
    step from the clipped mean that :func:`_loss_and_grad` forms without the
    rows, and does not call it.  It stays because the benchmark's tracer
    wraps it by name."""
    if len(per_example_grads) == 0:
        raise InputError("per_example_grads is empty")
    params = np.asarray(params, dtype=DTYPE)
    grads = np.asarray(per_example_grads, dtype=DTYPE)
    if grads.ndim != 2 or grads.shape[1] != params.size:
        raise InternalError(
            f"per-example gradients have shape {grads.shape}, expected (batch, {params.size})"
        )
    batch = grads.shape[0]
    norms = np.linalg.norm(grads, axis=1)
    scale = np.minimum(1.0, np.divide(dp.clip_norm, norms, out=np.ones_like(norms),
                                      where=norms > 0))
    mean = (grads * scale[:, None]).sum(axis=0) / batch
    if dp.noise_multiplier > 0:
        mean = mean + rng.normal(0.0, dp.noise_multiplier * dp.clip_norm / batch,
                                 size=mean.shape).astype(DTYPE, copy=False)
    return sgd_step(params, mean, lr)


def train(
    models: np.ndarray,
    arch: Architecture,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    seeds: list,
) -> np.ndarray:
    """Mini-batch SGD for cfg.epochs passes, for the (S, n_params) stack
    ``models`` of one architecture in lockstep; returns a new (S, n_params)
    stack, row s bit for bit what training model s alone gives.  The input
    models are never mutated.

    ``X`` and ``y`` hold the S models' equal-size datasets concatenated in
    model order, so ``len(X)`` is the number of samples.  Model s's shuffle
    order, dropout masks and DP noise all come from one generator of its
    own, seeded from ``seeds[s]``, so identical calls give bit-identical
    results.  Each step is one forward and one backward walk over all S
    batches (see :func:`_loss_and_grad`).  Every walk is in train mode, so
    a Dropout layer in ``arch`` draws its masks; a stack without one trains
    exactly as in eval mode.  With cfg.dp set, the walk gives each model's
    mean of per-example gradients clipped to cfg.dp.clip_norm, and each
    model then draws its Gaussian noise, of std noise_multiplier *
    clip_norm / batch size, from its generator, in model order: the step
    :func:`dp_sgd_step` takes from per-example rows, without forming them.
    Either way, one :func:`sgd_step` moves the whole stack.  The walk draws
    a dropout layer's mask once for a model's whole batch; with a single
    Dropout layer, as in the stack ``harness.build_model_arch`` builds for
    the dropout defense, that is the same stream as one draw per sample in
    batch order.
    """
    seeds = list(seeds)
    if models.ndim != 2 or models.shape[1] != arch.n_params:
        raise InternalError(f"models of shape {models.shape} for {arch.n_params} parameters each")
    if not len(models) or len(seeds) != len(models):
        raise InputError(f"{len(models)} models need as many seeds, got {len(seeds)}")
    models = np.asarray(models, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    y = np.asarray(y, dtype=np.int64)
    S = len(models)
    if X.shape[0] == 0:
        raise InputError("training dataset is empty")
    if X.shape[0] % S or len(y) != X.shape[0]:
        raise InputError(f"{X.shape[0]} samples and {len(y)} labels do not split into "
                         f"{S} equal datasets")
    n = X.shape[0] // S
    if cfg.batch_size > n:
        raise InputError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    rngs = [np.random.default_rng(derive_seed(seed, "train")) for seed in seeds]
    offsets = np.arange(S)[:, None] * n
    for _ in range(cfg.epochs):
        perms = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        for start in range(0, n, cfg.batch_size):
            idx = perms[:, start:start + cfg.batch_size].ravel()
            grads = _loss_and_grad(models, arch, X[idx], y[idx], rngs,
                                   clip=None if cfg.dp is None else cfg.dp.clip_norm)
            if cfg.dp is not None and cfg.dp.noise_multiplier > 0:
                std = cfg.dp.noise_multiplier * cfg.dp.clip_norm / (len(idx) // S)
                grads += np.stack([rng.normal(0.0, std, size=arch.n_params)
                                   for rng in rngs]).astype(DTYPE, copy=False)
            models = sgd_step(models, grads, cfg.learning_rate)
    return models


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"PPAM"
_VERSION = 2


def save_checkpoint(path, params: np.ndarray, arch: Architecture) -> None:
    """Binary checkpoint: magic, u16 version, length-prefixed JSON descriptor,
    then parameters as little-endian float32 in ``param_slots`` order.  A conv
    layer's descriptor holds ``in_ch``, ``out_ch`` and ``kernel``; one naming
    a ``stride`` fails to load, at the same version, since no file a run
    writes holds a conv layer (``meta.ppam`` is a dense stack).  A model
    not shaped (n_params,) is an InternalError."""
    if params.shape != (arch.n_params,):
        raise InternalError(f"model of shape {params.shape}, expected ({arch.n_params},)")
    descriptor = arch.to_json().encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<H", _VERSION))
        f.write(struct.pack("<I", len(descriptor)))
        f.write(descriptor)
        f.write(params.astype("<f4").tobytes())


def load_checkpoint(path):
    """Load a checkpoint, returning (model, Architecture): the model is a
    1-D :data:`DTYPE` array of length ``arch.n_params``, the stored float32
    values exactly."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 10:
        raise FormatError("truncated checkpoint header")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (desc_len,) = struct.unpack("<I", blob[6:10])
    if len(blob) < 10 + desc_len:
        raise FormatError("truncated architecture descriptor")
    try:
        arch = Architecture.from_json(blob[10:10 + desc_len].decode("utf-8"))
    except (ValueError, KeyError, TypeError, AttributeError, InputError) as e:
        raise FormatError(f"bad architecture descriptor: {e!r}") from None
    payload = blob[10 + desc_len:]
    if len(payload) != 4 * arch.n_params:
        raise FormatError(
            f"parameter payload holds {len(payload) // 4} floats, expected {arch.n_params}"
        )
    return np.frombuffer(payload, dtype="<f4").astype(DTYPE), arch
