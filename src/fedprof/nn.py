"""Minimal differentiable feed-forward network engine.

Models are opaque flat parameter vectors (:class:`ParamVector`) paired with an
:class:`Architecture` descriptor.  All operations are pure functions: they
never mutate their inputs and are bit-reproducible given the same seed.
The forward and backward walks carry a leading model axis, so :func:`train`
steps S equal-size models of one architecture in lockstep, each bit for bit
as if it trained alone; one model is the S = 1 case.
Supported layers: dense, 2-D convolution (valid, stride 1), non-overlapping max
pooling, ReLU and dropout.  The loss is softmax cross-entropy throughout.

Everything is computed in float64; checkpoints store float32 (documented
precision loss on reload).
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, InputError, InternalError
from .seeding import derive_seed

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


@dataclass
class Architecture:
    """Ordered layer stack plus input/output contract.

    Construction walks the stack once.  The walk checks every layer's sizes
    and its input shape, and fixes the parameter layout in plain attributes
    (not fields, so equality and :meth:`to_json` ignore them):
    ``param_slots`` maps each parameterised layer's index to (offset, W
    shape, W size, b size), W before b, and is the only record of where a
    layer sits in a :class:`ParamVector`; ``n_params`` is the total and
    ``input_size`` the flat size of one input sample.

    ``feature_index`` is the index of the feature layer, the slice of the
    parameter vector that sensitivity extraction reads.  It follows a rule:
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
        shape, offset, self.param_slots = self.input_shape, 0, {}
        dense, conv = [], None
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
                shape = (layer.out_ch, h, w)
                w_shape = (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel)
                b_size = layer.out_ch
                conv = i
            elif isinstance(layer, MaxPool2d):
                if len(shape) != 3:
                    raise InputError(f"layer {i}: maxpool expects (C, H, W), got shape {shape}")
                h, w = shape[1] // layer.kernel, shape[2] // layer.kernel
                if h < 1 or w < 1:
                    raise InputError(f"layer {i}: maxpool kernel larger than input {shape}")
                shape = (shape[0], h, w)
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
# Parameter vectors
# ---------------------------------------------------------------------------


@dataclass
class ParamVector:
    """Flat float64 parameter vector.  Where each layer's parameters sit in it
    is its Architecture's ``param_slots``."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise InputError("ParamVector values must be 1-D")


def zeros_like_params(arch: Architecture) -> ParamVector:
    return ParamVector(np.zeros(arch.n_params))


def init_params(arch: Architecture, seed: int) -> ParamVector:
    """Glorot-uniform weights, zero biases, deterministic by seed."""
    rng = np.random.default_rng(derive_seed(seed, "init"))
    pv = zeros_like_params(arch)
    for off, w_shape, w_size, b_size in arch.param_slots.values():
        # W is (in, out) for dense and (out, in, k, k) for conv: b_size output
        # units, each fed by w_size // b_size inputs, over a k*k receptive field.
        fan_in, fan_out = w_size // b_size, b_size * math.prod(w_shape[2:])
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        pv.values[off:off + w_size] = rng.uniform(-bound, bound, w_size)
    return pv


def _layer_params(params, arch: Architecture, index: int):
    """(W, b) views into the flat vector for the parameterised layer at index.
    ``params`` is a ParamVector or an array whose last axis is the flat
    vector, such as an (S, n_params) stack, whose leading axes the views
    keep."""
    if index not in arch.param_slots:
        raise InternalError(f"layer {index} has no parameters")
    values = getattr(params, "values", params)
    off, w_shape, w_size, b_size = arch.param_slots[index]
    lead = values.shape[:-1]
    return (values[..., off:off + w_size].reshape(*lead, *w_shape),
            values[..., off + w_size:off + w_size + b_size])


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _as_batch(arch: Architecture, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise InputError("batch is empty")
    if X.size != X.shape[0] * arch.input_size:
        raise InputError(
            f"sample shape {X.shape[1:]} incompatible with input shape {arch.input_shape}"
        )
    return X.reshape(X.shape[0], *arch.input_shape)


def _matmul_blocks(a, b, spans):
    """``a @ b`` over a leading model axis, one matmul per block
    ``a[:, lo:hi]`` of a's row axis (axis 1), for each (lo, hi) in
    ``spans``; b broadcasts against a's leading axes.  Each matmul runs one
    GEMM per model, and how BLAS chunks a product's rows can change its last
    bits, so each model's block is bit-identical to the product of that
    block alone."""
    out = np.empty(a.shape[:-1] + b.shape[-1:])
    for lo, hi in spans:
        np.matmul(a[:, lo:hi], b, out=out[:, lo:hi])
    return out


def _run_layers(params, arch, X, rngs, spans=None):
    """Forward pass of an (S, n_params) stack of S models, model s on batch
    ``X[s]`` of the (S, n, *input_shape) X, returning ((S, n, n_classes)
    logits, caches) for the backward walk.  The walk is in train mode
    exactly when it gets ``rngs``, one generator per model: a Dropout layer
    then draws one mask per model from that model's generator, in model
    order, and is the identity otherwise.  ``spans`` splits every model's
    batch into the same (lo, hi) row blocks (see :func:`_loss_and_grad`),
    one by default; every GEMM runs once per block over the model axis and
    every elementwise step once over all rows of all models, so a model's
    block equals a forward pass of that model on that block alone."""
    if params.shape[-1] != arch.n_params:
        raise InternalError(f"{params.shape[-1]} parameters for an architecture of {arch.n_params}")
    S, n = X.shape[:2]
    if spans is None:
        spans = [(0, n)]
    act = X
    caches = []
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Dense):
            flat = act.reshape(S, n, -1)
            W, b = _layer_params(params, arch, i)
            caches.append((act.shape, flat, W))
            act = _matmul_blocks(flat, W, spans)
            act += b[:, None]
        elif isinstance(layer, Conv2d):
            # im2col: one row of c*k*k input taps per output pixel, so the
            # convolution is one GEMM per model and block (Chellapilla et
            # al. 2006).
            win = sliding_window_view(act, (layer.kernel, layer.kernel), axis=(3, 4))
            ho, wo = win.shape[3:5]
            cols = win.transpose(0, 1, 3, 4, 2, 5, 6).reshape(S, n, ho * wo, -1)
            W, b = _layer_params(params, arch, i)
            caches.append((act.shape, cols, W))
            out = _matmul_blocks(cols.reshape(S, n * ho * wo, -1),
                                 W.reshape(S, layer.out_ch, -1).transpose(0, 2, 1),
                                 [(lo * ho * wo, hi * ho * wo) for lo, hi in spans])
            out += b[:, None]
            act = out.reshape(S, n, ho, wo, -1).transpose(0, 1, 4, 2, 3)
        elif isinstance(layer, MaxPool2d):
            k = layer.kernel
            c, h, w = act.shape[2:]
            ho, wo = h // k, w // k
            tiles = act[..., :ho * k, :wo * k].reshape(S, n, c, ho, k, wo, k)
            tiles = tiles.transpose(0, 1, 2, 3, 5, 4, 6).reshape(S, n, c, ho, wo, k * k)
            idx = tiles.argmax(axis=-1)  # first max wins: deterministic tie-break
            caches.append((act.shape, idx))
            act = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax by the stable log-sum-exp.  The row max is taken
    over a class-major copy, since numpy reduces a short last axis one row at
    a time; a max is exact in any order."""
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax_xent(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row, the gradient of that row's own cross-entropy w.r.t. its
    logits.  The mean loss's gradient is this divided by the batch size."""
    grad = np.exp(_log_softmax(logits))
    grad[np.arange(logits.shape[0]), y] -= 1.0
    return grad


def _set_layer_rows(rows: np.ndarray, arch: Architecture, index: int, gW, gb) -> None:
    """Write per-row (gW, gb), each with the leading axes of ``rows``, into
    the layer's slot of every row of a (..., n_params) gradient array."""
    off, _, w_size, b_size = arch.param_slots[index]
    rows[..., off:off + w_size] = gW.reshape(*rows.shape[:-1], w_size)
    rows[..., off + w_size:off + w_size + b_size] = gb


def _block_grads(arch: Architecture, pieces, spans) -> np.ndarray:
    """(S, B, n_params) gradients, row [s, j] that of model s on row block j
    of ``spans``, from the (layer index, layer input, output gradient)
    pieces of a backward walk whose output gradients were divided by their
    block's size.  Each block's weight gradient is one GEMM over the model
    axis.  Slots the walk did not reach stay zero."""
    S = len(pieces[0][2])
    grads = np.zeros((S, len(spans), arch.n_params))
    for i, a, d in pieces:
        for j, (lo, hi) in enumerate(spans):
            block = d[:, lo:hi]
            if isinstance(arch.layers[i], Dense):
                gW, gb = a[:, lo:hi].transpose(0, 2, 1) @ block, block.sum(axis=1)
            else:
                gW = (block.transpose(0, 2, 1, 3).reshape(S, block.shape[2], -1)
                      @ a[:, lo:hi].reshape(S, -1, a.shape[-1]))
                gb = block.sum(axis=(1, 3))
            _set_layer_rows(grads[:, j], arch, i, gW, gb)
    return grads


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


def _loss_and_grad(params, arch, X, y, rng=None, clip=None, stop=None, blocks=None):
    """Gradient of the mean batch loss of each of S models, from one forward
    and one backward walk over all of them, in train mode when ``rng`` is
    given (see :func:`_run_layers`).

    ``params`` is an (S, n_params) stack, X and y hold the S models' equal
    batches concatenated in model order, and ``rng`` is one generator per
    model.  A ParamVector with a single generator is the S = 1 case and
    gets its result without the model axis.
    The gradient is an (S, n_params) array laid out by ``arch.param_slots``
    (a ParamVector for S = 1).  With ``blocks``, B + 1 row offsets from 0 to
    the batch size that split each model's batch into B non-empty
    contiguous blocks, it is an (S, B, n_params) array whose row [s, j] is
    the gradient of block j's mean loss under model s, bit for bit what a
    batch of block j alone gives: every GEMM runs once per block over the
    model axis, and the elementwise steps once over all rows.  A plain batch
    is one block.  With ``clip`` set, each row's gradient is instead the
    mean over its block of the per-example gradients (what a one-row batch
    of each sample gives), each first scaled to L2 norm at most ``clip``; an
    example whose gradient is exactly zero is left as it is.  The walk then
    runs on the per-row output gradients, not divided by the block size,
    takes each example's norm from them (see :func:`_example_sq_norms`) and
    folds min(1, clip / norm) / block size into each piece's rows before
    the gradients are formed, so no (batch, n_params) array is held.
    The walk ends once the parameter gradient of layer ``stop`` is formed.
    With ``stop`` given, it forms and writes only that layer's slot, and
    every other slot stays zero.  By default it stops at the first
    parameterised layer, where no one reads the input gradient, and writes
    every slot, as training needs.  A ``stop`` that is not a parameterised
    layer is an InternalError.
    """
    one = isinstance(params, ParamVector)
    if one:
        params, rng = params.values[None], None if rng is None else [rng]
    write_all = stop is None
    if write_all:
        stop = min(arch.param_slots)
    elif stop not in arch.param_slots:
        raise InternalError(f"the backward walk cannot stop at layer {stop}: it has no parameters")
    X = _as_batch(arch, X)
    y = np.asarray(y, dtype=np.int64)
    S = len(params)
    n = X.shape[0] // S
    if blocks is None:
        spans = [(0, n)]
    else:
        bounds = [int(v) for v in blocks]
        spans = list(zip(bounds[:-1], bounds[1:]))
        if not spans or bounds[0] != 0 or bounds[-1] != n or any(hi <= lo for lo, hi in spans):
            raise InternalError(f"blocks {bounds} do not split {n} rows into non-empty blocks")
    logits, caches = _run_layers(params, arch, X.reshape(S, n, *arch.input_shape), rng, spans)
    delta = _softmax_xent(logits.reshape(S * n, -1), y).reshape(S, n, -1)
    if clip is None:
        for lo, hi in spans:
            delta[:, lo:hi] /= hi - lo
    pieces = []  # (layer index, layer input, output gradient) per slot written
    for i in range(len(arch.layers) - 1, -1, -1):
        layer = arch.layers[i]
        cache = caches[i]
        if isinstance(layer, Dense):
            in_shape, flat, W = cache
            if write_all or i == stop:
                pieces.append((i, flat, delta))
            if i == stop:
                break
            delta = _matmul_blocks(delta, W.transpose(0, 2, 1), spans).reshape(in_shape)
        elif isinstance(layer, Conv2d):
            in_shape, cols, W = cache
            o, ho, wo = delta.shape[2:]
            d = delta.reshape(S, n, o, ho * wo)
            if write_all or i == stop:
                pieces.append((i, cols, d))
            if i == stop:
                break
            # col2im: scatter-add the column-space gradient back tap by tap.
            k = layer.kernel
            dcols = _matmul_blocks(d.transpose(0, 1, 3, 2), W.reshape(S, 1, o, -1),
                                   spans).reshape(S, n, ho, wo, -1, k, k)
            dx = np.zeros(in_shape)
            for ki in range(k):
                for kj in range(k):
                    dx[..., ki:ki + ho, kj:kj + wo] += (
                        dcols[..., ki, kj].transpose(0, 1, 4, 2, 3)
                    )
            delta = dx
        elif isinstance(layer, MaxPool2d):
            in_shape, idx = cache
            k = layer.kernel
            c, ho, wo = idx.shape[2:]
            dtiles = np.zeros((S, n, c, ho, wo, k * k))
            np.put_along_axis(dtiles, idx[..., None], delta[..., None], axis=-1)
            dx = np.zeros(in_shape)
            dx[..., :ho * k, :wo * k] = (
                dtiles.reshape(S, n, c, ho, wo, k, k).transpose(0, 1, 2, 3, 5, 4, 6)
                .reshape(S, n, c, ho * k, wo * k)
            )
            delta = dx
        elif isinstance(layer, Relu):
            delta = delta * cache
        elif isinstance(layer, Dropout):
            keep, scale = cache
            if keep is not None:
                delta = delta * keep * scale
    if clip is not None:
        norms = np.sqrt(_example_sq_norms(arch, pieces))
        scale = np.minimum(1.0, np.divide(clip, norms, out=np.ones_like(norms), where=norms > 0))
        for lo, hi in spans:
            scale[:, lo:hi] /= hi - lo
        pieces = [(i, a, d * scale.reshape(S, n, *[1] * (d.ndim - 2))) for i, a, d in pieces]
    grads = _block_grads(arch, pieces, spans)
    if blocks is None:
        grads = grads[:, 0]
    if not one:
        return grads
    return grads[0] if blocks is not None else ParamVector(grads[0])


def forward(pv: ParamVector, arch: Architecture, X: np.ndarray, y: np.ndarray):
    """Evaluation-mode forward pass: (logits, mean softmax cross-entropy)."""
    X = _as_batch(arch, X)
    y = np.asarray(y, dtype=np.int64)
    logits = _run_layers(pv.values[None], arch, X[None], None)[0][0]
    return logits, -_log_softmax(logits)[np.arange(len(y)), y].mean()


def predict_logits(pv: ParamVector, arch: Architecture, X: np.ndarray) -> np.ndarray:
    X = _as_batch(arch, X)
    return _run_layers(pv.values[None], arch, X[None], None)[0][0]


def backward(pv: ParamVector, arch: Architecture, X: np.ndarray, y: np.ndarray,
             stop: Optional[int] = None, blocks=None):
    """Gradient of the mean batch loss (eval mode), laid out by
    ``arch.param_slots``: of every parameter by default, or, with ``stop``
    the index of a parameterised layer, of that layer only, with every other
    slot left zero.  With ``blocks``, the row offsets of
    contiguous row blocks, it is one gradient row per block, each equal to
    a call on that block alone (see :func:`_loss_and_grad`)."""
    return _loss_and_grad(pv, arch, X, y, stop=stop, blocks=blocks)


def accuracy(pv: ParamVector, arch: Architecture, X: np.ndarray, y: np.ndarray) -> float:
    logits = predict_logits(pv, arch, X)
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


def sgd_step(pv: ParamVector, grad: ParamVector, lr: float) -> ParamVector:
    if pv.values.size != grad.values.size:
        raise InternalError(f"gradient has {grad.values.size} values, model has {pv.values.size}")
    return ParamVector(pv.values - lr * grad.values)


def dp_sgd_step(
    pv: ParamVector,
    per_example_grads: np.ndarray,
    dp: DpConfig,
    lr: float,
    rng: np.random.Generator,
) -> ParamVector:
    """Clip each row of per_example_grads, a (batch, n_params) array with one
    sample's gradient per row, to dp.clip_norm; average; add Gaussian noise
    with per-coordinate std dp.noise_multiplier * dp.clip_norm / batch_size;
    then step.  This is the step in row form; :func:`train` takes the same
    step from the clipped mean that :func:`_loss_and_grad` forms without the
    rows, and does not call it.  It stays because the benchmark's tracer
    wraps it by name."""
    if len(per_example_grads) == 0:
        raise InputError("per_example_grads is empty")
    grads = np.asarray(per_example_grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[1] != pv.values.size:
        raise InternalError(
            f"per-example gradients have shape {grads.shape}, expected (batch, {pv.values.size})"
        )
    batch = grads.shape[0]
    norms = np.linalg.norm(grads, axis=1)
    scale = np.minimum(1.0, np.divide(dp.clip_norm, norms, out=np.ones(batch), where=norms > 0))
    mean = (grads * scale[:, None]).sum(axis=0) / batch
    if dp.noise_multiplier > 0:
        mean = mean + rng.normal(0.0, dp.noise_multiplier * dp.clip_norm / batch,
                                 size=mean.shape)
    return sgd_step(pv, ParamVector(mean), lr)


def train(
    models: list,
    arch: Architecture,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    seeds: list,
) -> list:
    """Mini-batch SGD for cfg.epochs passes, for S models of one architecture
    in lockstep; returns S new ParamVectors, model s bit for bit what
    training it alone gives.  The input models are never mutated.

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
    models, seeds = list(models), list(seeds)
    if not models or len(seeds) != len(models):
        raise InputError(f"{len(models)} models need as many seeds, got {len(seeds)}")
    sizes = {m.values.size for m in models}
    if sizes != {arch.n_params}:
        raise InternalError(f"models of {sorted(sizes)} parameters for an architecture of "
                            f"{arch.n_params}")
    X = np.asarray(X, dtype=np.float64)
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
    params = np.stack([m.values for m in models])
    rngs = [np.random.default_rng(derive_seed(seed, "train")) for seed in seeds]
    offsets = np.arange(S)[:, None] * n
    for _ in range(cfg.epochs):
        perms = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        for start in range(0, n, cfg.batch_size):
            idx = perms[:, start:start + cfg.batch_size].ravel()
            grads = _loss_and_grad(params, arch, X[idx], y[idx], rngs,
                                   clip=None if cfg.dp is None else cfg.dp.clip_norm)
            if cfg.dp is not None and cfg.dp.noise_multiplier > 0:
                std = cfg.dp.noise_multiplier * cfg.dp.clip_norm / (len(idx) // S)
                grads += np.stack([rng.normal(0.0, std, size=arch.n_params) for rng in rngs])
            # SGD is elementwise, so the stack steps as one flat vector.
            params = sgd_step(ParamVector(params.ravel()), ParamVector(grads.ravel()),
                              cfg.learning_rate).values.reshape(S, -1)
    # One array per model, so that no returned model keeps the stack alive.
    return [ParamVector(p.copy()) for p in params]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"PPAM"
_VERSION = 2


def save_checkpoint(path, pv: ParamVector, arch: Architecture) -> None:
    """Binary checkpoint: magic, u16 version, length-prefixed JSON descriptor,
    then parameters as little-endian float32 in ``param_slots`` order.  A conv
    layer's descriptor holds ``in_ch``, ``out_ch`` and ``kernel``; one naming
    a ``stride`` fails to load, at the same version, since no file a run
    writes holds a conv layer (``meta.ppam`` is a dense stack)."""
    descriptor = arch.to_json().encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<H", _VERSION))
        f.write(struct.pack("<I", len(descriptor)))
        f.write(descriptor)
        f.write(pv.values.astype("<f4").tobytes())


def load_checkpoint(path):
    """Load a checkpoint, returning (ParamVector, Architecture).

    Values were stored as float32, so reloaded parameters are float64
    round-trips of the float32 representation.
    """
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
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return ParamVector(values), arch
