"""Engine tests: forward/backward oracles, SGD variants, determinism, checkpoints."""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fedprof import harness, nn
from fedprof.errors import FormatError, InputError, InternalError
from fedprof.seeding import derive_seed
from test_acceptance import random_arch as criterion_1_arch


def mlp(in_dim=6, hidden=8, n_classes=3):
    return nn.Architecture(
        (nn.Dense(in_dim, hidden), nn.Relu(), nn.Dense(hidden, n_classes)),
        input_shape=(in_dim,),
        n_classes=n_classes,
    )


def small_cnn(n_classes=4):
    return nn.Architecture(
        (
            nn.Conv2d(1, 3, kernel=3), nn.Relu(),
            nn.MaxPool2d(2),
            nn.Conv2d(3, 4, kernel=2), nn.Relu(),
            nn.Dense(4 * 2 * 2, n_classes),
        ),
        input_shape=(1, 8, 8),
        n_classes=n_classes,
    )


def rand_batch(arch, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, int(np.prod(arch.input_shape))))
    y = rng.integers(0, arch.n_classes, n)
    return X, y


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def xent_oracle(logits, y):
    """Scalar-loop softmax cross-entropy, independent of the engine's path."""
    total = 0.0
    for row, label in zip(logits, y):
        exps = [math.exp(v - max(row)) for v in row]
        p = exps[label] / sum(exps)
        total += -math.log(p)
    return total / len(y)


def fd_gradient(params, arch, X, y, h=1e-4):
    """Central finite differences on the mean batch loss."""
    base = params.values.copy()
    out = np.zeros_like(base)
    for i in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus[i] += h
        minus[i] -= h
        lp = nn.forward(nn.ParamVector(plus), arch, X, y)[1]
        lm = nn.forward(nn.ParamVector(minus), arch, X, y)[1]
        out[i] = (lp - lm) / (2 * h)
    return out


def assert_close_rel(a, b, tol, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    worst = np.max(np.abs(a - b) / denom)
    assert worst <= tol, f"worst relative error {worst:.3e} > {tol}"


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_zero_weights_give_uniform_logits_and_log_k_loss():
    arch = nn.Architecture((nn.Dense(4, 10),), (4,), 10)
    params = nn.zeros_like_params(arch)
    X, y = rand_batch(arch, 5, seed=0)
    logits, loss = nn.forward(params, arch, X, y)
    assert np.allclose(logits, 0.0)
    assert loss == pytest.approx(math.log(10), rel=1e-12)


def test_saturated_correct_logit_drives_loss_to_zero():
    arch = nn.Architecture((nn.Dense(2, 2),), (2,), 2)
    params = nn.zeros_like_params(arch)
    W, _ = nn._layer_params(params, arch, 0)
    W[:] = np.array([[50.0, -50.0], [-50.0, 50.0]])
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    _, loss = nn.forward(params, arch, X, y)
    assert loss < 1e-10


def test_loss_matches_scalar_loop_oracle():
    arch = mlp()
    params = nn.init_params(arch, seed=7)
    X, y = rand_batch(arch, 8, seed=1)
    logits, loss = nn.forward(params, arch, X, y)
    assert loss == pytest.approx(xent_oracle(logits, y), rel=1e-6)


def test_forward_rejects_shape_mismatch_and_empty_batch():
    arch = mlp()
    params = nn.init_params(arch, seed=0)
    with pytest.raises(InputError):
        nn.forward(params, arch, np.zeros((2, 5)), np.zeros(2, dtype=int))
    with pytest.raises(InputError):
        nn.forward(params, arch, np.zeros((0, 6)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("too_long", [True, False], ids=["too-long", "too-short"])
def test_params_sized_for_another_architecture_are_internal_errors(too_long):
    """The parameters of a two-dense-layer model do not fit a one-dense-layer
    architecture, and the other way round."""
    deep, shallow = mlp(), nn.Architecture((nn.Dense(6, 3),), (6,), 3)
    params, arch = ((nn.init_params(deep, 0), shallow) if too_long
                    else (nn.init_params(shallow, 0), deep))
    X, y = rand_batch(arch, 8, seed=1)
    with pytest.raises(InternalError, match="parameters"):
        nn.predict_logits(params, arch, X)
    with pytest.raises(InternalError, match="parameters"):
        nn.backward(params, arch, X, y)
    with pytest.raises(InternalError, match="parameters"):
        nn.train([params], arch, X, y, nn.TrainConfig(0.1, epochs=1, batch_size=4), [0])


def test_forward_is_pure():
    arch = small_cnn()
    params = nn.init_params(arch, seed=3)
    X, y = rand_batch(arch, 4, seed=2)
    before = params.values.copy()
    r1 = nn.forward(params, arch, X, y)
    r2 = nn.forward(params, arch, X, y)
    assert np.array_equal(params.values, before)
    assert np.array_equal(r1[0], r2[0]) and r1[1] == r2[1]


@pytest.mark.parametrize("arch, dp", [
    (mlp(), None),
    (nn.Architecture((nn.Dense(6, 8), nn.Relu(), nn.Dropout(0.3), nn.Dense(8, 3)), (6,), 3),
     None),
    (mlp(), nn.DpConfig(clip_norm=1.0, noise_multiplier=0.5)),
], ids=["sgd", "dropout", "dp"])
def test_train_leaves_its_input_unchanged(arch, dp):
    params = nn.init_params(arch, seed=3)
    before = params.values.copy()
    X, y = rand_batch(arch, 12, seed=4)
    out = nn.train([params], arch, X, y, nn.TrainConfig(0.1, epochs=2, batch_size=4, dp=dp), [5])[0]
    assert np.array_equal(params.values, before)
    assert not np.array_equal(out.values, before)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def test_one_parameter_logistic_gradient_by_hand():
    # Binary softmax with logits (0, wx): at w=0, x=1, y=1 the gradient of the
    # loss w.r.t. w is sigma(0) - 1 = -0.5.
    arch = nn.Architecture((nn.Dense(1, 2),), (1,), 2)
    params = nn.zeros_like_params(arch)
    grad = nn.backward(params, arch, np.array([[1.0]]), np.array([1]))
    W, _ = nn._layer_params(grad, arch, 0)
    assert W[0, 1] == pytest.approx(-0.5)
    assert W[0, 0] == pytest.approx(0.5)


def test_gradient_near_zero_at_saturated_minimum():
    arch = nn.Architecture((nn.Dense(2, 2),), (2,), 2)
    params = nn.zeros_like_params(arch)
    W, _ = nn._layer_params(params, arch, 0)
    W[:] = np.array([[60.0, -60.0], [-60.0, 60.0]])
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    grad = nn.backward(params, arch, X, y)
    assert np.linalg.norm(grad.values) < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_backward_matches_finite_differences_random_archs(seed):
    rng = np.random.default_rng(100 + seed)
    n_classes = int(rng.integers(2, 5))
    if seed % 2 == 0:
        hidden = int(rng.integers(3, 9))
        in_dim = int(rng.integers(3, 7))
        arch = nn.Architecture(
            (nn.Dense(in_dim, hidden), nn.Relu(), nn.Dropout(0.3), nn.Dense(hidden, n_classes)),
            (in_dim,), n_classes,
        )
    else:
        ch = int(rng.integers(2, 4))
        arch = nn.Architecture(
            (nn.Conv2d(1, ch, kernel=3), nn.Relu(), nn.MaxPool2d(2),
             nn.Dense(ch * 3 * 3, n_classes)),
            (1, 8, 8), n_classes,
        )
    params = nn.init_params(arch, seed=seed)
    X, y = rand_batch(arch, 5, seed=200 + seed)
    grad = nn.backward(params, arch, X, y)
    fd = fd_gradient(params, arch, X, y)
    assert_close_rel(grad.values, fd, tol=1e-4)


# ---------------------------------------------------------------------------
# Convolution as a GEMM, against the einsum reference
# ---------------------------------------------------------------------------


def einsum_reference(params, arch, X, y):
    """Eval-mode (logits, batch gradient, per-example rows) from a walk that
    convolves by einsum over the window view, with no im2col columns:
    the engine's convolution before it became a GEMM.  Its input gradient is
    one einsum per kernel tap."""
    act, n = X.reshape(len(X), *arch.input_shape), len(X)
    caches = []
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, nn.Dense):
            W, b = nn._layer_params(params, arch, i)
            caches.append((act.shape, act.reshape(n, -1)))
            act = caches[-1][1] @ W + b
        elif isinstance(layer, nn.Conv2d):
            W, b = nn._layer_params(params, arch, i)
            win = sliding_window_view(act, (layer.kernel, layer.kernel), axis=(2, 3))
            caches.append((act.shape, win))
            act = np.einsum("nchwij,ocij->nohw", caches[-1][1], W) + b[None, :, None, None]
        elif isinstance(layer, nn.MaxPool2d):
            k, (_, c, h, w) = layer.kernel, act.shape
            tiles = act[:, :, :h // k * k, :w // k * k].reshape(n, c, h // k, k, w // k, k)
            tiles = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
            caches.append((act.shape, tiles.argmax(axis=-1)))
            act = tiles.max(axis=-1)
        elif isinstance(layer, nn.Relu):
            caches.append(act > 0)
            act = np.maximum(act, 0.0)
        else:  # dropout is the identity in eval mode
            caches.append(1.0)
    logits = act
    delta = np.exp(logits - logits.max(axis=1, keepdims=True))
    delta /= delta.sum(axis=1, keepdims=True)
    delta[np.arange(n), y] -= 1.0  # per-row loss gradient; the batch mean's is delta / n
    grad, rows = nn.zeros_like_params(arch), np.zeros((n, arch.n_params))
    for i in range(len(arch.layers) - 1, -1, -1):
        layer, cache = arch.layers[i], caches[i]
        if isinstance(layer, nn.Dense):
            W, _ = nn._layer_params(params, arch, i)
            in_shape, flat = cache
            gW, gb = nn._layer_params(grad, arch, i)
            gW += flat.T @ delta / n
            gb += delta.sum(axis=0) / n
            nn._set_layer_rows(rows, arch, i, flat[:, :, None] * delta[:, None, :], delta)
            delta = (delta @ W.T).reshape(in_shape)
        elif isinstance(layer, nn.Conv2d):
            W, _ = nn._layer_params(params, arch, i)
            in_shape, win = cache
            gW, gb = nn._layer_params(grad, arch, i)
            gW += np.einsum("nchwij,nohw->ocij", win, delta) / n
            gb += delta.sum(axis=(0, 2, 3)) / n
            nn._set_layer_rows(rows, arch, i, np.einsum("nchwij,nohw->nocij", win, delta),
                               delta.sum(axis=(2, 3)))
            dx = np.zeros(in_shape)
            ho, wo = delta.shape[2:]
            for ki in range(layer.kernel):
                for kj in range(layer.kernel):
                    dx[:, :, ki:ki + ho, kj:kj + wo] += np.einsum(
                        "oc,nohw->nchw", W[:, :, ki, kj], delta)
            delta = dx
        elif isinstance(layer, nn.MaxPool2d):
            in_shape, idx = cache
            k, (_, c, ho, wo) = layer.kernel, idx.shape
            dtiles = np.zeros((n, c, ho, wo, k * k))
            np.put_along_axis(dtiles, idx[..., None], delta[..., None], axis=-1)
            delta = np.zeros(in_shape)
            delta[:, :, :ho * k, :wo * k] = dtiles.reshape(n, c, ho, wo, k, k).transpose(
                0, 1, 2, 4, 3, 5).reshape(n, c, ho * k, wo * k)
        else:
            delta = delta * cache
    return logits, grad.values, rows


def assert_matches_reference(got, want, tol=1e-12):
    """Largest deviation at most tol times the reference's largest entry."""
    scale = np.max(np.abs(want))
    assert scale > 0
    worst = np.max(np.abs(got - want)) / scale
    assert worst <= tol, f"relative deviation {worst:.3e} > {tol}"


def strided_cnn(side):
    """A 1x1 convolution of a 2-channel input, so that the next convolution's
    input gradient is part of the gradient, then a 3x3 convolution, on odd
    and even sides."""
    return nn.Architecture(
        (nn.Conv2d(2, 3, kernel=1), nn.Relu(), nn.Conv2d(3, 4, kernel=3),
         nn.Relu(), nn.Dense(4 * (side - 2) ** 2, 3)),
        (2, side, side), 3,
    )


BENCHMARK_CNN = {"model": {"kind": "cnn"}, "dataset": {"dim": 36}}


@pytest.mark.parametrize("make_arch, n", [
    (lambda: reference_arch(BENCHMARK_CNN), 32),
    (lambda: reference_arch(BENCHMARK_CNN), 1500),
    (lambda: reference_arch({"model": {"kind": "cnn"}, "dataset": {"dim": 784}}), 16),
    (lambda: strided_cnn(7), 20),
    (lambda: strided_cnn(8), 20),
], ids=["benchmark-cnn-32", "benchmark-cnn-1500", "cnn-28x28", "stride2-7x7", "stride2-8x8"])
def test_conv_gemm_matches_einsum_reference(make_arch, n):
    """Forward output, each layer's batch weight and bias gradients, the
    per-example rows (one-row blocks), their clipped mean, and the gradient
    rows of unequal row blocks, plain and clipped, whose reference is the
    mean of the block's per-example rows, plain and clipped.  The input
    gradient of every convolution after the first feeds the gradients of the
    layers below it, so it is checked too."""
    arch = make_arch()
    params = perturbed_params(arch, 1)
    X, y = rand_batch(arch, n, seed=2)
    logits, grad, rows = einsum_reference(params, arch, X, y)
    assert_matches_reference(nn.predict_logits(params, arch, X), logits)

    def assert_layers_match(got, want):
        for index in arch.param_slots:
            for got_part, want_part in zip(nn._layer_params(nn.ParamVector(got), arch, index),
                                           nn._layer_params(nn.ParamVector(want), arch, index)):
                assert_matches_reference(got_part, want_part)

    assert_layers_match(nn.backward(params, arch, X, y).values, grad)
    assert_matches_reference(nn.backward(params, arch, X, y, blocks=range(n + 1)), rows)
    clip = np.median(np.linalg.norm(rows, axis=1))  # clips about half of the rows
    assert_matches_reference(nn._loss_and_grad(params, arch, X, y, clip=clip).values,
                             clipped_mean(rows, clip))
    bounds = [0, n // 5, n // 2, n]
    blocks = nn.backward(params, arch, X, y, blocks=bounds)
    clipped = nn._loss_and_grad(params, arch, X, y, clip=clip, blocks=bounds)
    for got, got_clipped, lo, hi in zip(blocks, clipped, bounds[:-1], bounds[1:]):
        assert_layers_match(got, rows[lo:hi].mean(axis=0))
        assert_matches_reference(got_clipped, clipped_mean(rows[lo:hi], clip))


# ---------------------------------------------------------------------------
# Backward walks that stop at a layer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_arch", [
    lambda: reference_arch(BENCHMARK_CNN), small_cnn, lambda: strided_cnn(7),
    *[lambda seed=seed: criterion_1_arch(np.random.default_rng(4000 + seed))
      for seed in range(6)],
], ids=["benchmark-cnn", "small-cnn", "stride2-7x7", *[f"criterion-1-{s}" for s in range(6)]])
def test_backward_stopped_at_the_feature_layer_is_the_full_walk_above_it(make_arch):
    """The stopped walk runs every layer above the feature layer but forms
    only the feature layer's gradient, equal to the full walk's; every other
    slot is zero."""
    arch = make_arch()
    params = perturbed_params(arch, 5)
    X, y = rand_batch(arch, 12, seed=6)
    full = nn.backward(params, arch, X, y).values
    stopped = nn.backward(params, arch, X, y, stop=arch.feature_index).values
    for index, (off, _, w_size, b_size) in arch.param_slots.items():
        part = slice(off, off + w_size + b_size)
        assert full[part].any()
        if index == arch.feature_index:
            assert np.array_equal(stopped[part], full[part])
        else:
            assert not stopped[part].any()


def test_backward_stop_at_a_layer_without_parameters_is_internal_error():
    arch = reference_arch(BENCHMARK_CNN)
    params = perturbed_params(arch, 5)
    X, y = rand_batch(arch, 3, seed=6)
    for stop in (-1, 1, 4, len(arch.layers)):
        assert stop not in arch.param_slots
        with pytest.raises(InternalError, match=f"cannot stop at layer {stop}:"):
            nn.backward(params, arch, X, y, stop=stop)


# ---------------------------------------------------------------------------
# Backward walks over row blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_arch", [
    lambda: reference_arch({}), lambda: reference_arch(BENCHMARK_CNN),
    lambda: strided_cnn(7), lambda: reference_arch(DROPOUT),
], ids=["mlp", "benchmark-cnn", "stride2-7x7", "dropout-mlp"])
@pytest.mark.parametrize("sizes", [(6, 6, 6, 6), (3, 8, 5, 3, 7), (150,) * 10],
                         ids=["equal", "unequal", "aux-store"])
@pytest.mark.parametrize("at", ["feature", "first"])
def test_block_rows_equal_one_backward_per_block(make_arch, sizes, at):
    """Row j of a blocked walk is bit for bit the walk over block j alone.
    Stopping at the first layer runs every layer's input gradient above it:
    col2im for the second convolution of the CNNs, the identity of an
    eval-mode Dropout."""
    arch = make_arch()
    params = perturbed_params(arch, 7)
    bounds = np.cumsum((0, *sizes))
    X, y = rand_batch(arch, bounds[-1], seed=8)
    stop = arch.feature_index if at == "feature" else min(arch.param_slots)
    rows = nn.backward(params, arch, X, y, stop=stop, blocks=bounds)
    assert rows.shape == (len(sizes), arch.n_params)
    for row, lo, hi in zip(rows, bounds[:-1], bounds[1:]):
        assert np.array_equal(row, nn.backward(params, arch, X[lo:hi], y[lo:hi], stop=stop).values)


@pytest.mark.parametrize("bounds", [[0, 3, 3, 6], [0, 4], [1, 6], [0, 4, 2, 6], [6], []])
def test_blocks_that_do_not_split_the_batch_are_internal_error(bounds):
    arch = mlp()
    X, y = rand_batch(arch, 6, seed=9)
    with pytest.raises(InternalError, match="do not split 6 rows"):
        nn.backward(nn.init_params(arch, 1), arch, X, y, blocks=bounds)


# ---------------------------------------------------------------------------
# SGD steps
# ---------------------------------------------------------------------------


def test_sgd_step_arithmetic_and_identity():
    p = nn.ParamVector(np.array([2.0]))
    g = nn.ParamVector(np.array([1.0]))
    assert nn.sgd_step(p, g, 0.5).values[0] == 1.5
    zero = nn.ParamVector(np.array([0.0]))
    assert np.array_equal(nn.sgd_step(p, zero, 0.5).values, p.values)


def test_sgd_step_layout_mismatch_is_internal_error():
    p = nn.ParamVector(np.array([2.0]))
    g = nn.ParamVector(np.array([1.0, 1.0]))
    with pytest.raises(InternalError):
        nn.sgd_step(p, g, 0.1)


def test_two_recomputed_steps_differ_from_one_summed_step_on_curved_loss():
    arch = mlp()
    params = nn.init_params(arch, seed=5)
    X, y = rand_batch(arch, 6, seed=6)
    lr = 0.5
    g1 = nn.backward(params, arch, X, y)
    after1 = nn.sgd_step(params, g1, lr)
    g2 = nn.backward(after1, arch, X, y)  # recomputed at the new point
    two_steps = nn.sgd_step(after1, g2, lr)
    # One step with the gradient taken twice at the start point: only equal to
    # the two-step path if the loss surface were flat along the way.
    naive = nn.sgd_step(params, nn.ParamVector(2.0 * g1.values), lr)
    assert not np.allclose(two_steps.values, naive.values, atol=1e-12)


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------


def blobs_2class(n_per_class=40, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((-2.0, 0.0), 0.3, (n_per_class, 2))
    b = rng.normal((2.0, 0.0), 0.3, (n_per_class, 2))
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def test_train_config_rejects_zero_epochs():
    with pytest.raises(InputError, match="epochs must be >= 1"):
        nn.TrainConfig(learning_rate=0.1, epochs=0, batch_size=8)


def test_train_separable_blobs_to_perfect_accuracy():
    arch = mlp(2, 8, 2)
    params = nn.init_params(arch, seed=0)
    X, y = blobs_2class()
    cfg = nn.TrainConfig(learning_rate=0.2, epochs=50, batch_size=16)
    out = nn.train([params], arch, X, y, cfg, [1])[0]
    assert nn.accuracy(out, arch, X, y) == 1.0


def test_train_same_seed_is_bit_identical():
    arch = mlp(2, 8, 2)
    params = nn.init_params(arch, seed=0)
    X, y = blobs_2class()
    cfg = nn.TrainConfig(learning_rate=0.1, epochs=3, batch_size=8)
    arch_do = nn.Architecture(
        (nn.Dense(2, 8), nn.Relu(), nn.Dropout(0.5), nn.Dense(8, 2)), (2,), 2
    )
    p0 = nn.init_params(arch_do, seed=0)
    a = nn.train([p0], arch_do, X, y, cfg, [42])[0]
    b = nn.train([p0], arch_do, X, y, cfg, [42])[0]
    assert np.array_equal(a.values, b.values)


def test_train_rejects_empty_and_oversized_batch():
    arch = mlp(2, 4, 2)
    params = nn.init_params(arch, seed=0)
    cfg = nn.TrainConfig(learning_rate=0.1, epochs=1, batch_size=8)
    with pytest.raises(InputError):
        nn.train([params], arch, np.zeros((0, 2)), np.zeros(0, dtype=int), cfg, [0])
    X, y = blobs_2class(n_per_class=2)
    with pytest.raises(InputError):
        nn.train([params], arch, X, y, nn.TrainConfig(0.1, 1, batch_size=64), [0])


def test_dropout_eval_mode_is_identity():
    arch = nn.Architecture(
        (nn.Dense(2, 8), nn.Relu(), nn.Dropout(0.9), nn.Dense(8, 2)), (2,), 2
    )
    plain = nn.Architecture(
        (nn.Dense(2, 8), nn.Relu(), nn.Dense(8, 2)), (2,), 2
    )
    params = nn.init_params(arch, seed=9)
    X, y = blobs_2class(n_per_class=5)
    with_do = nn.predict_logits(params, arch, X)
    # Same weights under the dropout-free layer stack (layer indices differ only).
    stripped = nn.zeros_like_params(plain)
    stripped.values[:] = params.values
    without = nn.predict_logits(stripped, plain, X)
    assert np.array_equal(with_do, without)


# ---------------------------------------------------------------------------
# DP-SGD
# ---------------------------------------------------------------------------


def test_dp_step_without_noise_or_clipping_equals_sgd_on_mean():
    p = nn.ParamVector(np.array([1.0, 2.0, 3.0]))
    gs = np.stack([np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.1, 0.0])])
    rng = np.random.default_rng(0)
    got = nn.dp_sgd_step(p, gs, nn.DpConfig(clip_norm=10.0, noise_multiplier=0.0), lr=0.5, rng=rng)
    mean = nn.ParamVector(np.array([0.05, 0.05, 0.0]))
    want = nn.sgd_step(p, mean, 0.5)
    assert np.array_equal(got.values, want.values)


def test_dp_step_clips_large_gradient_to_clip_norm():
    p = nn.ParamVector(np.zeros(2))
    g = np.array([6.0, 8.0])  # norm 10
    rng = np.random.default_rng(0)
    got = nn.dp_sgd_step(p, np.stack([g]), nn.DpConfig(clip_norm=1.0, noise_multiplier=0.0),
                         lr=1.0, rng=rng)
    assert np.allclose(got.values, -np.array([0.6, 0.8]))


def test_clipping_never_increases_norm():
    rng = np.random.default_rng(5)
    p = nn.ParamVector(np.zeros(4))
    for _ in range(20):
        g = rng.standard_normal(4) * rng.uniform(0.1, 5.0)
        stepped = nn.dp_sgd_step(p, np.stack([g]), nn.DpConfig(clip_norm=1.0, noise_multiplier=0.0),
                                 lr=1.0, rng=np.random.default_rng(0))
        assert np.linalg.norm(stepped.values) <= min(1.0, np.linalg.norm(g)) + 1e-12


def test_dp_noise_std_monte_carlo():
    p = nn.ParamVector(np.zeros(4))
    zero = np.zeros(4)
    batch = np.stack([zero, zero])  # batch_size 2 -> std = 1 * 1 / 2
    rng = np.random.default_rng(123)
    draws = np.array([
        nn.dp_sgd_step(p, batch, nn.DpConfig(clip_norm=1.0, noise_multiplier=1.0), lr=1.0,
                       rng=rng).values
        for _ in range(10_000)
    ])
    std = draws.std()
    assert abs(std - 0.5) / 0.5 < 0.05


def test_dp_step_rejects_empty_gradient_list():
    p = nn.ParamVector(np.zeros(2))
    with pytest.raises(InputError):
        nn.dp_sgd_step(p, np.zeros((0, 2)), nn.DpConfig(1.0, 0.0), 0.1, np.random.default_rng(0))


def test_dp_step_rejects_wrong_width_as_internal_error():
    p = nn.ParamVector(np.zeros(2))
    with pytest.raises(InternalError):
        nn.dp_sgd_step(p, np.zeros((3, 5)), nn.DpConfig(1.0, 0.0), 0.1, np.random.default_rng(0))


# The stacks harness.build_model_arch builds for the dropout defense, with their
# one Dropout layer.
DROPOUT = {"defense": {"apply": "dropout", "dropout_rate": 0.5}}
DP_ARCH_CASES = [DROPOUT, {"model": {"kind": "cnn"}, "dataset": {"dim": 36}, **DROPOUT}]


def perturbed_params(arch, seed):
    """Glorot init plus small noise on every parameter, so biases are non-zero
    and ReLU and max-pool patterns vary across samples."""
    params = nn.init_params(arch, seed)
    return nn.ParamVector(
        params.values + 0.05 * np.random.default_rng(seed).standard_normal(arch.n_params))


def clipped_mean(rows, clip):
    """The mean of per-example gradient rows, each first scaled by a loop to
    L2 norm at most clip; a zero row stays as it is."""
    mean = np.zeros(rows.shape[1])
    for g in rows:
        norm = np.linalg.norm(g)
        mean += g * (min(1.0, clip / norm) if norm > 0 else 1.0)
    return mean / len(rows)


@pytest.mark.parametrize("overrides", DP_ARCH_CASES)
@pytest.mark.parametrize("train_mode", [False, True])
def test_clipped_mean_equals_clipped_one_row_batches(overrides, train_mode):
    """The clipped mean of one walk equals the per-example gradients, each
    walked here as a one-row batch, clipped and averaged by a loop; both
    draw the same dropout stream.  With a clip above every norm it is the
    batch gradient."""
    arch = reference_arch(overrides)
    params = perturbed_params(arch, 3)
    X, y = rand_batch(arch, 9, seed=4)

    def mode_rng():
        return np.random.default_rng(11) if train_mode else None

    rng, ref_rng = mode_rng(), mode_rng()
    rows = np.stack([
        nn._loss_and_grad(params, arch, X[i:i + 1], y[i:i + 1], rng=ref_rng).values
        for i in range(len(X))
    ])
    clip = np.median(np.linalg.norm(rows, axis=1))  # clips some rows, leaves others whole
    got = nn._loss_and_grad(params, arch, X, y, rng=rng, clip=clip)
    assert got.values.shape == (arch.n_params,)
    assert_matches_reference(got.values, clipped_mean(rows, clip))
    if train_mode:
        assert rng.random() == ref_rng.random()
    unclipped = nn._loss_and_grad(params, arch, X, y, rng=mode_rng(), clip=1e12)
    batch = nn._loss_and_grad(params, arch, X, y, rng=mode_rng())
    assert_matches_reference(unclipped.values, batch.values)


def test_clipped_mean_keeps_an_exactly_zero_example_without_a_warning():
    """A sample the model fits exactly (softmax 1.0 at its label) has an
    exactly-zero gradient; it counts at factor 1, with no division by its
    zero norm."""
    arch = mlp()
    params = perturbed_params(arch, 3)
    _, b = nn._layer_params(params, arch, 2)
    b[0] = 1e3  # exp(-1e3) underflows: class 0 gets probability exactly 1.0
    X, _ = rand_batch(arch, 6, seed=4)
    y = np.array([0, 1, 0, 2, 1, 2])
    rows = np.stack([nn.backward(params, arch, X[i:i + 1], y[i:i + 1]).values
                     for i in range(len(X))])
    assert not rows[y == 0].any() and rows[y != 0].any(axis=1).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nn._loss_and_grad(params, arch, X, y, clip=0.5).values
    assert_matches_reference(got, clipped_mean(rows, 0.5))


def dp_train_reference(params, arch, X, y, cfg, seed, train_mode):
    """nn.train with cfg.dp, as one one-row backward per sample and a
    clipping loop over the batch."""
    rng = np.random.default_rng(derive_seed(seed, "train"))
    values = params.values.copy()
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            mean = np.zeros_like(values)
            for i in idx:
                g = nn._loss_and_grad(nn.ParamVector(values), arch,
                                      X[i:i + 1], y[i:i + 1],
                                      rng=rng if train_mode else None).values
                norm = np.linalg.norm(g)
                mean += g * (min(1.0, cfg.dp.clip_norm / norm) if norm > 0 else 1.0)
            mean /= len(idx)
            mean += rng.normal(0.0, cfg.dp.noise_multiplier * cfg.dp.clip_norm / len(idx),
                               size=mean.shape)
            values = values - cfg.learning_rate * mean
    return values


@pytest.mark.parametrize("overrides", DP_ARCH_CASES)
@pytest.mark.parametrize("dropout", [False, True])
def test_dp_train_equals_per_sample_reference(overrides, dropout):
    """nn.train walks in train mode; without dropout the stack has no Dropout
    layer, and the eval-mode reference gives the same result."""
    arch = reference_arch(overrides if dropout else {**overrides, "defense": {}})
    params = perturbed_params(arch, 5)
    X, y = rand_batch(arch, 20, seed=6)  # batches of 8, 8 and 4
    # clip_norm 3.5 clips some rows and leaves others whole.
    cfg = nn.TrainConfig(0.1, epochs=2, batch_size=8,
                         dp=nn.DpConfig(clip_norm=3.5, noise_multiplier=0.7))
    got = nn.train([params], arch, X, y, cfg, [2])[0].values
    want = dp_train_reference(params, arch, X, y, cfg, seed=2, train_mode=dropout)
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# Lockstep training
# ---------------------------------------------------------------------------


def sequential_train_reference(params, arch, X, y, cfg, seed):
    """One model's training loop, the reference for nn.train's lockstep
    walk: one generator gives the model's per-epoch permutation, its
    dropout masks and its DP noise, and every step walks this model alone."""
    rng = np.random.default_rng(derive_seed(seed, "train"))
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            grad = nn._loss_and_grad(params, arch, X[idx], y[idx], rng,
                                     clip=None if cfg.dp is None else cfg.dp.clip_norm)
            if cfg.dp is not None and cfg.dp.noise_multiplier > 0:
                std = cfg.dp.noise_multiplier * cfg.dp.clip_norm / len(idx)
                grad = nn.ParamVector(grad.values + rng.normal(0.0, std, size=arch.n_params))
            params = nn.sgd_step(params, grad, cfg.learning_rate)
    return params


DP = nn.DpConfig(clip_norm=3.5, noise_multiplier=0.7)
LOCKSTEP_CASES = {
    "mlp": ({}, None),
    "benchmark-cnn": (BENCHMARK_CNN, None),
    "dropout-mlp": (DROPOUT, None),
    "dp-mlp": ({}, DP),
    "dp-cnn": (BENCHMARK_CNN, DP),
    "dp-dropout-cnn": (DP_ARCH_CASES[1], DP),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
@pytest.mark.parametrize("n_models", [1, 4])
def test_lockstep_training_equals_one_model_at_a_time(case, n_models):
    """One nn.train call over S models, each with its own start, data and
    seed, is bit for bit S runs of the one-model loop.  20 samples at batch
    8 end each epoch on a partial batch of 4."""
    overrides, dp = LOCKSTEP_CASES[case]
    arch = reference_arch(overrides)
    n = 20
    models = [perturbed_params(arch, 10 + s) for s in range(n_models)]
    seeds = [derive_seed(3, "lockstep", s) for s in range(n_models)]
    X, y = rand_batch(arch, n_models * n, seed=12)
    cfg = nn.TrainConfig(0.1, epochs=2, batch_size=8, dp=dp)
    got = nn.train(models, arch, X, y, cfg, seeds)
    assert len(got) == n_models
    for s, (model, seed) in enumerate(zip(models, seeds)):
        rows = slice(s * n, (s + 1) * n)
        want = sequential_train_reference(model, arch, X[rows], y[rows], cfg, seed)
        assert np.array_equal(got[s].values, want.values)
        assert not np.array_equal(got[s].values, model.values)


def test_lockstep_training_rejects_unpaired_seeds_and_unequal_datasets():
    arch = mlp()
    models = [nn.init_params(arch, seed=s) for s in range(3)]
    X, y = rand_batch(arch, 12, seed=1)
    cfg = nn.TrainConfig(0.1, epochs=1, batch_size=2)
    with pytest.raises(InputError, match="3 models need as many seeds, got 2"):
        nn.train(models, arch, X, y, cfg, [0, 1])
    with pytest.raises(InputError, match="0 models need as many seeds"):
        nn.train([], arch, X, y, cfg, [])
    with pytest.raises(InputError, match="do not split into 3 equal datasets"):
        nn.train(models, arch, X[:11], y[:11], cfg, [0, 1, 2])
    with pytest.raises(InputError, match="do not split into 3 equal datasets"):
        nn.train(models, arch, X, y[:9], cfg, [0, 1, 2])
    with pytest.raises(InternalError, match="parameters"):
        nn.train(models[:2] + [nn.init_params(mlp(6, 4, 3), 0)], arch, X, y, cfg, [0, 1, 2])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    arch = small_cnn()
    params = nn.init_params(arch, seed=17)
    path = tmp_path / "model.ppam"
    nn.save_checkpoint(path, params, arch)
    loaded, arch2 = nn.load_checkpoint(path)
    assert arch2 == arch
    assert arch2.param_slots == arch.param_slots
    # float32 storage: round-trip through f4 must be exact
    assert np.array_equal(loaded.values, params.values.astype("<f4").astype(np.float64))


def test_checkpoint_header_layout(tmp_path):
    arch = mlp(2, 3, 2)
    params = nn.init_params(arch, seed=0)
    path = tmp_path / "model.ppam"
    nn.save_checkpoint(path, params, arch)
    blob = path.read_bytes()
    assert blob[:4] == b"PPAM"
    assert int.from_bytes(blob[4:6], "little") == 2
    desc_len = int.from_bytes(blob[6:10], "little")
    desc = blob[10:10 + desc_len].decode("utf-8")
    assert nn.Architecture.from_json(desc) == arch
    assert len(blob) == 10 + desc_len + 4 * params.values.size


def test_checkpoint_version_1_is_rejected(tmp_path):
    arch = mlp(2, 3, 2)
    path = tmp_path / "model.ppam"
    nn.save_checkpoint(path, nn.init_params(arch, seed=0), arch)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + (1).to_bytes(2, "little") + blob[6:])
    with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
        nn.load_checkpoint(path)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    arch = mlp(2, 3, 2)
    params = nn.init_params(arch, seed=0)
    path = tmp_path / "model.ppam"
    nn.save_checkpoint(path, params, arch)
    blob = path.read_bytes()
    bad = tmp_path / "bad.ppam"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        nn.load_checkpoint(bad)
    cut = tmp_path / "cut.ppam"
    cut.write_bytes(blob[:-4])
    with pytest.raises(FormatError):
        nn.load_checkpoint(cut)
    # a descriptor that is not a valid architecture is a format error too
    desc = json.loads(arch.to_json())
    unknown_kind = json.loads(json.dumps(desc))
    unknown_kind["layers"][0]["kind"] = "lstm"
    unknown_field = json.loads(json.dumps(desc))
    unknown_field["layers"][0]["bogus"] = 1
    bad_chain = json.loads(json.dumps(desc))
    bad_chain["layers"][0]["in_dim"] += 1
    no_layers = {k: v for k, v in desc.items() if k != "layers"}
    payload = params.values.astype("<f4").tobytes()
    for text in (b"{not json", b"\xff\xfe", json.dumps(unknown_kind).encode(),
                 json.dumps(no_layers).encode(), json.dumps(unknown_field).encode(),
                 json.dumps(bad_chain).encode(), json.dumps({**desc, "layers": [1]}).encode()):
        bad.write_bytes(b"PPAM" + (2).to_bytes(2, "little") + len(text).to_bytes(4, "little")
                        + text + payload)
        with pytest.raises(FormatError, match="architecture descriptor"):
            nn.load_checkpoint(bad)


# ---------------------------------------------------------------------------
# Architecture validation
# ---------------------------------------------------------------------------


def test_architecture_rejects_incompatible_chain():
    with pytest.raises(InputError):
        nn.Architecture((nn.Dense(4, 5), nn.Dense(6, 3)), (4,), 3)
    with pytest.raises(InputError):
        nn.Architecture((nn.Dense(4, 5),), (4,), 3)  # output dim != n_classes


SIZE_CASES = [
    ((nn.Conv2d(1, 2, kernel=0), nn.Dense(2 * 7 * 7, 3)), (1, 6, 6), "layer 0: conv2d kernel"),
    ((nn.Conv2d(1, 0, kernel=3), nn.Dense(1, 3)), (1, 6, 6), "layer 0: conv2d out_ch"),
    ((nn.Conv2d(0, 2, kernel=3), nn.Dense(2 * 4 * 4, 3)), (0, 6, 6), "layer 0: conv2d in_ch"),
    ((nn.Conv2d(1, 2, kernel=3), nn.MaxPool2d(0), nn.Dense(2 * 4 * 4, 3)), (1, 6, 6),
     "layer 1: maxpool kernel"),
    ((nn.Dense(4, 0), nn.Dense(0, 3)), (4,), "layer 0: dense out_dim"),
    ((nn.Dense(0, 3),), (0,), "layer 0: dense in_dim"),
]


# The ids are fixed, so that removing a case renames none of the others.
@pytest.mark.parametrize("layers, input_shape, message", SIZE_CASES, ids=[
    f"layers{i}-input_shape{i}-{case[2]}" for i, case in enumerate(SIZE_CASES, start=1)])
def test_architecture_rejects_sizes_below_one(layers, input_shape, message):
    with pytest.raises(InputError, match=message):
        nn.Architecture(layers, input_shape, 3)


def test_checkpoint_with_zero_kernel_is_format_error(tmp_path):
    arch = small_cnn()
    desc = json.loads(arch.to_json())
    assert desc["layers"][2]["kind"] == "maxpool"
    desc["layers"][2]["kernel"] = 0
    text = json.dumps(desc).encode()
    path = tmp_path / "zero.ppam"
    path.write_bytes(b"PPAM" + (2).to_bytes(2, "little") + len(text).to_bytes(4, "little")
                     + text + nn.init_params(arch, 0).values.astype("<f4").tobytes())
    with pytest.raises(FormatError, match="layer 2: maxpool kernel"):
        nn.load_checkpoint(path)


def test_checkpoint_with_conv_stride_is_format_error(tmp_path):
    """Convolution is stride-1 only, so a conv descriptor holds in_ch, out_ch
    and kernel, and one that names a stride is rejected."""
    arch = small_cnn()
    desc = json.loads(arch.to_json())
    assert desc["layers"][0] == {"kind": "conv2d", "in_ch": 1, "out_ch": 3, "kernel": 3}
    desc["layers"][0]["stride"] = 1
    text = json.dumps(desc).encode()
    path = tmp_path / "stride.ppam"
    path.write_bytes(b"PPAM" + (2).to_bytes(2, "little") + len(text).to_bytes(4, "little")
                     + text + nn.init_params(arch, 0).values.astype("<f4").tobytes())
    with pytest.raises(FormatError, match="bad architecture descriptor"):
        nn.load_checkpoint(path)


def test_feature_layer_defaults():
    assert small_cnn().feature_index == 3  # last conv layer
    deep = nn.Architecture(
        (nn.Dense(4, 8), nn.Relu(), nn.Dense(8, 6), nn.Relu(), nn.Dense(6, 3)), (4,), 3
    )
    assert deep.feature_index == 2  # last hidden dense
    single = nn.Architecture((nn.Dense(4, 3),), (4,), 3)
    assert single.feature_index == 0
    with pytest.raises(InputError, match="no parameterised layer"):
        nn.Architecture((nn.Relu(),), (3,), 3)


def test_architecture_json_round_trip():
    arch = small_cnn()
    assert nn.Architecture.from_json(arch.to_json()) == arch


# ---------------------------------------------------------------------------
# Parameter layout, against references written out here
# ---------------------------------------------------------------------------

# The default MLP (dim 16, hidden [32], 10 classes) and the 6x6 benchmark CNN:
# (offset, length) of each parameterised layer by index, and the feature index.
LAYOUT_CASES = [
    ({}, {0: (0, 544), 2: (544, 330)}, 0),
    ({"model": {"kind": "cnn"}, "dataset": {"dim": 36}},
     {0: (0, 80), 2: (80, 1168), 5: (1248, 170)}, 2),
]


def reference_arch(overrides):
    return harness.validate_config(json.dumps(overrides)).arch


def glorot_reference(arch, seed):
    """Glorot-uniform W and zero b, drawn layer by layer from the layer specs."""
    rng = np.random.default_rng(derive_seed(seed, "init"))
    parts = []
    for layer in arch.layers:
        if isinstance(layer, nn.Dense):
            fan_in, fan_out = layer.in_dim, layer.out_dim
            w_size, b_size = layer.in_dim * layer.out_dim, layer.out_dim
        elif isinstance(layer, nn.Conv2d):
            area = layer.kernel * layer.kernel
            fan_in, fan_out = layer.in_ch * area, layer.out_ch * area
            w_size, b_size = layer.out_ch * layer.in_ch * area, layer.out_ch
        else:
            continue
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-bound, bound, w_size), np.zeros(b_size)]
    return np.concatenate(parts)


# The ids name each case's feature layer as index:kind.
@pytest.mark.parametrize("overrides, layout, feature_index", LAYOUT_CASES,
                         ids=["overrides0-layout0-0:dense", "overrides1-layout1-2:conv2d"])
def test_layout_and_feature_layer_match_written_references(overrides, layout, feature_index):
    arch = reference_arch(overrides)
    assert {i: (off, w_size + b_size)
            for i, (off, _, w_size, b_size) in arch.param_slots.items()} == layout
    assert arch.n_params == sum(length for _, length in layout.values())
    assert arch.feature_index == feature_index
    for index in layout:
        layer = arch.layers[index]
        W, b = nn._layer_params(nn.zeros_like_params(arch), arch, index)
        if isinstance(layer, nn.Dense):
            shapes = (layer.in_dim, layer.out_dim), (layer.out_dim,)
        else:
            shapes = (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel), (layer.out_ch,)
        assert (W.shape, b.shape) == shapes
    with pytest.raises(InternalError):
        nn._layer_params(nn.zeros_like_params(arch), arch, 1)  # a relu


@pytest.mark.parametrize("overrides", [case[0] for case in LAYOUT_CASES])
@pytest.mark.parametrize("seed", [0, 7])
def test_init_params_equals_layerwise_glorot_reference(overrides, seed):
    arch = reference_arch(overrides)
    assert np.array_equal(nn.init_params(arch, seed).values, glorot_reference(arch, seed))
