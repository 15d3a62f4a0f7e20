"""Engine tests: forward/backward oracles, SGD variants, determinism, checkpoints."""

import json
import math

import numpy as np
import pytest

from fedprof import harness, nn
from fedprof.errors import FormatError, InputError, InternalError
from fedprof.seeding import derive_seed


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
        lp = nn.forward(nn.ParamVector(plus, params.layout), arch, X, y)[1]
        lm = nn.forward(nn.ParamVector(minus, params.layout), arch, X, y)[1]
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


def test_forward_is_pure():
    arch = small_cnn()
    params = nn.init_params(arch, seed=3)
    X, y = rand_batch(arch, 4, seed=2)
    before = params.values.copy()
    r1 = nn.forward(params, arch, X, y)
    r2 = nn.forward(params, arch, X, y)
    assert np.array_equal(params.values, before)
    assert np.array_equal(r1[0], r2[0]) and r1[1] == r2[1]


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
            (nn.Conv2d(1, ch, kernel=3, stride=1), nn.Relu(), nn.MaxPool2d(2),
             nn.Dense(ch * 3 * 3, n_classes)),
            (1, 8, 8), n_classes,
        )
    params = nn.init_params(arch, seed=seed)
    X, y = rand_batch(arch, 5, seed=200 + seed)
    grad = nn.backward(params, arch, X, y)
    fd = fd_gradient(params, arch, X, y)
    assert_close_rel(grad.values, fd, tol=1e-4)


def test_conv_stride_two_matches_finite_differences():
    arch = nn.Architecture(
        (nn.Conv2d(2, 3, kernel=3, stride=2), nn.Relu(), nn.Dense(3 * 3 * 3, 3)),
        (2, 7, 7), 3,
    )
    params = nn.init_params(arch, seed=11)
    X, y = rand_batch(arch, 3, seed=12)
    assert_close_rel(nn.backward(params, arch, X, y).values,
                     fd_gradient(params, arch, X, y), tol=1e-4)


# ---------------------------------------------------------------------------
# SGD steps
# ---------------------------------------------------------------------------


def test_sgd_step_arithmetic_and_identity():
    layout = {"0:dense": (0, 1)}
    p = nn.ParamVector(np.array([2.0]), layout)
    g = nn.ParamVector(np.array([1.0]), layout)
    assert nn.sgd_step(p, g, 0.5).values[0] == 1.5
    zero = nn.ParamVector(np.array([0.0]), layout)
    assert np.array_equal(nn.sgd_step(p, zero, 0.5).values, p.values)


def test_sgd_step_layout_mismatch_is_internal_error():
    p = nn.ParamVector(np.array([2.0]), {"0:dense": (0, 1)})
    g = nn.ParamVector(np.array([1.0, 1.0]), {"1:dense": (0, 2)})
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
    naive = nn.sgd_step(params, nn.ParamVector(2.0 * g1.values, g1.layout), lr)
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


def test_train_zero_epochs_is_identity():
    arch = mlp(2, 4, 2)
    params = nn.init_params(arch, seed=0)
    X, y = blobs_2class()
    cfg = nn.TrainConfig(learning_rate=0.1, epochs=0, batch_size=8, seed=1)
    out = nn.train(params, arch, X, y, cfg)
    assert np.array_equal(out.values, params.values)


def test_train_separable_blobs_to_perfect_accuracy():
    arch = mlp(2, 8, 2)
    params = nn.init_params(arch, seed=0)
    X, y = blobs_2class()
    cfg = nn.TrainConfig(learning_rate=0.2, epochs=50, batch_size=16, seed=1)
    out = nn.train(params, arch, X, y, cfg)
    assert nn.accuracy(out, arch, X, y) == 1.0


def test_train_same_seed_is_bit_identical():
    arch = mlp(2, 8, 2)
    params = nn.init_params(arch, seed=0)
    X, y = blobs_2class()
    cfg = nn.TrainConfig(learning_rate=0.1, epochs=3, batch_size=8,
                         dropout_enabled=True, seed=42)
    arch_do = nn.Architecture(
        (nn.Dense(2, 8), nn.Relu(), nn.Dropout(0.5), nn.Dense(8, 2)), (2,), 2
    )
    p0 = nn.init_params(arch_do, seed=0)
    a = nn.train(p0, arch_do, X, y, cfg)
    b = nn.train(p0, arch_do, X, y, cfg)
    assert np.array_equal(a.values, b.values)


def test_train_rejects_empty_and_oversized_batch():
    arch = mlp(2, 4, 2)
    params = nn.init_params(arch, seed=0)
    cfg = nn.TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, seed=0)
    with pytest.raises(InputError):
        nn.train(params, arch, np.zeros((0, 2)), np.zeros(0, dtype=int), cfg)
    X, y = blobs_2class(n_per_class=2)
    with pytest.raises(InputError):
        nn.train(params, arch, X, y, nn.TrainConfig(0.1, 1, batch_size=64, seed=0))


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
    # Same weights under the dropout-free layer stack (layer ids differ only).
    stripped = nn.zeros_like_params(plain)
    stripped.values[:] = params.values
    without = nn.predict_logits(stripped, plain, X)
    assert np.array_equal(with_do, without)


# ---------------------------------------------------------------------------
# DP-SGD
# ---------------------------------------------------------------------------


def test_dp_step_without_noise_or_clipping_equals_sgd_on_mean():
    layout = {"0:dense": (0, 3)}
    p = nn.ParamVector(np.array([1.0, 2.0, 3.0]), layout)
    gs = np.stack([np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.1, 0.0])])
    rng = np.random.default_rng(0)
    got = nn.dp_sgd_step(p, gs, clip_norm=10.0, noise_multiplier=0.0, lr=0.5, rng=rng)
    mean = nn.ParamVector(np.array([0.05, 0.05, 0.0]), layout)
    want = nn.sgd_step(p, mean, 0.5)
    assert np.array_equal(got.values, want.values)


def test_dp_step_clips_large_gradient_to_clip_norm():
    layout = {"0:dense": (0, 2)}
    p = nn.ParamVector(np.zeros(2), layout)
    g = np.array([6.0, 8.0])  # norm 10
    rng = np.random.default_rng(0)
    got = nn.dp_sgd_step(p, np.stack([g]), clip_norm=1.0, noise_multiplier=0.0, lr=1.0, rng=rng)
    assert np.allclose(got.values, -np.array([0.6, 0.8]))


def test_clipping_never_increases_norm():
    layout = {"0:dense": (0, 4)}
    rng = np.random.default_rng(5)
    p = nn.ParamVector(np.zeros(4), layout)
    for _ in range(20):
        g = rng.standard_normal(4) * rng.uniform(0.1, 5.0)
        stepped = nn.dp_sgd_step(p, np.stack([g]), clip_norm=1.0, noise_multiplier=0.0,
                                 lr=1.0, rng=np.random.default_rng(0))
        assert np.linalg.norm(stepped.values) <= min(1.0, np.linalg.norm(g)) + 1e-12


def test_dp_noise_std_monte_carlo():
    layout = {"0:dense": (0, 4)}
    p = nn.ParamVector(np.zeros(4), layout)
    zero = np.zeros(4)
    batch = np.stack([zero, zero])  # batch_size 2 -> std = 1 * 1 / 2
    rng = np.random.default_rng(123)
    draws = np.array([
        nn.dp_sgd_step(p, batch, clip_norm=1.0, noise_multiplier=1.0, lr=1.0, rng=rng).values
        for _ in range(10_000)
    ])
    std = draws.std()
    assert abs(std - 0.5) / 0.5 < 0.05


def test_dp_step_rejects_empty_gradient_list():
    p = nn.ParamVector(np.zeros(2), {"0:dense": (0, 2)})
    with pytest.raises(InputError):
        nn.dp_sgd_step(p, np.zeros((0, 2)), 1.0, 0.0, 0.1, np.random.default_rng(0))


def test_dp_step_rejects_wrong_width_as_internal_error():
    p = nn.ParamVector(np.zeros(2), {"0:dense": (0, 2)})
    with pytest.raises(InternalError):
        nn.dp_sgd_step(p, np.zeros((3, 5)), 1.0, 0.0, 0.1, np.random.default_rng(0))


# The stacks harness.build_model_arch builds, with their one Dropout layer active.
DP_ARCH_CASES = [
    {"defense": {"dropout_rate": 0.5}},
    {"model": {"kind": "cnn"}, "dataset": {"dim": 36}, "defense": {"dropout_rate": 0.5}},
]


def perturbed_params(arch, seed):
    """Glorot init plus small noise on every parameter, so biases are non-zero
    and ReLU and max-pool patterns vary across samples."""
    params = nn.init_params(arch, seed)
    return nn.ParamVector(
        params.values + 0.05 * np.random.default_rng(seed).standard_normal(arch.n_params),
        params.layout)


@pytest.mark.parametrize("overrides", DP_ARCH_CASES)
@pytest.mark.parametrize("train_mode", [False, True])
def test_per_example_rows_equal_one_row_batches(overrides, train_mode):
    arch = reference_arch(overrides)
    params = perturbed_params(arch, 3)
    X, y = rand_batch(arch, 9, seed=4)
    rng = np.random.default_rng(11)
    loss, rows = nn._loss_and_grad(params, arch, X, y, train_mode=train_mode, rng=rng,
                                   per_example=True)
    ref_rng = np.random.default_rng(11)
    want = np.stack([
        nn._loss_and_grad(params, arch, X[i:i + 1], y[i:i + 1], train_mode=train_mode,
                          rng=ref_rng)[1].values
        for i in range(len(X))
    ])
    assert rows.shape == (len(X), arch.n_params)
    assert np.max(np.abs(rows - want)) <= 1e-12
    # Both walks drew the same dropout stream; without dropout, the rows
    # average to the batch gradient.
    assert rng.random() == ref_rng.random()
    if not train_mode:
        assert loss == nn._loss_and_grad(params, arch, X, y)[0]
        assert np.max(np.abs(rows.mean(axis=0) - nn.backward(params, arch, X, y).values)) <= 1e-12


def dp_train_reference(params, arch, X, y, cfg):
    """nn.train with cfg.dp, as one one-row backward per sample and a
    clipping loop over the batch."""
    rng = np.random.default_rng(derive_seed(cfg.seed, "train"))
    values = params.values.copy()
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            mean = np.zeros_like(values)
            for i in idx:
                g = nn._loss_and_grad(nn.ParamVector(values, params.layout), arch,
                                      X[i:i + 1], y[i:i + 1],
                                      train_mode=cfg.dropout_enabled, rng=rng)[1].values
                norm = np.linalg.norm(g)
                mean += g * (min(1.0, cfg.dp.clip_norm / norm) if norm > 0 else 1.0)
            mean /= len(idx)
            mean += rng.normal(0.0, cfg.dp.noise_multiplier * cfg.dp.clip_norm / len(idx),
                               size=mean.shape)
            values = values - cfg.learning_rate * mean
    return values


@pytest.mark.parametrize("overrides", DP_ARCH_CASES)
@pytest.mark.parametrize("dropout_enabled", [False, True])
def test_dp_train_equals_per_sample_reference(overrides, dropout_enabled):
    arch = reference_arch(overrides)
    params = perturbed_params(arch, 5)
    X, y = rand_batch(arch, 20, seed=6)  # batches of 8, 8 and 4
    # clip_norm 3.5 clips some rows and leaves others whole.
    cfg = nn.TrainConfig(0.1, epochs=2, batch_size=8, dropout_enabled=dropout_enabled,
                         dp=nn.DpConfig(clip_norm=3.5, noise_multiplier=0.7), seed=2)
    got = nn.train(params, arch, X, y, cfg).values
    assert np.max(np.abs(got - dp_train_reference(params, arch, X, y, cfg))) <= 1e-12


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
    assert loaded.layout == params.layout
    # float32 storage: round-trip through f4 must be exact
    assert np.array_equal(loaded.values, params.values.astype("<f4").astype(np.float64))


def test_checkpoint_header_layout(tmp_path):
    arch = mlp(2, 3, 2)
    params = nn.init_params(arch, seed=0)
    path = tmp_path / "model.ppam"
    nn.save_checkpoint(path, params, arch)
    blob = path.read_bytes()
    assert blob[:4] == b"PPAM"
    assert int.from_bytes(blob[4:6], "little") == 1
    desc_len = int.from_bytes(blob[6:10], "little")
    desc = blob[10:10 + desc_len].decode("utf-8")
    assert nn.Architecture.from_json(desc) == arch
    assert len(blob) == 10 + desc_len + 4 * params.values.size


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
        bad.write_bytes(b"PPAM" + (1).to_bytes(2, "little") + len(text).to_bytes(4, "little")
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


def test_feature_layer_defaults():
    cnn = small_cnn()
    marked = [l for l in cnn.layers if getattr(l, "feature_layer", False)]
    assert len(marked) == 1 and isinstance(marked[0], nn.Conv2d)
    assert marked[0] is cnn.layers[3]  # last conv layer
    deep = nn.Architecture(
        (nn.Dense(4, 8), nn.Relu(), nn.Dense(8, 6), nn.Relu(), nn.Dense(6, 3)), (4,), 3
    )
    assert getattr(deep.layers[2], "feature_layer", False)  # last hidden dense
    single = nn.Architecture((nn.Dense(4, 3),), (4,), 3)
    assert single.layers[0].feature_layer


def test_architecture_json_round_trip():
    arch = small_cnn()
    assert nn.Architecture.from_json(arch.to_json()) == arch


# ---------------------------------------------------------------------------
# Parameter layout, against references written out here
# ---------------------------------------------------------------------------

# The default MLP (dim 16, hidden [32], 10 classes) and the 6x6 benchmark CNN.
LAYOUT_CASES = [
    ({}, {"0:dense": (0, 544), "3:dense": (544, 330)}, "0:dense"),
    ({"model": {"kind": "cnn"}, "dataset": {"dim": 36}},
     {"0:conv2d": (0, 80), "2:conv2d": (80, 1168), "6:dense": (1248, 170)}, "2:conv2d"),
]


def reference_arch(overrides):
    cfg = harness.validate_config(json.dumps(overrides))
    return harness.build_model_arch(cfg, 10, (cfg["dataset"]["dim"],))


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


@pytest.mark.parametrize("overrides, layout, feature_id", LAYOUT_CASES)
def test_layout_and_feature_layer_match_written_references(overrides, layout, feature_id):
    arch = reference_arch(overrides)
    assert nn.zeros_like_params(arch).layout == layout
    assert arch.feature_id == feature_id
    for layer_id in layout:
        index = int(layer_id.split(":")[0])
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
