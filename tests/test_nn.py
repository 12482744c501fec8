"""Tests for layers, embeddings, gradients, loss, and the optimizer."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mlgp.conformal import embed_point, lift, point_normalize, sphere_from_center_radius
from mlgp.experiment import fit, loss_epochs
from mlgp.models import MODEL_KINDS, Model, accuracy, build_model, predict
from mlgp.nn import (
    EPS,
    EVAL_BLOCK,
    EXP_FLOOR,
    Adam,
    Layer,
    Workspace,
    backward,
    embed_input,
    eval_blocks,
    forward,
    softmax,
    softmax_cross_entropy,
)
from mlgp.tetris import make_dataset


def lift_points(pts):
    """Point-wise lift of a (k, 3) shape: k concatenated 5-blocks."""
    return lift(np.ravel(pts), 3)


def test_pointwise_lift_examples():
    assert np.array_equal(lift_points([[0.0, 0.0, 0.0]]), [0, 0, 0, -1, 0])
    got = lift_points([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(got, [0, 0, 0, -1, 0, 1, 0, 0, -1, -0.5])
    # a 4-point shape lifts to length 20
    rng = np.random.default_rng(0)
    shape = rng.uniform(-3, 3, (4, 3))
    v = lift_points(shape)
    assert v.shape == (20,)
    # each 5-block must match the single-point lift (sum orderings may
    # differ in the last bit)
    for i in range(4):
        assert np.allclose(v[5 * i : 5 * i + 5], embed_point(shape[i]), atol=1e-14)


def test_embed_input_batch_and_validation():
    rng = np.random.default_rng(1)
    batch = rng.uniform(-3, 3, (6, 4, 3))
    model = build_model("mlgp")
    # feature-major, (in_dim, batch): column c is shape c's lift
    v = embed_input(model, batch)
    assert v.shape == (20, 6)
    for c in range(6):
        assert np.array_equal(v[:, c], lift_points(batch[c]))
    with pytest.raises(ValueError, match="layer expects 12 inputs, got 2"):
        embed_input(model, np.zeros((4, 2)))


def test_every_entry_rejects_non_finite_points():
    # fit, forward, predict and accuracy all lift through embed_input, which
    # names the fault instead of training or scoring NaN
    data = make_dataset("main", 16, seed=66)
    for kind, bad in zip(MODEL_KINDS, (np.nan, np.inf, -np.inf)):
        model = build_model(kind, np.random.default_rng(67))
        points = data.points.copy()
        points[3, 2, 1] = bad
        calls = (lambda: fit(model, points, data.labels, 2),
                 lambda: forward(model, points),
                 lambda: predict(model, points),
                 lambda: accuracy(model, points, data.labels))
        for call in calls:
            with pytest.raises(ValueError, match="^points must be finite$"):
                call()


def test_layer_construction():
    rng = np.random.default_rng(2)
    model = build_model("mlp", rng)
    layer = model.layers[0]
    bound = 1.0 / np.sqrt(12)
    # weights and, in the last column, biases: the lift's ones row is not a fan-in
    assert np.all(np.abs(layer.w) <= bound)
    assert layer.w.shape == (6, 13)
    # theta is the layers' weights laid end to end, as views
    second = model.layers[1]
    assert np.array_equal(model.theta, np.concatenate([layer.w.ravel(), second.w.ravel()]))
    model.theta[12] = 7.0
    assert layer.w[0, -1] == 7.0
    second.w[0, 0] = -7.0
    assert model.theta[13 * 6] == -7.0
    # no rng -> zero parameters
    zero = build_model("mlgp").layers[0]
    assert not zero.w.any()


def test_mlp_draw_puts_each_weight_and_bias_in_its_place():
    # one uniform draw per layer, weights then biases, in +-1/sqrt(fan-in) as
    # before the biases were folded in: each value keeps its role
    for seed in (2, 40):
        model = build_model("mlp", np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for layer, (fan_in, out) in zip(model.layers, ((12, 6), (6, 8))):
            bound = 1.0 / np.sqrt(fan_in)
            draw = rng.uniform(-bound, bound, out * fan_in + out)
            assert np.array_equal(layer.w[:, :-1], draw[: out * fan_in].reshape(out, fan_in))
            assert np.array_equal(layer.w[:, -1], draw[out * fan_in :])
    # mlhp and mlgp draw their weights as before, row-major in +-1/sqrt(in_dim)
    for kind in ("mlhp", "mlgp"):
        model, rng = build_model(kind, np.random.default_rng(3)), np.random.default_rng(3)
        for layer in model.layers:
            bound = 1.0 / np.sqrt(layer.in_dim)
            assert np.array_equal(layer.w.ravel(), rng.uniform(-bound, bound, layer.w.size))


def test_geometric_neuron_decomposes_into_spheres():
    # unit output = sum over blocks of gamma_i * (lifted point . sphere_i)
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.standard_normal(20)
        w[4::5] += np.sign(w[4::5]) * 0.1  # keep scale factors nonzero
        pts = rng.uniform(-3, 3, (4, 3))
        z = float(w @ lift_points(pts))
        total = 0.0
        for i in range(4):
            s, gamma = point_normalize(w[5 * i : 5 * i + 5])
            total += gamma * float(embed_point(pts[i]) @ s)
        assert abs(z - total) <= 1e-12 * (1.0 + abs(z))


def test_geometric_unit_from_planted_spheres():
    # weights built from known spheres reproduce the incidence sum
    rng = np.random.default_rng(4)
    for _ in range(50):
        centers = rng.uniform(-2, 2, (4, 3))
        radii = rng.uniform(0.1, 2.0, 4)
        gammas = rng.uniform(-2, 2, 4)
        w = np.concatenate(
            [g * sphere_from_center_radius(c, r) for g, c, r in zip(gammas, centers, radii)]
        )
        pts = rng.uniform(-3, 3, (4, 3))
        model = build_model("mlgp")
        model.layers[0].w[0] = w
        _, trace = forward(model, pts[None])
        want = sum(
            g * (-0.5 * np.sum((p - c) ** 2) + 0.5 * r * r)
            for g, c, r, p in zip(gammas, centers, radii, pts)
        )
        # the first layer's pre-activations are its weights times its traced
        # (in_dim, batch) input
        got = float((model.layers[0].w @ trace[0])[0, 0])
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_forward_zero_weights_and_shapes():
    model = build_model("mlgp")
    pts = np.random.default_rng(5).uniform(-3, 3, (1, 4, 3))
    logits, trace = forward(model, pts)
    assert np.array_equal(logits, np.zeros((1, 8)))
    assert len(trace) == 2
    # the trace is each layer's feature-major (in_dim, batch) input
    assert trace[0].shape == (20, 1)
    assert trace[1].shape == (6, 1)
    # one bare (4, 3) shape is not a batch; nor is a (5, 3) one, for any kind
    for kind in MODEL_KINDS:
        for bad in (pts[0], np.zeros((5, 3))):
            with pytest.raises(ValueError, match="expects 12 inputs"):
                forward(build_model(kind), bad)


def test_forward_matches_direct_matrix_evaluation():
    # identity-activation chain is linear in the lifted features
    rng = np.random.default_rng(6)
    model = build_model("mlgp", rng)
    pts = rng.uniform(-3, 3, (4, 3))
    logits, _ = forward(model, pts[None])
    first, second = model.layers
    h = first.w @ lift_points(pts)
    want = second.w @ embed_point(h)
    assert np.allclose(logits[0], want, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(7)
    for kind in ("mlp", "mlhp", "mlgp"):
        model = build_model(kind, rng)
        batch = rng.uniform(-3, 3, (5, 4, 3))
        logits, _ = forward(model, batch)
        for i in range(5):
            single, _ = forward(model, batch[i : i + 1])
            assert np.allclose(logits[i], single[0], atol=1e-12)


def test_forward_with_precomputed_embedding():
    rng = np.random.default_rng(8)
    model = build_model("mlgp", rng)
    batch = rng.uniform(-3, 3, (5, 4, 3))
    first = embed_input(model, batch)
    a, trace = forward(model, batch)
    b, _ = forward(model, batch, first_embedded=first)
    assert np.array_equal(a, b)
    # the cached lift is the first traced input, in the same layout
    assert np.array_equal(first, trace[0]) and first.strides == trace[0].strides


def test_forward_accepts_a_flattened_batch():
    # any (batch, ...) input of 12 values per shape is a batch of shapes
    rng = np.random.default_rng(12)
    batch = rng.uniform(-3, 3, (5, 4, 3))
    for kind in MODEL_KINDS:
        model = build_model(kind, rng)
        assert np.array_equal(forward(model, batch.reshape(5, 12))[0], forward(model, batch)[0])


def test_evaluation_blocks_reproduce_the_traced_forward():
    # around one and two blocks, the narrow widths of NumPy's matrix-vector
    # path, and 20000 shapes, past OpenBLAS's small-matrix limit
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, (20000, 4, 3))
    labels = rng.integers(0, 8, 20000)
    for kind in MODEL_KINDS:
        model = build_model(kind, rng)
        for n in (1, 2, 7, 511, 1023, 1024, 1025, 2049, 4099, 20000):
            blocks = eval_blocks(n)
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert max(b.stop - b.start for b in blocks) <= EVAL_BLOCK
            want, _ = forward(model, pts[:n])
            first = embed_input(model, pts[:n])
            # block by block, from the points or from their first-layer lift
            by_points = [forward(model, pts[c])[0] for c in blocks]
            by_lift = [forward(model, None, first[:, c])[0] for c in blocks]
            for got in (by_points, by_lift):
                assert np.array_equal(np.concatenate(got), want), (kind, n)
            got_labels, probs = predict(model, pts[:n])
            assert np.array_equal(got_labels, np.argmax(want, axis=1)), (kind, n)
            assert np.array_equal(probs, softmax(want)), (kind, n)
            hit_count = np.count_nonzero(np.argmax(want, axis=1) == labels[:n])
            assert accuracy(model, pts[:n], labels[:n]) == hit_count / n, (kind, n)


def test_dense_forward_matches_manual():
    rng = np.random.default_rng(9)
    model = build_model("mlp", rng)
    first, second = model.layers
    pts = rng.uniform(-3, 3, (4, 3))
    x = pts.reshape(-1)
    h = np.maximum(first.w[:, :-1] @ x + first.w[:, -1], 0.0)
    want = second.w[:, :-1] @ h + second.w[:, -1]
    logits, _ = forward(model, pts[None])
    assert np.allclose(logits[0], want, atol=1e-12)


def test_activations():
    # mlp's hidden ReLU passes positive pre-activations, zeroes the rest,
    # and its subgradient at exactly 0 is 0; the output layer is the identity
    model = build_model("mlp", np.random.default_rng(26))
    first, second = model.layers
    first.w[:] = 0.0
    first.w[:, -1] = [-1.0, 0.0, 2.0, 0.0, 0.5, -0.0]  # the biases
    pts = np.random.default_rng(27).uniform(-3, 3, (3, 4, 3))
    logits, trace = forward(model, pts)
    hidden = np.array([0.0, 0.0, 2.0, 0.0, 0.5, 0.0, 1.0])  # and the ones row
    assert np.array_equal(trace[1], np.tile(hidden[:, None], 3))
    # self-consistency: the logits are the folded product of the trace
    assert np.array_equal(logits, (second.w @ trace[1]).T)
    # W h + b adds the bias after BLAS sums W h; the folded product sums all 7 terms its own way
    want = second.w[:, :-1] @ trace[1][:-1] + second.w[:, -1:]
    assert np.allclose(logits, want.T, rtol=1e-15, atol=1e-15)
    grads = Model("mlp", backward(model, trace, np.ones((3, 8)))).layers
    live = first.w[:, -1] > 0.0
    assert not grads[0].w[~live].any()
    assert np.allclose(grads[0].w[live, -1], 3.0 * second.w[:, :-1].sum(axis=0)[live], rtol=1e-12)


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = softmax(rng.uniform(-20, 20, (1, 8)))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12
    # batch form normalizes each row
    p = softmax(rng.uniform(-5, 5, (7, 8)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_examples():
    loss, d = softmax_cross_entropy(np.zeros((1, 8)), [3])
    assert abs(loss - np.log(8)) <= 1e-12
    assert abs(d.sum()) <= 1e-12
    # a huge correct-class margin drives the loss to zero
    z = np.zeros((1, 8))
    z[0, 2] = 100.0
    loss, _ = softmax_cross_entropy(z, [2])
    assert loss <= 1e-12
    # extreme logits stay finite
    extreme = np.array([[1e4, 0, 0, 0, 0, 0, 0, -1e4]] * 2)
    for labels in ([0, 0], [7, 3]):
        loss, d = softmax_cross_entropy(extreme, labels)
        assert np.isfinite(loss) and np.all(np.isfinite(d))
    # a label outside 0..7, not an integer, or a one-hot row is an error, not a
    # wrapped index, with a workspace or without one
    for bad in ([0, 8], [-1, 0], [2.5, 0], np.eye(8)[[0, 1]]):
        for ws in (None, Workspace(build_model("mlp"), 2)):
            with pytest.raises(ValueError, match="integers in 0..7"):
                softmax_cross_entropy(np.zeros((2, 8)), bad, ws)


@pytest.mark.parametrize("value", [True, False])
def test_cross_entropy_rejects_a_label_count_unlike_the_batch(value):
    # one label for three shapes must not broadcast as label 0 for every shape
    for ws in (None, Workspace(build_model("mlgp"), 3)):
        for labels in ([0], [0, 1, 2, 3]):
            with pytest.raises(ValueError, match=f"got {len(labels)} labels for 3 shapes"):
                softmax_cross_entropy(np.zeros((3, 8)), labels, ws, value)


def test_cross_entropy_batch_matches_singles():
    rng = np.random.default_rng(11)
    logits = rng.uniform(-3, 3, (6, 8))
    labels = rng.integers(0, 8, 6)
    loss, d = softmax_cross_entropy(logits, labels)
    singles = [softmax_cross_entropy(logits[i : i + 1], labels[i : i + 1]) for i in range(6)]
    assert abs(loss - np.mean([s[0] for s in singles])) <= 1e-12
    for i in range(6):
        assert np.allclose(d[i], singles[i][1][0] / 6.0, atol=1e-12)


def test_cross_entropy_with_far_spread_logits_matches_an_exact_reference():
    # columns spread 10^3 to 10^4 apart: shifted logits from 0 down through
    # exp's subnormal range (-708 to -745) to far below EXP_FLOOR
    rng = np.random.default_rng(28)
    n = 6
    offsets = np.array([0.0, -1.3, -40.0, -650.0, -720.0, -740.0, -1000.0, 0.0])
    z = np.empty((n, 8))
    for i in range(n):
        offsets[-1] = -rng.uniform(1e3, 1e4)
        z[i] = rng.uniform(-5, 5) + rng.permutation(offsets)
    # labels at each column's top logit, a runner-up and a confidently wrong one
    ranked = np.argsort(-z, axis=1)
    labels = np.array([ranked[i, (0, 1, 7)[i % 3]] for i in range(n)])
    loss, d = softmax_cross_entropy(z, labels)

    ref_terms, ref_grad = [], np.empty((n, 8))
    for i in range(n):
        shifted = [float(v) - float(z[i].max()) for v in z[i]]
        s = math.fsum(math.exp(v) for v in shifted)
        ref_terms.append(math.log(s) - shifted[labels[i]])
        ref_grad[i] = [(math.exp(v) / s - (k == labels[i])) / n for k, v in enumerate(shifted)]
    ref_loss = math.fsum(ref_terms) / n
    assert abs(loss - ref_loss) <= 1e-14 * abs(ref_loss)
    # the floor adds at most exp(EXP_FLOOR) / n, far under rounding at scale 1/n
    assert np.all(np.abs(d - ref_grad) <= 1e-15 / n + 1e-14 * np.abs(ref_grad))
    # entries below the floor keep exp(EXP_FLOOR) / (n * s), with s <= 8
    floored = z - z.max(axis=1, keepdims=True) < EXP_FLOOR
    assert floored.any() and np.all(np.abs(d[floored]) >= math.exp(EXP_FLOOR) / (8 * n))
    # and no entry is subnormal, the results that take exp's slow path
    assert not np.any((d != 0.0) & (np.abs(d) < np.finfo(float).tiny))


def test_nan_logits_give_a_nan_loss_gradient_and_softmax():
    # a diverged run must stay visible: the floor must not turn NaN into a number
    logits = np.random.default_rng(29).uniform(-3, 3, (3, 8))
    logits[1, 4] = np.nan
    loss, d = softmax_cross_entropy(logits, [0, 1, 2])
    assert math.isnan(loss)
    assert np.all(np.isnan(d[1])) and np.all(np.isfinite(d[[0, 2]]))
    p = softmax(logits)
    assert np.all(np.isnan(p[1])) and np.all(np.isfinite(p[[0, 2]]))


def finite_difference_check(kind, seed, calls, batch=4, h=1e-6, tol=1e-5):
    """The gradient against central differences of the loss, run ``calls`` times.

    ``calls`` is 1 without a workspace, or 2 with one workspace for both calls
    and every loss evaluation, so the second call, one Adam step on, reads
    what the first left.
    """
    rng = np.random.default_rng(seed)
    model = build_model(kind, rng)
    pts = rng.uniform(-3, 3, (batch, 4, 3))
    labels = rng.integers(0, 8, batch)
    ws = None if calls == 1 else Workspace(model, batch)
    opt = Adam(model.theta, 0.05)

    def loss_of():
        logits, _ = forward(model, pts, workspace=ws)
        return softmax_cross_entropy(logits, labels, ws)[0]

    for _ in range(calls):
        logits, trace = forward(model, pts, workspace=ws)
        _, dlogits = softmax_cross_entropy(logits, labels, ws)
        grad = backward(model, trace, dlogits, ws)
        assert grad.shape == model.theta.shape
        check_gradient(model, grad, loss_of, h, tol)
        opt.step(grad)


def check_gradient(model, grad, loss_of, h, tol):
    """Every entry of ``grad`` against central differences of ``loss_of()``."""
    theta = model.theta
    worst = 0.0
    for idx in range(theta.size):
        old = theta[idx]
        theta[idx] = old + h
        up = loss_of()
        theta[idx] = old - h
        down = loss_of()
        theta[idx] = old
        num = (up - down) / (2 * h)
        ana = grad[idx]
        scale = max(abs(num), abs(ana))
        if scale > 1e-8:
            worst = max(worst, abs(num - ana) / scale)
    assert worst < tol, f"{model.kind}: relative error {worst}"


# 1: no workspace; 2: one workspace reused for two calls
GRADIENT_CALLS = pytest.mark.parametrize("calls", [1, 2], ids=["fresh", "workspace"])


@GRADIENT_CALLS
def test_gradients_match_finite_differences_mlp(calls):
    finite_difference_check("mlp", 12, calls)


@GRADIENT_CALLS
def test_gradients_match_finite_differences_mlhp(calls):
    finite_difference_check("mlhp", 13, calls)


@GRADIENT_CALLS
def test_gradients_match_finite_differences_mlgp(calls):
    finite_difference_check("mlgp", 14, calls)


def test_backward_zero_upstream():
    rng = np.random.default_rng(15)
    model = build_model("mlgp", rng)
    pts = rng.uniform(-3, 3, (3, 4, 3))
    _, trace = forward(model, pts)
    grad = backward(model, trace, np.zeros((3, 8)))
    assert grad.shape == model.theta.shape
    assert not grad.any()


def test_dense_backward_matches_textbook_formulas():
    # independent hand derivation for a one-hidden-layer ReLU network:
    #   h = relu(W1 x + b1), y = W2 h + b2
    #   dW2 = d y . h^T, dh = W2^T dy, dz1 = dh * [z1 > 0], dW1 = dz1 x^T
    rng = np.random.default_rng(16)
    model = build_model("mlp", rng)
    first, second = model.layers
    pts = rng.uniform(-3, 3, (4, 3))
    x = pts.reshape(-1)
    logits, trace = forward(model, pts[None])
    _, dys = softmax_cross_entropy(logits, [5])
    # read the gradient vector through the same layer views as theta
    grads = Model("mlp", backward(model, trace, dys)).layers
    dy = dys[0]

    # each bias is the last column of its layer's weights
    z1 = first.w[:, :-1] @ x + first.w[:, -1]
    h = np.maximum(z1, 0.0)
    dw2 = np.outer(dy, h)
    db2 = dy
    dh = second.w[:, :-1].T @ dy
    dz1 = dh * (z1 > 0)
    dw1 = np.outer(dz1, x)
    db1 = dz1
    assert np.allclose(grads[1].w[:, :-1], dw2, atol=1e-12)
    assert np.allclose(grads[1].w[:, -1], db2, atol=1e-12)
    assert np.allclose(grads[0].w[:, :-1], dw1, atol=1e-12)
    assert np.allclose(grads[0].w[:, -1], db1, atol=1e-12)


def test_mlp_matches_an_explicit_affine_reference():
    # W x + b with the bias apart, against the folded (x, 1) product, at the
    # protocol's batch (a BLAS product) and a small odd one
    data = make_dataset("main", 1000, noise_a=0.1, seed=32)
    for n in (1000, 37):
        model = build_model("mlp", np.random.default_rng(33))
        first, second = model.layers
        pts, labels = data.points[:n], data.labels[:n]
        logits, trace = forward(model, pts)
        _, dys = softmax_cross_entropy(logits, labels)
        grads = Model("mlp", backward(model, trace, dys)).layers
        x = pts.reshape(n, -1).T
        z1 = first.w[:, :-1] @ x + first.w[:, -1:]
        h = np.maximum(z1, 0.0)
        want = second.w[:, :-1] @ h + second.w[:, -1:]
        assert np.max(np.abs(logits - want.T)) <= 1e-12
        dy = dys.T
        dz1 = (second.w[:, :-1].T @ dy) * (z1 > 0.0)
        for got, dz, inp in ((grads[1], dy, h), (grads[0], dz1, x)):
            assert np.max(np.abs(got.w[:, :-1] - dz @ inp.T)) <= 1e-12
            assert np.max(np.abs(got.w[:, -1] - dz.sum(axis=1))) <= 1e-12


def test_adam_zero_gradient_is_a_fixed_point():
    rng = np.random.default_rng(17)
    theta = rng.uniform(-1, 1, 134)
    before = theta.copy()
    opt = Adam(theta, 0.001)
    for _ in range(5):
        opt.step(np.zeros_like(theta))
    assert np.array_equal(theta, before)


def test_adam_rejects_bad_settings():
    theta = np.zeros(3)
    nan, inf = float("nan"), float("inf")
    for lr in (nan, inf, 0.0, -0.1):
        with pytest.raises(ValueError):
            Adam(theta, lr)


def test_adam_first_step_is_signed_learning_rate():
    # after bias correction, step 1 moves each weight by ~lr * sign(g)
    theta = np.ones(3)
    opt = Adam(theta, lr=0.01)
    g = np.array([0.3, -2.0, 0.5])
    opt.step(g)
    assert np.allclose(theta, 1.0 - 0.01 * np.sign(g), atol=1e-6)
    assert opt.t == 1


def test_adam_matches_scalar_reference_trace():
    # reference: plain-Python Adam on f(a, b) = a^2/2 + 2 b^2, grad (a, 4b)
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    a, b = 1.0, -1.0
    ma = va = mb = vb = 0.0
    ref = []
    for t in range(1, 11):
        ga, gb = a, 4.0 * b
        ma = b1 * ma + (1 - b1) * ga
        va = b2 * va + (1 - b2) * ga * ga
        mb = b1 * mb + (1 - b1) * gb
        vb = b2 * vb + (1 - b2) * gb * gb
        a -= lr * (ma / (1 - b1**t)) / (np.sqrt(va / (1 - b2**t)) + eps)
        b -= lr * (mb / (1 - b1**t)) / (np.sqrt(vb / (1 - b2**t)) + eps)
        ref.append((a, b))

    theta = np.array([1.0, -1.0])
    opt = Adam(theta, lr=lr)
    for t in range(10):
        opt.step(np.array([theta[0], 4.0 * theta[1]]))
        assert np.allclose(theta, ref[t], atol=1e-12)


def test_adam_epsilon_keeps_its_textbook_meaning():
    # a gradient of 1e-10 is small against EPS, so the update hangs on where
    # EPS enters: added to the root of the bias-corrected second moment
    lr, b1, b2 = 0.001, 0.9, 0.999
    grads = np.array([1e-10, -0.5])
    theta = np.zeros(2)
    opt = Adam(theta, lr)
    ref, m, v = np.zeros(2), np.zeros(2), np.zeros(2)
    for t in range(1, 51):
        opt.step(grads)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            ref[i] -= lr * (m[i] / (1 - b1**t)) / (math.sqrt(v[i] / (1 - b2**t)) + EPS)
        assert np.all(np.abs(theta - ref) <= 1e-15 * np.abs(ref)), t


class TwoArrayAdam:
    """The step as it was with separate m and v arrays: the stacked step's reference."""

    def __init__(self, theta, lr):
        self.theta, self.lr, self.t = theta, lr, 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)

    def step(self, grad):
        self.t += 1
        self.m *= 0.9
        self.m += grad * (1.0 - 0.9)
        self.v *= 0.999
        self.v += (grad * grad) * (1.0 - 0.999)
        root = (1.0 - 0.999**self.t) ** 0.5
        alpha = self.lr * root / (1.0 - 0.9**self.t)
        self.theta -= (self.m * alpha) / (np.sqrt(self.v) + EPS * root)


def test_stacked_adam_moments_match_the_two_array_step():
    # m and v are the rows of one array, decayed and fed in one call each;
    # each row keeps its own rounding, m*b1 + g*(1-b1) and v*b2 + (g*g)*(1-b2)
    rng = np.random.default_rng(31)
    theta = rng.uniform(-1, 1, 134)
    opt, ref = Adam(theta, 0.01), TwoArrayAdam(theta.copy(), 0.01)
    for _ in range(50):
        grad = rng.standard_normal(134) * 10.0 ** rng.integers(-8, 3, 134)
        grad[rng.random(134) < 0.2] = 0.0
        grad[rng.random(134) < 0.1] = rng.uniform(0.5, 2.0) * 1e150
        opt.step(grad)
        ref.step(grad)
        assert np.array_equal(opt.theta, ref.theta)
        assert np.array_equal(opt.m, ref.m) and np.array_equal(opt.v, ref.v)


def reference_lift(x, group):
    """Batch-major lift of each group-wide block of the rows of (batch, m) x;
    group 0 is not lifted, since the reference adds a dense layer's bias apart."""
    if group == 0:
        return x
    g = x.reshape(len(x), -1, group)
    ones = np.ones(g.shape[:-1] + (1,))
    sq = (g * g).sum(axis=-1, keepdims=True)
    return np.concatenate([g, -ones, -0.5 * sq], axis=-1).reshape(len(x), -1)


def affine(layer):
    """A layer's weights and bias: a dense layer's bias is its last weight column."""
    return (layer.w, None) if layer.group else (layer.w[:, :-1], layer.w[:, -1])


def reference_fit(model, points, labels, epochs, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Full-batch Adam with every array laid out (batch, features).

    The textbook formulas, written independently of the package's feature-
    major core: forward, softmax cross-entropy, backward and Adam.  A hidden
    input is lifted when its layer has a group and passed through a ReLU
    when it has none.  A dense layer's bias, the last column of its weights,
    is added and reduced apart.
    """
    theta = model.theta
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    rows = np.arange(len(labels))
    losses = []
    for t in range(1, epochs + 1):
        x = points.reshape(len(points), -1)
        trace = []
        for i, layer in enumerate(model.layers):
            relu = i > 0 and not layer.group
            e = np.maximum(x, 0.0) if relu else reference_lift(x, layer.group)
            trace.append((x, e, relu))
            w, b = affine(layer)
            x = e @ w.T + (0.0 if b is None else b)
        shifted = x - x.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        losses.append(-log_probs[rows, labels].mean())
        d = np.exp(log_probs)
        d[rows, labels] -= 1.0
        d /= len(rows)
        parts = []
        for layer, (x_in, e, relu) in reversed(list(zip(model.layers, trace))):
            w, b = affine(layer)
            dw = d.T @ e if b is None else np.column_stack([d.T @ e, d.sum(axis=0)])
            parts.append(dw.ravel())
            d = d @ w
            if relu:
                d = d * (x_in > 0.0)
            elif layer.group:
                blocks = d.reshape(len(d), -1, layer.group + 2)
                g = x_in.reshape(len(x_in), -1, layer.group)
                d = (blocks[..., : layer.group] - blocks[..., -1:] * g).reshape(x_in.shape)
        grad = np.concatenate(parts[::-1])
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        theta -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return np.array(losses)


# the indices, into every epoch's losses, of the ones a 300-epoch fit returns
SAMPLED_300 = np.array(loss_epochs(300)) - 1


def test_feature_major_fit_matches_batch_major_reference():
    # the layout changes the order of some sums, so agreement is to rounding
    data = make_dataset("main", 200, noise_a=0.1, seed=23)
    for kind in MODEL_KINDS:
        model = build_model(kind, np.random.default_rng(24))
        ref = model.copy()
        losses = fit(model, data.points, data.labels, 300)
        ref_losses = reference_fit(ref, data.points, data.labels, 300)[SAMPLED_300]
        assert np.max(np.abs(model.theta - ref.theta)) <= 1e-12, kind
        assert np.max(np.abs(losses - ref_losses)) <= 1e-12, kind
        assert losses[-1] < losses[0]


def test_loss_and_backward_do_not_depend_on_the_logit_layout():
    # forward returns a transposed view; a C-contiguous copy of it must give
    # bit-identical losses and gradients
    rng = np.random.default_rng(25)
    for kind in MODEL_KINDS:
        model = build_model(kind, rng)
        pts = rng.uniform(-3, 3, (50, 4, 3))
        labels = rng.integers(0, 8, 50)
        logits, trace = forward(model, pts)
        assert logits.shape == (50, 8) and not logits.flags.c_contiguous
        loss, d = softmax_cross_entropy(logits, labels)
        loss_c, d_c = softmax_cross_entropy(np.ascontiguousarray(logits), labels)
        assert loss == loss_c and d.shape == d_c.shape == (50, 8)
        assert np.array_equal(d, d_c)
        # so do both layouts in a workspace, as a fit runs them
        ws = Workspace(model, 50)
        for view in (logits, np.ascontiguousarray(logits)):
            loss_ws, d_ws = softmax_cross_entropy(view, labels, ws)
            assert loss_ws == loss and np.array_equal(d_ws, d)
        grad = backward(model, trace, d)
        assert np.array_equal(grad, backward(model, trace, np.ascontiguousarray(d)))


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("batch", [1000, 37])
def test_fit_in_its_workspace_matches_the_loop_without_one(kind, batch):
    # a fit reuses one workspace's arrays every epoch; the public calls without
    # one allocate fresh arrays, and both must give the same bits
    data = make_dataset("main", batch, noise_a=0.1, seed=26)
    model = build_model(kind, np.random.default_rng(27))
    plain = model.copy()
    losses = fit(model, data.points, data.labels, 300)
    first, target = embed_input(plain, data.points), data.labels
    opt = Adam(plain.theta, 0.001)
    plain_losses = []
    for _ in range(300):
        logits, trace = forward(plain, data.points, first)
        loss, dlogits = softmax_cross_entropy(logits, target)
        opt.step(backward(plain, trace, dlogits))
        plain_losses.append(loss)
    assert np.array_equal(model.theta, plain.theta)
    assert np.array_equal(losses, np.array(plain_losses)[SAMPLED_300])


def test_workspace_rejects_a_hidden_lift_wider_than_the_logits():
    # a hidden lift squares into the 8 logit rows, so its block has at most 8
    layers = [Layer(12, 14, 9, np.zeros(126)), Layer(9, 11, 8, np.zeros(88))]
    with pytest.raises(ValueError, match="one block of <= 8 rows"):
        Workspace(SimpleNamespace(layers=layers), 4)
    layers = [Layer(12, 14, 8, np.zeros(112)), Layer(8, 10, 8, np.zeros(80))]
    assert len(Workspace(SimpleNamespace(layers=layers), 4).steps) == 2


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_one_workspace_serves_a_changing_theta_and_a_second_model(kind):
    # each call through the workspace must give the bits of a call without it:
    # a -1 row, norm row, gradient slot or scaled target left over from an
    # earlier call, a theta ago or for another model and its data, would not
    ws = Workspace(build_model(kind), 37)
    for seed in (28, 29):
        rng = np.random.default_rng(seed)
        model = build_model(kind, rng)
        points = make_dataset("main", 37, noise_a=0.1, seed=seed).points
        first, target = embed_input(model, points), rng.integers(0, 8, 37)
        opt = Adam(model.theta, 0.01)
        for _ in range(20):
            logits, trace = forward(model, points, first)
            loss, dlogits = softmax_cross_entropy(logits, target)
            grad = backward(model, trace, dlogits)
            ws_logits, ws_trace = forward(model, points, first, ws)
            ws_loss, ws_dlogits = softmax_cross_entropy(ws_logits, target, ws)
            assert np.array_equal(ws_logits, logits) and ws_loss == loss
            assert all(np.array_equal(a, b) for a, b in zip(ws_trace, trace))
            assert np.array_equal(ws_dlogits, dlogits)
            assert np.array_equal(backward(model, ws_trace, ws_dlogits, ws), grad)
            opt.step(grad)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_an_epoch_in_a_workspace_allocates_under_two_logit_sized_arrays(kind):
    # the workspace holds every array an epoch writes; what is left is NumPy's
    # output-sized temporary where a ufunc broadcasts an (n,) row over (8, n)
    batch = 1000
    data = make_dataset("main", batch, noise_a=0.1, seed=30)
    model = build_model(kind, np.random.default_rng(31))
    first, ws, opt = embed_input(model, data.points), Workspace(model, batch), Adam(model.theta, 0.001)

    def epoch():
        logits, trace = forward(model, data.points, first, ws)
        _, dlogits = softmax_cross_entropy(logits, data.labels, ws)
        opt.step(backward(model, trace, dlogits, ws))
        return logits

    epoch()  # the first epoch also builds the loss's target
    tracemalloc.start()
    try:
        logits = epoch()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * logits.nbytes, peak
