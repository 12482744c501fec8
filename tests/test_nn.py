"""Tests for layers, embeddings, gradients, loss, and the optimizer."""

import numpy as np
import pytest

from mlgp.conformal import embed_point, point_normalize, sphere_from_center_radius
from mlgp.models import build_model
from mlgp.nn import (
    Adam,
    Layer,
    activation_derivative,
    apply_activation,
    backward,
    embed_input,
    embed_pointwise,
    forward,
    softmax,
    softmax_cross_entropy,
)


def test_embed_pointwise_examples():
    assert np.array_equal(embed_pointwise([[0.0, 0.0, 0.0]]), [0, 0, 0, -1, 0])
    got = embed_pointwise([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(got, [0, 0, 0, -1, 0, 1, 0, 0, -1, -0.5])
    # a 4-point shape lifts to length 20
    rng = np.random.default_rng(0)
    shape = rng.uniform(-3, 3, (4, 3))
    v = embed_pointwise(shape)
    assert v.shape == (20,)
    # each 5-block must match the single-point lift (sum orderings may
    # differ in the last bit)
    for i in range(4):
        assert np.allclose(v[5 * i : 5 * i + 5], embed_point(shape[i]), atol=1e-14)


def test_embed_pointwise_batch_and_validation():
    rng = np.random.default_rng(1)
    batch = rng.uniform(-3, 3, (6, 4, 3))
    v = embed_pointwise(batch)
    assert v.shape == (6, 20)
    for i in range(6):
        assert np.array_equal(v[i], embed_pointwise(batch[i]))
    with pytest.raises(ValueError):
        embed_pointwise(np.zeros((4, 2)))


def test_layer_construction():
    rng = np.random.default_rng(2)
    layer = Layer("dense", 12, 6, "relu", rng)
    bound = 1.0 / np.sqrt(12)
    assert np.all(np.abs(layer.w) <= bound)
    assert np.all(np.abs(layer.b) <= bound)
    assert layer.param_count == 12 * 6 + 6
    # no rng -> zero parameters
    zero = Layer("geometric", 20, 4)
    assert not zero.w.any() and zero.b is None
    assert zero.pre_embed_dim == 12
    assert Layer("hypersphere", 14, 5).pre_embed_dim == 12
    with pytest.raises(ValueError):
        Layer("nope", 4, 4)
    with pytest.raises(ValueError):
        Layer("dense", 4, 4, activation="nope")
    with pytest.raises(ValueError):
        Layer("geometric", 12, 4)


def test_geometric_neuron_decomposes_into_spheres():
    # unit output = sum over blocks of gamma_i * (lifted point . sphere_i)
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.standard_normal(20)
        w[4::5] += np.sign(w[4::5]) * 0.1  # keep scale factors nonzero
        pts = rng.uniform(-3, 3, (4, 3))
        z = float(w @ embed_pointwise(pts))
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
        layer = Layer("geometric", 20, 1)
        layer.w[0] = w
        out, _ = forward([layer], pts)
        want = sum(
            g * (-0.5 * np.sum((p - c) ** 2) + 0.5 * r * r)
            for g, c, r, p in zip(gammas, centers, radii, pts)
        )
        assert abs(float(out[0]) - want) <= 1e-12 * (1.0 + abs(want))


def test_forward_zero_weights_and_shapes():
    layers = build_model("mlgp")
    pts = np.random.default_rng(5).uniform(-3, 3, (4, 3))
    logits, trace = forward(layers, pts)
    assert np.array_equal(logits, np.zeros(8))
    assert len(trace) == 2
    assert trace[0].embedded.shape == (1, 20)
    with pytest.raises(ValueError):
        forward(layers, np.zeros((5, 3)))


def test_forward_matches_direct_matrix_evaluation():
    # identity-activation chain is linear in the lifted features
    rng = np.random.default_rng(6)
    layers = build_model("mlgp", rng)
    pts = rng.uniform(-3, 3, (4, 3))
    logits, _ = forward(layers, pts)
    h = layers[0].w @ embed_pointwise(pts)
    want = layers[1].w @ embed_point(h)
    assert np.allclose(logits, want, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(7)
    for kind in ("mlp", "mlhp", "mlgp"):
        layers = build_model(kind, rng)
        batch = rng.uniform(-3, 3, (5, 4, 3))
        logits, _ = forward(layers, batch)
        for i in range(5):
            single, _ = forward(layers, batch[i])
            assert np.allclose(logits[i], single, atol=1e-12)


def test_forward_with_precomputed_embedding():
    rng = np.random.default_rng(8)
    layers = build_model("mlgp", rng)
    batch = rng.uniform(-3, 3, (5, 4, 3))
    first = embed_input(layers[0], batch)
    a, _ = forward(layers, batch)
    b, _ = forward(layers, batch, first_embedded=first)
    assert np.array_equal(a, b)


def test_dense_forward_matches_manual():
    rng = np.random.default_rng(9)
    layers = build_model("mlp", rng)
    pts = rng.uniform(-3, 3, (4, 3))
    x = pts.reshape(-1)
    h = np.maximum(layers[0].w @ x + layers[0].b, 0.0)
    want = layers[1].w @ h + layers[1].b
    logits, _ = forward(layers, pts)
    assert np.allclose(logits, want, atol=1e-12)


def test_activations():
    z = np.linspace(-2, 2, 9)
    assert np.array_equal(apply_activation("identity", z), z)
    assert np.allclose(apply_activation("tanh", z), np.tanh(z))
    assert np.array_equal(apply_activation("relu", z), np.maximum(z, 0))
    # relu subgradient at exactly 0 is 0
    out = apply_activation("relu", np.zeros(3))
    assert np.array_equal(activation_derivative("relu", np.zeros(3), out), np.zeros(3))
    # smooth derivatives agree with finite differences
    h = 1e-6
    for name in ("sigmoid", "tanh"):
        out = apply_activation(name, z)
        got = activation_derivative(name, z, out)
        num = (apply_activation(name, z + h) - apply_activation(name, z - h)) / (2 * h)
        assert np.allclose(got, num, atol=1e-9)
    with pytest.raises(ValueError):
        apply_activation("nope", z)


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = softmax(rng.uniform(-20, 20, 8))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12
    # batch form normalizes each row
    p = softmax(rng.uniform(-5, 5, (7, 8)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_examples():
    loss, d = softmax_cross_entropy(np.zeros(8), 3)
    assert abs(loss - np.log(8)) <= 1e-12
    assert abs(d.sum()) <= 1e-12
    # a huge correct-class margin drives the loss to zero
    z = np.zeros(8)
    z[2] = 100.0
    loss, _ = softmax_cross_entropy(z, 2)
    assert loss <= 1e-12
    # extreme logits stay finite
    loss, d = softmax_cross_entropy(np.array([1e4, 0, 0, 0, 0, 0, 0, -1e4]), 0)
    assert np.isfinite(loss) and np.all(np.isfinite(d))


def test_cross_entropy_batch_matches_singles():
    rng = np.random.default_rng(11)
    logits = rng.uniform(-3, 3, (6, 8))
    labels = rng.integers(0, 8, 6)
    loss, d = softmax_cross_entropy(logits, labels)
    singles = [softmax_cross_entropy(logits[i], labels[i]) for i in range(6)]
    assert abs(loss - np.mean([s[0] for s in singles])) <= 1e-12
    for i in range(6):
        assert np.allclose(d[i], singles[i][1] / 6.0, atol=1e-12)


def finite_difference_check(kind, seed, batch=4, h=1e-6, tol=1e-5):
    rng = np.random.default_rng(seed)
    layers = build_model(kind, rng)
    pts = rng.uniform(-3, 3, (batch, 4, 3))
    labels = rng.integers(0, 8, batch)

    def loss_of():
        logits, _ = forward(layers, pts)
        return softmax_cross_entropy(logits, labels)[0]

    logits, trace = forward(layers, pts)
    _, dlogits = softmax_cross_entropy(logits, labels)
    grads = backward(layers, trace, dlogits)
    worst = 0.0
    for layer, (dw, db) in zip(layers, grads):
        for arr, grad in ((layer.w, dw), (layer.b, db)):
            if arr is None:
                continue
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                up = loss_of()
                arr[idx] = old - h
                down = loss_of()
                arr[idx] = old
                num = (up - down) / (2 * h)
                ana = grad[idx]
                scale = max(abs(num), abs(ana))
                if scale > 1e-8:
                    worst = max(worst, abs(num - ana) / scale)
    assert worst < tol, f"{kind}: relative error {worst}"


def test_gradients_match_finite_differences_mlp():
    finite_difference_check("mlp", 12)


def test_gradients_match_finite_differences_mlhp():
    finite_difference_check("mlhp", 13)


def test_gradients_match_finite_differences_mlgp():
    finite_difference_check("mlgp", 14)


def test_backward_zero_upstream():
    rng = np.random.default_rng(15)
    layers = build_model("mlgp", rng)
    pts = rng.uniform(-3, 3, (3, 4, 3))
    _, trace = forward(layers, pts)
    grads = backward(layers, trace, np.zeros((3, 8)))
    for dw, db in grads:
        assert not dw.any()
        assert db is None or not db.any()


def test_dense_backward_matches_textbook_formulas():
    # independent hand derivation for a one-hidden-layer ReLU network:
    #   h = relu(W1 x + b1), y = W2 h + b2
    #   dW2 = d y . h^T, dh = W2^T dy, dz1 = dh * [z1 > 0], dW1 = dz1 x^T
    rng = np.random.default_rng(16)
    layers = build_model("mlp", rng)
    pts = rng.uniform(-3, 3, (4, 3))
    x = pts.reshape(-1)
    logits, trace = forward(layers, pts)
    _, dy = softmax_cross_entropy(logits, 5)
    grads = backward(layers, trace, dy)

    z1 = layers[0].w @ x + layers[0].b
    h = np.maximum(z1, 0.0)
    dw2 = np.outer(dy, h)
    db2 = dy
    dh = layers[1].w.T @ dy
    dz1 = dh * (z1 > 0)
    dw1 = np.outer(dz1, x)
    db1 = dz1
    assert np.allclose(grads[1][0], dw2, atol=1e-12)
    assert np.allclose(grads[1][1], db2, atol=1e-12)
    assert np.allclose(grads[0][0], dw1, atol=1e-12)
    assert np.allclose(grads[0][1], db1, atol=1e-12)


def test_adam_zero_gradient_is_a_fixed_point():
    rng = np.random.default_rng(17)
    layers = build_model("mlp", rng)
    before = [(l.w.copy(), l.b.copy()) for l in layers]
    opt = Adam(layers)
    zero = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in layers]
    for _ in range(5):
        opt.step(layers, zero)
    for layer, (w, b) in zip(layers, before):
        assert np.array_equal(layer.w, w)
        assert np.array_equal(layer.b, b)


def test_adam_first_step_is_signed_learning_rate():
    # after bias correction, step 1 moves each weight by ~lr * sign(g)
    layer = Layer("dense", 2, 1)
    layer.w[:] = 1.0
    layer.b[:] = 1.0
    opt = Adam([layer], lr=0.01)
    g = np.array([[0.3, -2.0]])
    opt.step([layer], [(g, np.array([0.5]))])
    assert np.allclose(layer.w, 1.0 - 0.01 * np.sign(g), atol=1e-6)
    assert np.allclose(layer.b, 1.0 - 0.01, atol=1e-6)
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

    layer = Layer("dense", 1, 2)
    layer.w[:, 0] = [1.0, -1.0]
    opt = Adam([layer], lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(10):
        g = np.array([[layer.w[0, 0]], [4.0 * layer.w[1, 0]]])
        opt.step([layer], [(g, np.zeros(2))])
        assert np.allclose(layer.w[:, 0], ref[t], atol=1e-12)
