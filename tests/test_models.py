"""Tests for the reference architectures, weight transforms, checkpoints."""

import json

import numpy as np
import pytest

from mlgp.conformal import RigidMotion, random_rotation
from mlgp.models import (
    MODEL_KINDS,
    accuracy,
    build_model,
    copy_layers,
    load_checkpoint,
    param_count,
    predict,
    save_checkpoint,
    transform_mlgp_weights,
)
from mlgp.nn import Layer, forward


def random_motion(rng, t_range=3.0):
    rot = random_rotation(rng, lambda r: r.uniform(0.0, 2.0 * np.pi))
    return RigidMotion(rot, rng.uniform(-t_range, t_range, 3))


def test_parameter_counts_match_reference():
    assert param_count(build_model("mlp")) == 134
    assert param_count(build_model("mlhp")) == 126
    assert param_count(build_model("mlgp")) == 128
    # and the counts decompose as the architecture arithmetic says
    assert 12 * 6 + 6 + 6 * 8 + 8 == 134
    assert 14 * 5 + 7 * 8 == 126
    assert 20 * 4 + 6 * 8 == 128


def test_build_model_structure():
    mlp = build_model("mlp")
    assert [l.kind for l in mlp] == ["dense", "dense"]
    assert mlp[0].activation == "relu"
    mlhp = build_model("mlhp")
    assert [l.kind for l in mlhp] == ["hypersphere", "hypersphere"]
    assert all(l.b is None for l in mlhp)
    mlgp = build_model("mlgp")
    assert [l.kind for l in mlgp] == ["geometric", "hypersphere"]
    assert [l.activation for l in mlgp] == ["identity", "identity"]
    with pytest.raises(ValueError):
        build_model("nope")


def test_predict_untrained_uniform():
    label, probs = predict(build_model("mlgp"), np.zeros((4, 3)))
    assert label == 0
    assert np.allclose(probs, 1.0 / 8.0, atol=1e-15)
    rng = np.random.default_rng(0)
    labels, probs = predict(build_model("mlp", rng), rng.uniform(-3, 3, (6, 4, 3)))
    assert labels.shape == (6,)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_accuracy():
    rng = np.random.default_rng(1)
    layers = build_model("mlgp", rng)
    pts = rng.uniform(-3, 3, (16, 4, 3))
    labels, _ = predict(layers, pts)
    assert accuracy(layers, pts, labels) == 1.0
    wrong = (labels + 1) % 8
    assert accuracy(layers, pts, wrong) == 0.0


def test_copy_layers_is_independent():
    rng = np.random.default_rng(2)
    layers = build_model("mlp", rng)
    dup = copy_layers(layers)
    dup[0].w[0, 0] += 1.0
    dup[0].b[0] += 1.0
    assert layers[0].w[0, 0] != dup[0].w[0, 0]
    assert layers[0].b[0] != dup[0].b[0]


def test_transform_identity_motion_is_noop():
    rng = np.random.default_rng(3)
    layers = build_model("mlgp", rng)
    moved = transform_mlgp_weights(layers, RigidMotion.identity())
    assert np.array_equal(moved[0].w, layers[0].w)
    assert np.array_equal(moved[1].w, layers[1].w)


def test_transform_requires_geometric_first_layer():
    rng = np.random.default_rng(4)
    for kind in ("mlp", "mlhp"):
        with pytest.raises(ValueError):
            transform_mlgp_weights(build_model(kind, rng), RigidMotion.identity())
    with pytest.raises(TypeError):
        transform_mlgp_weights(build_model("mlgp", rng), np.eye(3))


def test_transform_gives_exact_activation_isometry():
    # moved model on moved inputs = original model on original inputs
    rng = np.random.default_rng(5)
    for _ in range(50):
        layers = build_model("mlgp", rng)
        motion = random_motion(rng)
        moved = transform_mlgp_weights(layers, motion)
        pts = rng.uniform(-3, 3, (8, 4, 3))
        base, _ = forward(layers, pts)
        got, _ = forward(moved, motion.apply(pts))
        assert np.max(np.abs(got - base)) <= 1e-9


def test_transform_isometry_survives_nonlinear_activation():
    # pre-activations match exactly, so any activation keeps the property
    rng = np.random.default_rng(6)
    layers = [
        Layer("geometric", 20, 4, "relu", rng),
        Layer("hypersphere", 6, 8, "identity", rng),
    ]
    motion = random_motion(rng)
    moved = transform_mlgp_weights(layers, motion)
    pts = rng.uniform(-3, 3, (8, 4, 3))
    base, _ = forward(layers, pts)
    got, _ = forward(moved, motion.apply(pts))
    assert np.max(np.abs(got - base)) <= 1e-9


def test_transform_inverse_restores_weights():
    rng = np.random.default_rng(7)
    for _ in range(50):
        layers = build_model("mlgp", rng)
        motion = random_motion(rng)
        back = transform_mlgp_weights(
            transform_mlgp_weights(layers, motion), motion.inverse()
        )
        assert np.max(np.abs(back[0].w - layers[0].w)) <= 1e-12


def test_transform_predictions_are_stable():
    rng = np.random.default_rng(8)
    layers = build_model("mlgp", rng)
    motion = random_motion(rng)
    moved = transform_mlgp_weights(layers, motion)
    pts = rng.uniform(-3, 3, (32, 4, 3))
    base_labels, _ = predict(layers, pts)
    moved_labels, _ = predict(moved, motion.apply(pts))
    assert np.array_equal(base_labels, moved_labels)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    for kind in MODEL_KINDS:
        layers = build_model(kind, rng)
        path = tmp_path / f"{kind}.json"
        save_checkpoint(path, kind, layers, adam_step=123)
        got_kind, got_layers, got_step = load_checkpoint(path)
        assert got_kind == kind
        assert got_step == 123
        assert len(got_layers) == len(layers)
        for a, b in zip(got_layers, layers):
            assert a.kind == b.kind
            assert a.activation == b.activation
            assert np.array_equal(a.w, b.w)
            if b.b is None:
                assert a.b is None
            else:
                assert np.array_equal(a.b, b.b)


def test_checkpoint_preserves_tricky_floats(tmp_path):
    layers = build_model("mlgp")
    layers[0].w[0, :6] = [0.0, -0.0, 1e-308, 1.7976931348623157e308, 0.1, -1e-17]
    path = tmp_path / "tricky.json"
    save_checkpoint(path, "mlgp", layers)
    _, got, _ = load_checkpoint(path)
    a = got[0].w[0, :6]
    b = layers[0].w[0, :6]
    # compare the underlying bit patterns, not just the values
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert np.signbit(a[1])


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other"}\n')
    with pytest.raises(ValueError):
        load_checkpoint(path)
    layers = build_model("mlp")
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.json", "nope", layers)


def _rewrite_checkpoint(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_checkpoint_rejects_missing_key(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "mlgp", build_model("mlgp"), adam_step=5)
    _rewrite_checkpoint(path, lambda doc: doc.pop("adam_step"))
    with pytest.raises(ValueError, match="adam_step"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_finite_weight(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "mlgp", build_model("mlgp"))

    def poison(doc):
        doc["layers"][1]["weights"][0][0] = float("nan")

    _rewrite_checkpoint(path, poison)
    with pytest.raises(ValueError, match="finite"):
        load_checkpoint(path)
    # and a non-finite weight never gets written in the first place
    layers = build_model("mlgp")
    layers[0].w[0, 0] = np.inf
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "inf.json", "mlgp", layers)


def test_checkpoint_rejects_unchained_widths(tmp_path):
    # a 20 -> 4 geometric layer feeding a hypersphere layer that takes 5 inputs
    path = tmp_path / "ckpt.json"
    layers = [Layer("geometric", 20, 4), Layer("hypersphere", 7, 8)]
    save_checkpoint(path, "mlgp", layers)
    with pytest.raises(ValueError, match="chain"):
        load_checkpoint(path)
