"""Tests for the reference architectures, weight transforms, checkpoints."""

import copy
import json
import pickle

import numpy as np
import pytest

from mlgp.conformal import RigidMotion, rotation_about_axis
from mlgp.models import (
    MODEL_KINDS,
    Model,
    accuracy,
    build_model,
    hits,
    load_checkpoint,
    predict,
    save_checkpoint,
    transform_mlgp_weights,
)
from mlgp.nn import forward
from mlgp.tetris import make_dataset


def random_motion(rng, t_range=3.0):
    axis = rng.standard_normal(3)
    rot = rotation_about_axis(axis / np.linalg.norm(axis), rng.uniform(0.0, 2.0 * np.pi))
    return RigidMotion(rot, rng.uniform(-t_range, t_range, 3))


def test_parameter_counts_match_reference():
    assert build_model("mlp").theta.size == 134
    assert build_model("mlhp").theta.size == 126
    assert build_model("mlgp").theta.size == 128
    # and the counts decompose as the architecture arithmetic says
    assert 12 * 6 + 6 + 6 * 8 + 8 == 134
    assert 14 * 5 + 7 * 8 == 126
    assert 20 * 4 + 6 * 8 == 128


def test_build_model_structure():
    mlp = build_model("mlp")
    # a layer is its lift group; group 0 (dense) lifts to (x, 1), so its last
    # weight column is its bias
    assert mlp.kind == "mlp"
    assert [l.group for l in mlp.layers] == [0, 0]
    assert [l.w.shape for l in mlp.layers] == [(6, 13), (8, 7)]
    mlhp = build_model("mlhp")
    assert [l.group for l in mlhp.layers] == [12, 5]
    assert [l.w.shape for l in mlhp.layers] == [(5, 14), (8, 7)]
    mlgp = build_model("mlgp")
    assert [l.group for l in mlgp.layers] == [3, 4]
    assert [l.w.shape for l in mlgp.layers] == [(4, 20), (8, 6)]
    for model in (mlp, mlhp, mlgp):
        assert model.theta.dtype == np.float64
        assert all(np.shares_memory(l.w, model.theta) for l in model.layers)
    with pytest.raises(ValueError):
        build_model("nope")


def test_predict_untrained_uniform():
    labels, probs = predict(build_model("mlgp"), np.zeros((1, 4, 3)))
    assert np.array_equal(labels, [0])
    assert probs.shape == (1, 8) and np.allclose(probs, 1.0 / 8.0, atol=1e-15)
    rng = np.random.default_rng(0)
    labels, probs = predict(build_model("mlp", rng), rng.uniform(-3, 3, (6, 4, 3)))
    assert labels.shape == (6,)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_accuracy():
    rng = np.random.default_rng(1)
    model = build_model("mlgp", rng)
    pts = rng.uniform(-3, 3, (16, 4, 3))
    labels, _ = predict(model, pts)
    assert accuracy(model, pts, labels) == 1.0
    wrong = (labels + 1) % 8
    assert accuracy(model, pts, wrong) == 0.0
    # accuracy scores the same labels predict returns, on a large set too
    data = make_dataset("main", 20000, noise_a=0.1, seed=2)
    for kind in MODEL_KINDS:
        model = build_model(kind, rng)
        want = np.mean(predict(model, data.points)[0] == data.labels)
        assert accuracy(model, data.points, data.labels) == want, kind
    # one label for 20000 shapes would broadcast against all of them
    with pytest.raises(ValueError, match="1 labels for 20000 shapes"):
        accuracy(model, data.points, data.labels[:1])


def argmax_hits(logits, labels):
    return int(np.count_nonzero(np.argmax(logits, axis=1) == labels))


def test_hits_is_the_np_argmax_count():
    # ties, signed zeros, infinities and NaNs, with a NaN at every class
    # position: the first top class wins, and the first NaN over any number
    rng = np.random.default_rng(62)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan])
    logits = rng.choice(values, (4000, 8))
    logits[:64] = rng.choice(values[:7], (64, 8))
    logits[np.arange(64), np.arange(64) % 8] = np.nan
    for layout in (logits, np.asfortranarray(logits)):
        for c in range(8):  # every class as everyone's label
            assert hits(layout, np.full(len(logits), c)) == argmax_hits(logits, c), c
        labels = rng.integers(0, 8, len(logits))
        assert hits(layout, labels) == argmax_hits(logits, labels)
        for i in range(0, 200, 7):  # one-row batches
            row = slice(i, i + 1)
            assert hits(layout[row], labels[row]) == argmax_hits(logits[row], labels[row]), i


def test_an_all_zero_model_ties_every_row_to_label_0():
    data = make_dataset("main", 64, seed=63)
    for kind in MODEL_KINDS:
        logits = forward(build_model(kind), data.points)[0]
        assert np.array_equal(logits, np.zeros((64, 8))), kind
        for c in range(8):
            assert hits(logits, np.full(64, c)) == (64 if c == 0 else 0), (kind, c)
        assert accuracy(build_model(kind), data.points, data.labels) == 1 / 8, kind


def test_accuracy_rejects_labels_that_are_not_a_vector_of_classes():
    # a column of labels would broadcast against the predictions (an
    # accuracy of 2.0 on 16 shapes), and float or out-of-range ones match none
    model = build_model("mlp", np.random.default_rng(64))
    data = make_dataset("main", 16, seed=65)
    for labels in (data.labels[:, None], data.labels + 0.5, data.labels + 8, data.labels - 1):
        with pytest.raises(ValueError, match="labels must be a vector of integers in 0..7"):
            accuracy(model, data.points, labels)


def test_model_copy_is_independent():
    rng = np.random.default_rng(2)
    model = build_model("mlp", rng)
    dup = model.copy()
    assert dup.kind == "mlp"
    assert np.array_equal(dup.theta, model.theta)
    dup.layers[0].w[0, 0] += 1.0
    dup.layers[0].w[0, -1] += 1.0  # a bias
    assert model.layers[0].w[0, 0] != dup.layers[0].w[0, 0]
    assert model.layers[0].w[0, -1] != dup.layers[0].w[0, -1]


def test_model_pickles_and_deep_copies_with_its_views():
    data = make_dataset("main", 16, seed=3)
    for kind in MODEL_KINDS:
        model = build_model(kind, np.random.default_rng(4))
        logits = forward(model, data.points)[0]
        for dup in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert all(np.shares_memory(layer.w, dup.theta) for layer in dup.layers), kind
            assert np.array_equal(forward(dup, data.points)[0], logits), kind
            dup.theta[:] = 0.0
            assert not forward(dup, data.points)[0].any(), kind


def test_model_rejects_theta_of_wrong_size_or_dtype():
    theta = np.arange(128.0)
    assert Model("mlgp", theta).theta is theta  # the layers view it, no copy
    for bad in (
        np.zeros(200),                  # too long
        np.zeros(127),                  # too short
        np.zeros((2, 64)),              # right size, not a vector
        np.zeros(128, dtype=np.int64),  # would break Adam's in-place update
        np.zeros(128, dtype=np.float32),
        [0.0] * 128,                    # not an array the layers can view
    ):
        with pytest.raises(ValueError, match="mlgp theta"):
            Model("mlgp", bad)


def test_transform_identity_motion_is_noop():
    rng = np.random.default_rng(3)
    model = build_model("mlgp", rng)
    moved = transform_mlgp_weights(model, RigidMotion.identity())
    assert np.array_equal(moved.theta, model.theta)
    assert not np.shares_memory(moved.theta, model.theta)


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
        model = build_model("mlgp", rng)
        motion = random_motion(rng)
        moved = transform_mlgp_weights(model, motion)
        pts = rng.uniform(-3, 3, (8, 4, 3))
        base, _ = forward(model, pts)
        got, _ = forward(moved, motion.apply(pts))
        assert np.max(np.abs(got - base)) <= 1e-9
        # later layers are copied untouched
        assert np.array_equal(moved.layers[1].w, model.layers[1].w)


def test_transform_isometry_survives_nonlinear_activation():
    # the first layer's pre-activations match, so any activation applied
    # to them (a ReLU, say) would keep the property
    rng = np.random.default_rng(6)
    model = build_model("mlgp", rng)
    motion = random_motion(rng)
    moved = transform_mlgp_weights(model, motion)
    pts = rng.uniform(-3, 3, (8, 4, 3))
    _, base = forward(model, pts)
    _, got = forward(moved, motion.apply(pts))
    # the traces hold each layer's input, so W @ trace[0] is the first layer's
    # pre-activations
    pre_base = model.layers[0].w @ base[0]
    pre_got = moved.layers[0].w @ got[0]
    assert np.max(np.abs(pre_got - pre_base)) <= 1e-9


def test_transform_inverse_restores_weights():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model = build_model("mlgp", rng)
        motion = random_motion(rng)
        back = transform_mlgp_weights(
            transform_mlgp_weights(model, motion), motion.inverse()
        )
        assert np.max(np.abs(back.theta - model.theta)) <= 1e-12


def test_transform_predictions_are_stable():
    rng = np.random.default_rng(8)
    model = build_model("mlgp", rng)
    motion = random_motion(rng)
    moved = transform_mlgp_weights(model, motion)
    pts = rng.uniform(-3, 3, (32, 4, 3))
    base_labels, _ = predict(model, pts)
    moved_labels, _ = predict(moved, motion.apply(pts))
    assert np.array_equal(base_labels, moved_labels)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    for kind in MODEL_KINDS:
        model = build_model(kind, rng)
        path = tmp_path / f"{kind}.json"
        save_checkpoint(path, kind, model, adam_step=123)
        got_kind, got, got_step = load_checkpoint(path)
        assert got_kind == kind == got.kind
        assert got_step == 123
        assert np.array_equal(got.theta, model.theta)
        for a, b in zip(got.layers, model.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.w[:, -1], b.w[:, -1])  # a dense layer's bias


def test_checkpoint_preserves_tricky_floats(tmp_path):
    model = build_model("mlgp")
    model.layers[0].w[0, :6] = [0.0, -0.0, 1e-308, 1.7976931348623157e308, 0.1, -1e-17]
    path = tmp_path / "tricky.json"
    save_checkpoint(path, "mlgp", model)
    _, got, _ = load_checkpoint(path)
    a = got.layers[0].w[0, :6]
    b = model.layers[0].w[0, :6]
    # compare the underlying bit patterns, not just the values
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert np.signbit(a[1])


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other"}\n')
    with pytest.raises(ValueError):
        load_checkpoint(path)
    # a file that is not JSON names itself too
    path.write_text("{bad\n")
    with pytest.raises(ValueError, match="bad.json"):
        load_checkpoint(path)
    model = build_model("mlp")
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.json", "nope", model)


def _rewrite_checkpoint(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _rejected(path, edit, match):
    """Save an mlgp checkpoint, edit its JSON, and check the one-line error."""
    save_checkpoint(path, "mlgp", build_model("mlgp"), adam_step=5)
    _rewrite_checkpoint(path, edit)
    with pytest.raises(ValueError, match=match) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert str(path) in message and "\n" not in message


def test_checkpoint_is_format_kind_step_and_theta(tmp_path):
    path = tmp_path / "ckpt.json"
    model = build_model("mlgp", np.random.default_rng(10))
    save_checkpoint(path, "mlgp", model, adam_step=5)
    doc = json.loads(path.read_text())
    assert doc == {"format": "mlgp-checkpoint-v3", "model": "mlgp", "adam_step": 5,
                   "theta": model.theta.tolist()}


def test_checkpoint_rejects_missing_key(tmp_path):
    for key in ("model", "adam_step", "theta"):
        _rejected(tmp_path / "ckpt.json", lambda doc: doc.pop(key), key)


def test_checkpoint_rejects_non_finite_weight(tmp_path):
    def poison(doc):
        doc["theta"][100] = float("nan")

    _rejected(tmp_path / "ckpt.json", poison, "finite")
    # and a non-finite weight never gets written in the first place: the
    # one-line error names the file
    path = tmp_path / "inf.json"
    model = build_model("mlgp")
    for bad in (np.inf, np.nan):
        model.layers[0].w[0, 0] = bad
        with pytest.raises(ValueError, match="not finite") as info:
            save_checkpoint(path, "mlgp", model)
        assert str(path) in str(info.value) and "\n" not in str(info.value)
    assert not path.exists()


def test_checkpoint_rejects_non_numeric_or_ragged_theta(tmp_path):
    # the writer only writes floats, so an integer entry marks a hand edit
    for bad in ("abc", [1.0], True, 0, None):
        def poison(doc):
            doc["theta"][3] = bad

        _rejected(tmp_path / "ckpt.json", poison, "finite")
    _rejected(tmp_path / "ckpt.json", lambda doc: doc.update(theta="abc"), "finite")


def test_checkpoint_rejects_theta_of_another_models_size(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "mlhp", build_model("mlhp"))
    _rewrite_checkpoint(path, lambda doc: doc.update(model="mlgp"))
    with pytest.raises(ValueError, match="size 128") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    _rejected(path, lambda doc: doc["theta"].pop(), "size 128")


def test_checkpoint_rejects_unknown_model_kind(tmp_path):
    for bad in ("nope", ["mlgp"], None):
        _rejected(tmp_path / "ckpt.json", lambda doc: doc.update(model=bad), "unknown model kind")


def test_checkpoint_rejects_non_integer_adam_step_string(tmp_path):
    for bad in ("abc", "5"):
        _rejected(tmp_path / "ckpt.json", lambda doc: doc.update(adam_step=bad), "adam_step")


def test_checkpoint_rejects_fractional_negative_or_bool_adam_step(tmp_path):
    for bad in (2.7, 5.0, -3, True):
        _rejected(tmp_path / "ckpt.json", lambda doc: doc.update(adam_step=bad), "adam_step")


def test_save_checkpoint_rejects_negative_step(tmp_path):
    path = tmp_path / "ckpt.json"
    # the loader rejects a JSON true, so the writer rejects a bool
    for bad in (-4, 2.7, True, False):
        with pytest.raises(ValueError, match="adam_step"):
            save_checkpoint(path, "mlgp", build_model("mlgp"), adam_step=bad)
    assert not path.exists()


def test_save_checkpoint_rejects_another_kind(tmp_path):
    # an mlgp model saved as "mlhp" would reload as an mlhp model
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError, match="mlgp"):
        save_checkpoint(path, "mlhp", build_model("mlgp"))
    assert not path.exists()
