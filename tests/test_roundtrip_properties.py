"""Property tests: any finite double survives checkpoint and dataset files bit for bit."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from mlgp.models import MODEL_KINDS, build_model, load_checkpoint, save_checkpoint
from mlgp.tetris import NUM_CLASSES, LabeledShapeSet, load_dataset, save_dataset

FINITE = st.floats(allow_nan=False, allow_infinity=False)

# signed zero, subnormals at both ends of their range, the smallest normal,
# the largest finite magnitudes, and values without a short decimal form
EDGES = [
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1e-310,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1.0 / 3.0,
    np.nextafter(1.0, 2.0),
    -123456.789e-200,
]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(deadline=None)
@example(kind="mlgp", values=EDGES)
@example(kind="mlp", values=[-0.0])
@given(kind=st.sampled_from(MODEL_KINDS), values=st.lists(FINITE, min_size=1, max_size=140))
def test_checkpoint_reloads_any_finite_theta_bit_for_bit(kind, values):
    model = build_model(kind)
    model.theta[:] = np.resize(values, model.theta.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(path, kind, model, adam_step=7)
        loaded_kind, loaded, step = load_checkpoint(path)
    assert (loaded_kind, step) == (kind, 7)
    assert same_bits(loaded.theta, model.theta)


@settings(deadline=None)
@example(rows=[EDGES, EDGES[::-1]])
@given(rows=st.lists(st.lists(FINITE, min_size=12, max_size=12), min_size=1, max_size=9))
def test_dataset_reloads_any_finite_coordinate_bit_for_bit(rows):
    points = np.array(rows, dtype=float).reshape(-1, 4, 3)
    labels = np.arange(len(points)) % NUM_CLASSES
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset(LabeledShapeSet(points, labels), path)
        loaded = load_dataset(path)
    assert np.array_equal(loaded.labels, labels)
    assert same_bits(loaded.points, points)
