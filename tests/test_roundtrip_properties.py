"""Property tests: any finite double survives every file the package writes bit for bit."""

import tempfile
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from mlgp.experiment import (
    RunRecord,
    StatRow,
    load_records,
    load_results,
    save_records,
    save_results,
)
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


def float_columns(rows):
    return [[getattr(r, f.name) for f in fields(r) if f.type is float] for r in rows]


@settings(deadline=None)
@example(values=EDGES)
@given(values=st.lists(FINITE, min_size=1, max_size=9))
def test_records_and_results_reload_any_finite_float_bit_for_bit(values):
    # every value lands in every float column of both tables
    v = [float(x) for x in values] * 3
    triples = list(zip(v, v[1:], v[2:]))[: len(values)]
    records = [RunRecord(i, "mlgp", 2**64 - 1 - i, a, b, c) for i, (a, b, c) in enumerate(triples)]
    stats = [StatRow("mlhp", "theta", a, "top_k", b, c) for a, b, c in triples]
    with tempfile.TemporaryDirectory() as tmp:
        save_records(Path(tmp) / "records.csv", records)
        save_results(Path(tmp) / "results.csv", stats)
        loaded = load_records(Path(tmp) / "records.csv"), load_results(Path(tmp) / "results.csv")
    for got, rows in zip(loaded, (records, stats)):
        assert list(map(astuple, got)) == list(map(astuple, rows))
        assert same_bits(float_columns(got), float_columns(rows))
