"""Tests for the canonical shapes, motion sampling, and dataset files."""

import itertools

import numpy as np
import pytest

from mlgp.tetris import (
    DATASET_HEADER,
    MAIN,
    MAIN_ANGLES,
    NUM_CLASSES,
    POINTS_PER_SHAPE,
    SHAPE_NAMES,
    THETA_EVAL,
    THETA_EVAL_ANGLES,
    THETA_TRAIN,
    THETA_TRAIN_ANGLES,
    canonical_shapes,
    load_dataset,
    make_dataset,
    sample_angle,
    sample_motion,
    save_dataset,
)


def fit_rmsd(a, b, allow_reflection=False):
    """Least-squares superposition residual of two ordered point sets.

    Centers both sets, solves the orthogonal Procrustes problem by SVD,
    and (unless reflections are allowed) constrains the fit to a proper
    rotation.  Returns the root-mean-square point distance after the fit.
    """
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(b.T @ a)
    d = np.sign(np.linalg.det(u @ vt))
    if allow_reflection:
        d = 1.0
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    return float(np.sqrt(np.mean(np.sum((a @ rot.T - b) ** 2, axis=1))))


def test_canonical_shape_layout():
    shapes = canonical_shapes()
    assert shapes.shape == (NUM_CLASSES, POINTS_PER_SHAPE, 3)
    assert len(SHAPE_NAMES) == NUM_CLASSES
    # integer grid coordinates, each shape anchored at the origin
    assert np.array_equal(shapes, np.round(shapes))
    assert np.array_equal(shapes[:, 0], np.zeros((NUM_CLASSES, 3)))
    # 4 distinct points per shape
    for pts in shapes:
        assert len({tuple(p) for p in pts}) == POINTS_PER_SHAPE


def test_canonical_shapes_are_rigidly_distinct():
    # no proper rigid motion maps one shape onto another, under any point
    # relabeling, so the 8 classes stay separable after augmentation
    shapes = canonical_shapes()
    perms = list(itertools.permutations(range(POINTS_PER_SHAPE)))
    for i in range(NUM_CLASSES):
        for j in range(NUM_CLASSES):
            if i == j:
                continue
            best = min(fit_rmsd(shapes[i][list(p)], shapes[j]) for p in perms)
            assert best > 0.2, f"{SHAPE_NAMES[i]} overlaps {SHAPE_NAMES[j]}"


def test_chiral_pair_differs_only_by_reflection():
    shapes = canonical_shapes()
    perms = list(itertools.permutations(range(POINTS_PER_SHAPE)))
    a, b = shapes[0], shapes[1]
    reflected = min(
        fit_rmsd(a[list(p)], b, allow_reflection=True) for p in perms
    )
    assert reflected <= 1e-12
    # every other pair differs even with reflections allowed
    for i in range(NUM_CLASSES):
        for j in range(i + 1, NUM_CLASSES):
            if (i, j) == (0, 1):
                continue
            best = min(
                fit_rmsd(shapes[i][list(p)], shapes[j], allow_reflection=True)
                for p in perms
            )
            assert best > 0.2


def in_union(theta, intervals):
    return any(lo <= theta < hi or theta == hi for lo, hi in intervals)


def test_sample_angle_respects_intervals():
    rng = np.random.default_rng(20)
    for intervals in (MAIN_ANGLES, THETA_TRAIN_ANGLES, THETA_EVAL_ANGLES):
        for _ in range(500):
            theta = sample_angle(rng, intervals)
            assert in_union(theta, intervals)


def test_sample_angle_weights_by_length():
    # second theta-eval interval covers 3pi/4 of the 3pi/2 total
    rng = np.random.default_rng(21)
    draws = np.array([sample_angle(rng, THETA_EVAL_ANGLES) for _ in range(4000)])
    frac = np.mean(draws >= THETA_EVAL_ANGLES[1][0])
    assert abs(frac - 0.5) < 0.05


def test_sample_angle_validation():
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError):
        sample_angle(rng, ())
    with pytest.raises(ValueError):
        sample_angle(rng, ((-1.0, 1.0),))
    with pytest.raises(ValueError):
        sample_angle(rng, ((2.0, 1.0),))


def test_theta_split_intervals_are_disjoint():
    edges = sorted(THETA_TRAIN_ANGLES + THETA_EVAL_ANGLES)
    for (lo1, hi1), (lo2, hi2) in zip(edges, edges[1:]):
        assert hi1 <= lo2 + 1e-15
    total = sum(hi - lo for lo, hi in THETA_TRAIN_ANGLES + THETA_EVAL_ANGLES)
    assert abs(total - 2 * np.pi) <= 1e-12


def test_sample_motion_translation_range():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = sample_motion(rng, t_range=3.0)
        assert np.all(np.abs(m.translation) < 3.0)
    m = sample_motion(rng, t_range=0.0)
    assert np.array_equal(m.translation, np.zeros(3))
    with pytest.raises(ValueError):
        sample_motion(rng, t_range=-1.0)


def test_make_dataset_basics():
    data = make_dataset(MAIN, 40, seed=30)
    assert len(data) == 40
    assert data.points.shape == (40, POINTS_PER_SHAPE, 3)
    # labels cycle through the classes
    assert np.array_equal(data.labels, np.arange(40) % NUM_CLASSES)
    assert data.meta["kind"] == MAIN
    with pytest.raises(ValueError):
        make_dataset("nope", 40)
    with pytest.raises(ValueError):
        make_dataset(MAIN, 4)
    with pytest.raises(ValueError):
        make_dataset(MAIN, 40, noise_a=-0.1)


def test_make_dataset_deterministic():
    a = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=31)
    b = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=31)
    assert np.array_equal(a.points, b.points)
    c = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=32)
    assert not np.array_equal(a.points, c.points)


def test_noiseless_samples_are_rigid_copies():
    # pairwise point distances survive any rigid motion
    shapes = canonical_shapes()
    data = make_dataset(MAIN, 64, seed=33)
    for pts, label in zip(data.points, data.labels):
        want = shapes[label]
        for i in range(POINTS_PER_SHAPE):
            for j in range(i + 1, POINTS_PER_SHAPE):
                d_got = np.linalg.norm(pts[i] - pts[j])
                d_want = np.linalg.norm(want[i] - want[j])
                assert abs(d_got - d_want) <= 1e-9


def test_noise_perturbs_but_stays_bounded():
    clean = make_dataset(MAIN, 64, noise_a=0.0, seed=34)
    noisy = make_dataset(MAIN, 64, noise_a=0.2, seed=34)
    # same motions (same seed prefix per sample draw order differs once noise
    # draws interleave), so only check magnitude statistics
    assert not np.array_equal(clean.points, noisy.points)
    data = make_dataset(MAIN, 512, noise_a=0.2, seed=35)
    shapes = canonical_shapes()
    for pts, label in zip(data.points[:64], data.labels[:64]):
        want = shapes[label]
        d_got = np.linalg.norm(pts[0] - pts[1])
        d_want = np.linalg.norm(want[0] - want[1])
        # each coordinate moves at most 0.2, so distances move at most ~0.7
        assert abs(d_got - d_want) < 0.7


def test_dataset_roundtrip_bit_exact(tmp_path):
    data = make_dataset(THETA_EVAL, 48, noise_a=0.1, seed=36)
    path = tmp_path / "shapes.csv"
    save_dataset(data, path)
    text = path.read_text().splitlines()
    assert text[0] == DATASET_HEADER
    assert len(text) == 49
    loaded = load_dataset(path)
    assert np.array_equal(loaded.points, data.points)
    assert np.array_equal(loaded.labels, data.labels)


def test_load_dataset_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text(DATASET_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text(DATASET_HEADER + "\n9," + ",".join(["0"] * 12) + "\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_load_dataset_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    for bad in ("nan", "inf"):
        path.write_text(DATASET_HEADER + "\n1," + ",".join(["0"] * 11 + [bad]) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(path)
