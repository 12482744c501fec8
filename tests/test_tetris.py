"""Tests for the canonical shapes, motion sampling, and dataset files."""

import itertools
import re

import numpy as np
import pytest

from mlgp.conformal import RigidMotion, rotation_about_axis
from mlgp.tetris import (
    _CANONICAL,
    DATASET_ANGLES,
    DATASET_HEADER,
    MAIN,
    NUM_CLASSES,
    POINTS_PER_SHAPE,
    SHAPE_NAMES,
    THETA_EVAL,
    THETA_EVAL_ANGLES,
    THETA_TRAIN,
    THETA_TRAIN_ANGLES,
    T_RANGE,
    canonical_shapes,
    load_dataset,
    make_dataset,
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


def rotation_angles(motions):
    """Rotation angle in [0, pi] of each motion, from the trace of its matrix."""
    traces = np.array([np.trace(m.rotation) for m in motions])
    return np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))


def in_folded_union(theta, intervals):
    """Whether a turn by theta in [0, pi] can come from an angle in the union.

    A turn by phi in [pi, 2pi) is a turn by 2pi - phi about the opposite axis.
    """
    return any(
        lo - 1e-9 <= angle <= hi + 1e-9
        for lo, hi in intervals
        for angle in (theta, 2 * np.pi - theta)
    )


def test_sample_angle_respects_intervals():
    # folded, theta_train is [0, pi/4] and [3pi/4, pi]: it never turns in between
    rng = np.random.default_rng(20)
    for kind, intervals in DATASET_ANGLES.items():
        angles = rotation_angles(sample_motion(rng, kind) for _ in range(500))
        assert all(in_folded_union(theta, intervals) for theta in angles)
    # the main kind does turn into that gap, so the check above can fail
    main = rotation_angles(sample_motion(rng) for _ in range(400))
    assert not all(in_folded_union(theta, THETA_TRAIN_ANGLES) for theta in main)


def test_sample_angle_weights_by_length():
    # both theta_train intervals are pi/4 long, so each side holds about half
    rng = np.random.default_rng(21)
    angles = rotation_angles(sample_motion(rng, THETA_TRAIN) for _ in range(4000))
    low = angles <= np.pi / 4 + 1e-9
    assert np.all(low | (angles >= 3 * np.pi / 4 - 1e-9))
    assert abs(np.mean(low) - 0.5) < 0.05


def test_sample_angle_validation():
    # the angles come from a dataset kind; a raw interval union is not one
    rng = np.random.default_rng(22)
    for kind in ("nope", THETA_TRAIN_ANGLES, ((0.0, 2 * np.pi),)):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            sample_motion(rng, kind)


def test_theta_split_intervals_are_disjoint():
    edges = sorted(THETA_TRAIN_ANGLES + THETA_EVAL_ANGLES)
    for (lo1, hi1), (lo2, hi2) in zip(edges, edges[1:]):
        assert hi1 <= lo2 + 1e-15
    total = sum(hi - lo for lo, hi in THETA_TRAIN_ANGLES + THETA_EVAL_ANGLES)
    assert abs(total - 2 * np.pi) <= 1e-12


def test_sample_motion_translation_range():
    rng = np.random.default_rng(23)
    shifts = np.array([sample_motion(rng).translation for _ in range(200)])
    assert np.all(np.abs(shifts) < T_RANGE)
    # the draws spread over the cube, not a fraction of it
    assert shifts.min() < -0.9 * T_RANGE and shifts.max() > 0.9 * T_RANGE


def test_make_dataset_basics():
    data = make_dataset(MAIN, 40, seed=30)
    assert len(data) == 40
    assert data.points.shape == (40, POINTS_PER_SHAPE, 3)
    # labels cycle through the classes
    assert np.array_equal(data.labels, np.arange(40) % NUM_CLASSES)
    with pytest.raises(ValueError):
        make_dataset("nope", 40)
    with pytest.raises(ValueError):
        make_dataset(MAIN, 4)
    with pytest.raises(ValueError):
        make_dataset(MAIN, 40, noise_a=-0.1)
    for noise in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="noise"):
            make_dataset(MAIN, 40, noise_a=noise)


def test_make_dataset_deterministic():
    a = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=31)
    b = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=31)
    assert np.array_equal(a.points, b.points)
    c = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=32)
    assert not np.array_equal(a.points, c.points)


def per_sample_dataset(kind, size, noise_a, seed):
    """make_dataset's draw contract, written out one sample at a time."""
    intervals = DATASET_ANGLES[kind]
    lengths = [hi - lo for lo, hi in intervals]
    rng = np.random.default_rng(seed)
    points = []
    for i in range(size):
        axis = rng.standard_normal(3)
        while np.linalg.norm(axis) <= 1e-12:
            axis = rng.standard_normal(3)
        axis = axis / np.linalg.norm(axis)
        pick = rng.random() * sum(lengths)
        idx = int(np.searchsorted(np.cumsum(lengths), pick, side="right"))
        lo, hi = intervals[min(idx, len(intervals) - 1)]
        rotation = rotation_about_axis(axis, rng.uniform(lo, hi))
        motion = RigidMotion(rotation, rng.uniform(-T_RANGE, T_RANGE, 3))
        sample = motion.apply(_CANONICAL[i % NUM_CLASSES])
        if noise_a > 0.0:
            sample = sample + rng.uniform(-noise_a, noise_a, (POINTS_PER_SHAPE, 3))
        points.append(sample)
    return np.array(points)


@pytest.mark.parametrize("kind", [MAIN, THETA_TRAIN, THETA_EVAL])
def test_make_dataset_matches_per_sample_motions_bit_for_bit(kind):
    # the sizes straddle the sampler's 1024-shape blocks
    for size, noise_a, seed in itertools.product((8, 1023, 1024, 1025, 2049), (0.0, 0.2), (0, 1)):
        got = make_dataset(kind, size, noise_a, seed).points
        assert np.array_equal(got, per_sample_dataset(kind, size, noise_a, seed)), (size, noise_a, seed)


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
    zeros = ",".join(["0"] * 12)
    # a wrong header, a short row, a long row, a label out of range, no shapes
    for text in ("nope\n", f"{DATASET_HEADER}\n1,2,3\n", f"{DATASET_HEADER}\n1,{zeros},0\n",
                 f"{DATASET_HEADER}\n9,{zeros}\n", f"{DATASET_HEADER}\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            load_dataset(path)
        assert "\n" not in str(err.value)
    # a field that does not parse is named with its file and line (blank lines count)
    for row, why in ((f"1,abc,{zeros[2:]}", "'abc'"), (f"x,{zeros}", "'x'")):
        path.write_text(f"{DATASET_HEADER}\n1,{zeros}\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: ")) as err:
            load_dataset(path)
        assert why in str(err.value) and "\n" not in str(err.value)


def test_load_dataset_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    for bad in ("nan", "inf"):
        path.write_text(DATASET_HEADER + "\n1," + ",".join(["0"] * 11 + [bad]) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(path)


def test_save_dataset_rejects_non_finite(tmp_path):
    data = make_dataset(MAIN, 8, seed=37)
    for bad in (np.nan, np.inf):
        data.points[3, 2, 1] = bad
        path = tmp_path / f"{bad}.csv"
        with pytest.raises(ValueError, match="non-finite"):
            save_dataset(data, path)
        assert not path.exists()
