"""Tests for the canonical shapes, motion sampling, and dataset files."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from mlgp.conformal import RigidMotion, rotation_about_axis
from mlgp.tetris import (
    _CANONICAL,
    DATASET_ANGLES,
    DATASET_HEADER,
    LabeledShapeSet,
    MAIN,
    NUM_CLASSES,
    POINTS_PER_SHAPE,
    SHAPE_NAMES,
    THETA_EVAL,
    THETA_EVAL_ANGLES,
    THETA_TRAIN,
    THETA_TRAIN_ANGLES,
    T_RANGE,
    _draw_motions,
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
    # the size is an integer count of at least one shape per class
    for size in (4, 8.5, 64.0, "64", True):
        with pytest.raises(ValueError, match="size must be an integer >= 8"):
            make_dataset(MAIN, size)
    assert len(make_dataset(MAIN, np.int64(8))) == 8
    with pytest.raises(ValueError):
        make_dataset(MAIN, 40, noise_a=-0.1)
    for noise in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="noise"):
            make_dataset(MAIN, 40, noise_a=noise)
    # a string or a bool is not an amplitude; a NumPy float is
    for noise in ("0.1", True, None, 10**400):
        with pytest.raises(ValueError, match="^noise amplitude must be a real number"):
            make_dataset(MAIN, 8, noise)
    assert np.array_equal(make_dataset(MAIN, 8, np.float64(0.1), 3).points,
                          make_dataset(MAIN, 8, 0.1, 3).points)
    # 2.5 raised SeedSequence's TypeError and -1 NumPy's "expected non-negative
    # integer", neither naming the seed
    for seed in (2.5, -1, True, "3", None):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            make_dataset(MAIN, 16, 0.0, seed)
    assert np.array_equal(make_dataset(MAIN, 16, 0.0, np.uint64(2**64 - 1)).points,
                          make_dataset(MAIN, 16, 0.0, 2**64 - 1).points)


def test_make_dataset_deterministic():
    a = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=31)
    b = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=31)
    assert np.array_equal(a.points, b.points)
    c = make_dataset(THETA_TRAIN, 64, noise_a=0.1, seed=32)
    assert not np.array_equal(a.points, c.points)


def per_sample_motion(rng, kind):
    """The draw contract's next motion of dataset ``kind``, written out in full."""
    intervals = DATASET_ANGLES[kind]
    lengths = [hi - lo for lo, hi in intervals]
    axis = rng.standard_normal(3)
    if np.linalg.norm(axis) <= 1e-12:
        raise ValueError("drew a rotation axis of norm <= 1e-12")
    axis = axis / np.linalg.norm(axis)
    pick = rng.random() * sum(lengths)
    idx = int(np.searchsorted(np.cumsum(lengths), pick, side="right"))
    lo, hi = intervals[min(idx, len(intervals) - 1)]
    rotation = rotation_about_axis(axis, rng.uniform(lo, hi))
    return RigidMotion(rotation, rng.uniform(-T_RANGE, T_RANGE, 3))


def per_sample_dataset(kind, size, noise_a, seed):
    """make_dataset's draw contract, written out one sample at a time."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(size):
        motion = per_sample_motion(rng, kind)
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


@pytest.mark.parametrize("kind", [MAIN, THETA_TRAIN, THETA_EVAL])
def test_sample_motion_matches_the_per_sample_motions_bit_for_bit(kind):
    # each sample_motion call is a one-motion block of the sampler
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = sample_motion(rng, kind), per_sample_motion(ref, kind)
            assert np.array_equal(got.rotation, want.rotation), seed
            assert np.array_equal(got.translation, want.translation), seed


class ZeroFirstAxis:
    """A generator whose first ``zeros`` ``standard_normal`` draws come out as zeros."""

    def __init__(self, seed, zeros=1):
        self.rng = np.random.default_rng(seed)
        self.zeros_left = zeros

    def standard_normal(self, size=None, out=None):
        draw = self.rng.standard_normal(size, out=out)
        if self.zeros_left:
            self.zeros_left -= 1
            draw[...] = 0.0
        return draw

    def __getattr__(self, name):  # every other draw is the generator's own
        return getattr(self.rng, name)


def test_a_degenerate_axis_raises_instead_of_being_redrawn():
    for kind, noise_a in ((MAIN, 0.0), (THETA_EVAL, 0.2)):
        with pytest.raises(ValueError, match=r"^drew a rotation axis of norm <= 1e-12$"):
            _draw_motions(ZeroFirstAxis(0), kind, 5, noise_a)
    # the reference raises alike, and nonzero draws pass
    with pytest.raises(ValueError, match=r"^drew a rotation axis of norm <= 1e-12$"):
        per_sample_motion(ZeroFirstAxis(0), MAIN)
    rotations, _, _ = _draw_motions(ZeroFirstAxis(0, zeros=0), MAIN, 5, 0.0)
    assert np.allclose(rotations @ rotations.transpose(0, 2, 1), np.eye(3))


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


def test_save_dataset_refuses_what_load_dataset_refuses(tmp_path):
    data = make_dataset(MAIN, 10, seed=38)
    path = tmp_path / "bad.csv"
    bad = (
        (data.points, data.labels[:5], "got 5 labels for 10 shapes"),
        (data.points, data.labels + 0.5, "labels must be a vector"),
        (data.points, np.full(10, NUM_CLASSES), "labels must be a vector"),
        (data.points, data.labels[:, None], "labels must be a vector"),
        (data.points[:, :2], data.labels, "cannot reshape"),
        (data.points[:0], data.labels[:0], "no shapes"),
    )
    for points, labels, why in bad:
        with pytest.raises(ValueError, match=why):
            save_dataset(LabeledShapeSet(points, labels), path)
        assert not path.exists()


def _coordinates_file(path, fields):
    """A dataset file of label 1 and these coordinate strings, 12 per row."""
    rows = (",".join(["1", *fields[i:i + 12]]) for i in range(0, len(fields), 12))
    path.write_text(DATASET_HEADER + "\n" + "\n".join(rows) + "\n")


def test_load_dataset_parses_each_coordinate_as_float_does(tmp_path):
    rng = np.random.default_rng(39)
    fields = ["5e-324", "-5e-324", "2.2250738585072009e-308", "2.2250738585072014e-308",
              "1.7976931348623157e308", "-1.7976931348623157e308", "-0.0", "0.0",
              "2.4703282292062327e-324", "2.4703282292062328e-324", "1e400", "-1e-400"]
    fields = [f for f in fields if np.isfinite(float(f))]
    fields += map(repr, (rng.standard_normal(30) * 10.0 ** rng.integers(-300, 300, 30)).tolist())
    for digits in range(17, 41):
        fields.append("".join(map(str, rng.integers(0, 10, digits))) + f"e-{digits + 3}")
        fields.append("-0." + "".join(map(str, rng.integers(0, 10, digits))))
    fields += map(repr, rng.random(12 - len(fields) % 12).tolist())
    path = tmp_path / "exact.csv"
    _coordinates_file(path, fields)
    got = load_dataset(path).points.ravel()
    want = np.array([float(f) for f in fields])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_load_dataset_reads_what_the_c_reader_refuses_with_the_row_parser(tmp_path):
    path = tmp_path / "rows.csv"
    zeros = ["0"] * 11
    # a whitespace-only line is skipped and a 1_0 literal is ten, as int() and float() read them
    path.write_text(f"{DATASET_HEADER}\n1,{','.join(zeros)},2.5\n \t\n0_3,1_0,{','.join(zeros)}\n")
    data = load_dataset(path)
    assert data.labels.tolist() == [1, 3] and data.labels.dtype == np.int64
    assert data.points.flags.c_contiguous and data.points.shape == (2, 4, 3)
    assert np.array_equal(data.points.reshape(2, -1), [[0.0] * 11 + [2.5], [10.0] + [0.0] * 11])
    # a label is an integer literal, and a field padded with \x1c-\x1f does not parse
    for row, why in ((f"1.0,{','.join(zeros)},0", "invalid literal for int() with base 10: '1.0'"),
                     (f"\x1c1,{','.join(zeros)},0", "invalid literal for int()"),
                     (f"1,{','.join(zeros)},0\x1f", "could not convert string to float")):
        path.write_text(f"{DATASET_HEADER}\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: {why}")):
            load_dataset(path)


def test_load_dataset_names_the_first_bad_label_in_file_order(tmp_path):
    path = tmp_path / "labels.csv"
    zeros = ",".join(["0"] * 12)
    for rows, first in ((["1", "9", "-1"], "9"), (["-1", "9"], "-1"), (["1", "8", "abc"], "8")):
        path.write_text(DATASET_HEADER + "\n" + "".join(f"{r},{zeros}\n" for r in rows))
        with pytest.raises(ValueError, match=f"^label {first} out of range in "):
            load_dataset(path)


def test_load_dataset_holds_no_per_value_python_objects(tmp_path):
    # 10000 shapes as Python floats peaked at 5.8 MB; the parsed table is 1.04 MB
    path = tmp_path / "big.csv"
    save_dataset(make_dataset(MAIN, 10000, seed=40), path)
    tracemalloc.start()
    try:
        load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
