"""The eight 3D Tetris shapes and seeded rigid-motion datasets.

Each sample is a 4x3 array of point coordinates produced by applying a random
rotation/translation to one of the canonical shapes, optionally followed by
uniform coordinate noise.  Three dataset kinds differ only in the rotation
angle range: the main kind uses all of [0, 2pi), while the theta-split kinds
use disjoint angle unions to probe generalization over unseen rotations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import RigidMotion, random_rotation, rotation_about_axis

TWO_PI = 2.0 * np.pi

NUM_CLASSES = 8
POINTS_PER_SHAPE = 4

# every translation component is uniform in (-T_RANGE, T_RANGE)
T_RANGE = 3.0

# make_dataset moves this many shapes at a time; the output does not depend
# on it, and small blocks keep the draw buffers out of the peak memory
_BLOCK = 1024

SHAPE_NAMES = (
    "chiral_one",
    "chiral_two",
    "square",
    "line",
    "corner",
    "ell",
    "tee",
    "zigzag",
)

# Integer-grid canonical coordinates, one row of 4 points per label.
# chiral_one and chiral_two are reflections of each other (y -> -y).
_CANONICAL = np.array(
    [
        [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 1, 0]],
        [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, -1, 0]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 1]],
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0]],
    ],
    dtype=float,
)

MAIN_ANGLES = ((0.0, TWO_PI),)
THETA_TRAIN_ANGLES = ((0.0, np.pi / 4), (np.pi, 5 * np.pi / 4))
THETA_EVAL_ANGLES = ((np.pi / 4, np.pi), (5 * np.pi / 4, TWO_PI))

MAIN = "main"
THETA_TRAIN = "theta_train"
THETA_EVAL = "theta_eval"

DATASET_ANGLES = {
    MAIN: MAIN_ANGLES,
    THETA_TRAIN: THETA_TRAIN_ANGLES,
    THETA_EVAL: THETA_EVAL_ANGLES,
}

DATASET_HEADER = "label," + ",".join(
    f"{axis}{i}" for i in range(1, 5) for axis in "xyz"
)


def canonical_shapes():
    """The 8 canonical shapes as an (8, 4, 3) array indexed by label."""
    return _CANONICAL.copy()


def _check_intervals(intervals):
    intervals = tuple((float(lo), float(hi)) for lo, hi in intervals)
    if not intervals:
        raise ValueError("angle interval union is empty")
    for lo, hi in intervals:
        if not (0.0 <= lo <= hi <= TWO_PI):
            raise ValueError(f"bad angle interval [{lo}, {hi})")
    return intervals


def sample_angle(rng, intervals):
    """Draw an angle uniformly from a union of half-open intervals.

    An interval is chosen with probability proportional to its length, then
    the angle is drawn uniformly within it.  A union of zero total length is
    allowed and returns one of the interval endpoints.
    """
    intervals = _check_intervals(intervals)
    lengths = np.array([hi - lo for lo, hi in intervals])
    total = lengths.sum()
    if total == 0.0:
        lo, _ = intervals[rng.integers(len(intervals))]
        return lo
    pick = rng.random() * total
    idx = int(np.searchsorted(np.cumsum(lengths), pick, side="right"))
    lo, hi = intervals[min(idx, len(intervals) - 1)]
    return rng.uniform(lo, hi)


def sample_motion(rng, angle_intervals=MAIN_ANGLES):
    """Random rigid motion: axis-uniform rotation plus a cube translation.

    The rotation angle is uniform over the interval union; each translation
    component is i.i.d. uniform in (-T_RANGE, T_RANGE).
    """
    rotation = random_rotation(rng, lambda r: sample_angle(r, angle_intervals))
    translation = rng.uniform(-T_RANGE, T_RANGE, 3)
    return RigidMotion(rotation, translation)


def _uniform(lo, hi, u):
    """``Generator.uniform(lo, hi)`` for the ``random()`` draw u, bit for bit."""
    return lo + (hi - lo) * u


@dataclass
class LabeledShapeSet:
    """A dataset split: per-sample 4x3 point arrays with labels in 0..7."""

    points: np.ndarray  # (n, 4, 3)
    labels: np.ndarray  # (n,)
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.labels)


def make_dataset(kind, size, noise_a=0.0, seed=0):
    """Generate a class-balanced dataset of rigidly moved canonical shapes.

    Labels cycle 0..7, so per-class counts differ by at most one.  Noise, when
    ``noise_a > 0``, is i.i.d. uniform in (-noise_a, noise_a) per coordinate
    and is added after the rigid motion.  Identical arguments produce
    bit-identical datasets.

    The draws are a contract.  Sample by sample, ``default_rng(seed)`` gives
    the rotation axis (``standard_normal(3)``, redrawn while its norm is at
    most 1e-12), the angle-interval pick (``random()`` times the union's
    length), the angle (``uniform(lo, hi)``), the translation
    (``uniform(-T_RANGE, T_RANGE, 3)``) and, when ``noise_a > 0``, the noise
    (``uniform(-noise_a, noise_a, (4, 3))``): each sample is
    ``sample_motion(rng, DATASET_ANGLES[kind]).apply(shape)`` plus its noise.
    The samples are drawn and moved in blocks of ``_BLOCK``, with one batched
    rotation and matmul per block; neither the blocks nor drawing a sample's
    uniforms with one ``random(k)`` call changes the output.
    """
    if kind not in DATASET_ANGLES:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if size < NUM_CLASSES:
        raise ValueError(f"size must be at least {NUM_CLASSES}")
    if not (noise_a >= 0.0 and np.isfinite(2.0 * noise_a)):  # the width of (-a, a)
        raise ValueError(f"noise amplitude must be nonnegative with 2a finite, got {noise_a}")
    intervals = DATASET_ANGLES[kind]
    bounds = np.array(intervals)
    lengths = bounds[:, 1] - bounds[:, 0]
    total, ends = lengths.sum(), np.cumsum(lengths)
    a = float(noise_a)
    # per sample: interval pick, angle, 3 translation and 0 or 12 noise uniforms
    n_uniform = 5 + (POINTS_PER_SHAPE * 3 if a > 0.0 else 0)
    rng = np.random.default_rng(seed)
    normal, random = rng.standard_normal, rng.random
    labels = np.arange(size, dtype=np.int64) % NUM_CLASSES
    points = np.empty((size, POINTS_PER_SHAPE, 3))
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        axes = np.empty((stop - start, 3))
        u = np.empty((stop - start, n_uniform))
        norms = []
        for axis, draws in zip(axes, u):
            normal(out=axis)
            # sqrt(axis @ axis) is the norm np.linalg.norm takes of one vector
            while (norm := math.sqrt(axis.dot(axis))) <= 1e-12:
                normal(out=axis)
            norms.append(norm)
            random(out=draws)
        axes /= np.array(norms)[:, None]
        pick = np.searchsorted(ends, u[:, 0] * total, side="right")
        lo, hi = bounds[np.minimum(pick, len(bounds) - 1)].T
        rot = rotation_about_axis(axes, _uniform(lo, hi, u[:, 1]))
        shift = _uniform(-T_RANGE, T_RANGE, u[:, 2:5])
        shapes = _CANONICAL[labels[start:stop]]
        points[start:stop] = shapes @ rot.transpose(0, 2, 1) + shift[:, None, :]
        if a > 0.0:
            points[start:stop] += _uniform(-a, a, u[:, 5:]).reshape(-1, POINTS_PER_SHAPE, 3)
    meta = {
        "seed": int(seed),
        "kind": kind,
        "noise_a": float(noise_a),
        "angle_intervals": intervals,
        "t_range": T_RANGE,
    }
    return LabeledShapeSet(points, labels, meta)


def save_dataset(dataset, path):
    """Write a dataset as CSV: label plus 12 coordinates per row.

    Floats are written by ``repr``, so a reload is bit-exact.  Non-finite
    coordinates, which :func:`load_dataset` refuses, raise ValueError.
    """
    if not np.all(np.isfinite(dataset.points)):
        raise ValueError("cannot save a dataset with a non-finite coordinate")
    with open(path, "w") as fh:
        fh.write(DATASET_HEADER + "\n")
        for label, pts in zip(dataset.labels, dataset.points):
            coords = ",".join(repr(v) for v in pts.ravel().tolist())
            fh.write(f"{int(label)},{coords}\n")


def load_dataset(path):
    """Read a dataset written by :func:`save_dataset`."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != DATASET_HEADER:
            raise ValueError(f"unexpected dataset header {header!r}")
        labels = []
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 13:
                raise ValueError(f"expected 13 fields, got {len(fields)}")
            label = int(fields[0])
            if not 0 <= label < NUM_CLASSES:
                raise ValueError(f"label {label} out of range")
            labels.append(label)
            rows.append([float(v) for v in fields[1:]])
    points = np.asarray(rows, dtype=float).reshape(-1, POINTS_PER_SHAPE, 3)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"non-finite coordinate in {path}")
    return LabeledShapeSet(points, np.asarray(labels, dtype=np.int64), {})
