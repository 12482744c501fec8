"""The eight 3D Tetris shapes and seeded rigid-motion datasets.

Each sample is a 4x3 array of point coordinates produced by applying a random
rotation/translation to one of the canonical shapes, optionally followed by
uniform coordinate noise.  Three dataset kinds differ only in the rotation
angle range: the main kind uses all of [0, 2pi), while the theta-split kinds
use disjoint angle unions to probe generalization over unseen rotations.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _serialize
from .conformal import RigidMotion, rotation_about_axis

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

DATASET_HEADER = "label," + ",".join(f"{axis}{i}" for i in range(1, 5) for axis in "xyz")
_DATASET_TYPES = (int,) + (float,) * 3 * POINTS_PER_SHAPE


def canonical_shapes():
    """The 8 canonical shapes as an (8, 4, 3) array indexed by label."""
    return _CANONICAL.copy()


def _uniform(lo, hi, u):
    """``Generator.uniform(lo, hi)`` for the ``random()`` draw u, bit for bit."""
    return lo + (hi - lo) * u


def _draw_motions(rng, kind, n, noise_a):
    """Draw n rigid motions of dataset ``kind`` and, if ``noise_a > 0``, their noise.

    Returns (n, 3, 3) rotations, (n, 3) shifts and (n, 4, 3) noise or None;
    an unknown ``kind`` raises ValueError.  The draws are a contract.  Motion
    by motion, ``rng`` gives the rotation axis (``standard_normal(3)``,
    redrawn while its norm is at most 1e-12), the angle-interval pick
    (``random()`` times the union's length), the angle (``uniform(lo, hi)``),
    the translation (``uniform(-T_RANGE, T_RANGE, 3)``) and, when
    ``noise_a > 0``, the noise (``uniform(-noise_a, noise_a, (4, 3))``); the
    rotation is ``rotation_about_axis(axis / norm(axis), angle)``.  Drawing
    a motion's uniforms with one ``random(k)`` call changes no value.
    """
    if kind not in DATASET_ANGLES:
        raise ValueError(f"unknown dataset kind {kind!r}")
    bounds = np.array(DATASET_ANGLES[kind])
    lengths = bounds[:, 1] - bounds[:, 0]
    total, ends = lengths.sum(), np.cumsum(lengths)
    # per motion: interval pick, angle, 3 translation and 0 or 12 noise uniforms
    n_uniform = 5 + (POINTS_PER_SHAPE * 3 if noise_a > 0.0 else 0)
    normal, random = rng.standard_normal, rng.random
    axes = np.empty((n, 3))
    u = np.empty((n, n_uniform))
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
    rotations = rotation_about_axis(axes, _uniform(lo, hi, u[:, 1]))
    shifts = _uniform(-T_RANGE, T_RANGE, u[:, 2:5])
    if noise_a == 0.0:
        return rotations, shifts, None
    noise = _uniform(-noise_a, noise_a, u[:, 5:]).reshape(-1, POINTS_PER_SHAPE, 3)
    return rotations, shifts, noise


def sample_motion(rng, kind=MAIN):
    """Random rigid motion of dataset ``kind``, drawn as by :func:`_draw_motions`.

    An axis-uniform rotation by an angle uniform over the kind's angle union,
    then a translation uniform in the cube (-T_RANGE, T_RANGE)^3.
    """
    rotations, shifts, _ = _draw_motions(rng, kind, 1, 0.0)
    return RigidMotion(rotations[0], shifts[0])


@dataclass
class LabeledShapeSet:
    """A dataset split: per-sample 4x3 point arrays with labels in 0..7."""

    points: np.ndarray  # (n, 4, 3)
    labels: np.ndarray  # (n,)

    def __len__(self):
        return len(self.labels)


def make_dataset(kind, size, noise_a=0.0, seed=0):
    """Generate a class-balanced dataset of rigidly moved canonical shapes.

    Labels cycle 0..7, so per-class counts differ by at most one.  Sample i is
    shape ``i % 8`` moved by the i-th motion :func:`_draw_motions` draws from
    ``default_rng(seed)``, plus that motion's noise when ``noise_a > 0``:
    i.i.d. uniform in (-noise_a, noise_a) per coordinate.  Identical arguments
    give bit-identical datasets.
    """
    if size < NUM_CLASSES:
        raise ValueError(f"size must be at least {NUM_CLASSES}")
    if not (noise_a >= 0.0 and np.isfinite(2.0 * noise_a)):  # the width of (-a, a)
        raise ValueError(f"noise amplitude must be nonnegative with 2a finite, got {noise_a}")
    a = float(noise_a)
    rng = np.random.default_rng(seed)
    labels = np.arange(size, dtype=np.int64) % NUM_CLASSES
    points = np.empty((size, POINTS_PER_SHAPE, 3))
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        rot, shift, noise = _draw_motions(rng, kind, stop - start, a)
        shapes = _CANONICAL[labels[start:stop]]
        points[start:stop] = shapes @ rot.transpose(0, 2, 1) + shift[:, None, :]
        if noise is not None:
            points[start:stop] += noise
    return LabeledShapeSet(points, labels)


def save_dataset(dataset, path):
    """Write a dataset as CSV: label plus 12 coordinates per row.

    The floats reload bit-exact.  Non-finite coordinates, which
    :func:`load_dataset` refuses, raise ValueError.
    """
    if not np.all(np.isfinite(dataset.points)):
        raise ValueError("cannot save a dataset with a non-finite coordinate")
    labeled = zip(dataset.labels.tolist(), dataset.points)
    rows = ([label, *pts.ravel().tolist()] for label, pts in labeled)
    _serialize.save_table(path, DATASET_HEADER, rows)


def load_dataset(path):
    """Read a dataset written by :func:`save_dataset`; it holds at least one shape."""
    labels, coords = [], []
    for label, *xyz in _serialize.load_table(path, DATASET_HEADER, _DATASET_TYPES):
        if not 0 <= label < NUM_CLASSES:
            raise ValueError(f"label {label} out of range in {path}")
        labels.append(label)
        coords.append(xyz)
    if not labels:
        raise ValueError(f"no shapes in {path}")
    points = np.asarray(coords, dtype=float).reshape(-1, POINTS_PER_SHAPE, 3)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"non-finite coordinate in {path}")
    return LabeledShapeSet(points, np.asarray(labels, dtype=np.int64))
