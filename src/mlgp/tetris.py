"""The eight 3D Tetris shapes and seeded rigid-motion datasets.

Each sample is a 4x3 array of point coordinates produced by applying a random
rotation/translation to one of the canonical shapes, optionally followed by
uniform coordinate noise.  Three dataset kinds differ only in the rotation
angle range: the main kind uses all of [0, 2pi), while the theta-split kinds
use disjoint angle unions to probe generalization over unseen rotations.
"""

import numpy as np
from dataclasses import dataclass, field

from .conformal import RigidMotion, random_rotation

TWO_PI = 2.0 * np.pi

NUM_CLASSES = 8
POINTS_PER_SHAPE = 4

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


def sample_motion(rng, angle_intervals=MAIN_ANGLES, t_range=3.0):
    """Random rigid motion: axis-uniform rotation plus a cube translation.

    The rotation angle is uniform over the interval union; each translation
    component is i.i.d. uniform in (-t_range, t_range).
    """
    if t_range < 0.0:
        raise ValueError("t_range must be nonnegative")
    rotation = random_rotation(rng, lambda r: sample_angle(r, angle_intervals))
    translation = rng.uniform(-t_range, t_range, 3)
    return RigidMotion(rotation, translation)


@dataclass
class LabeledShapeSet:
    """A dataset split: per-sample 4x3 point arrays with labels in 0..7."""

    points: np.ndarray  # (n, 4, 3)
    labels: np.ndarray  # (n,)
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.labels)


def make_dataset(kind, size, noise_a=0.0, seed=0, t_range=3.0):
    """Generate a class-balanced dataset of rigidly moved canonical shapes.

    Labels cycle 0..7, so per-class counts differ by at most one.  Noise, when
    ``noise_a > 0``, is i.i.d. uniform in (-noise_a, noise_a) per coordinate
    and is added after the rigid motion.  Identical arguments produce
    bit-identical datasets.
    """
    if kind not in DATASET_ANGLES:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if size < NUM_CLASSES:
        raise ValueError(f"size must be at least {NUM_CLASSES}")
    if noise_a < 0.0:
        raise ValueError("noise amplitude must be nonnegative")
    intervals = DATASET_ANGLES[kind]
    rng = np.random.default_rng(seed)
    labels = np.arange(size, dtype=np.int64) % NUM_CLASSES
    points = np.empty((size, POINTS_PER_SHAPE, 3))
    for i in range(size):
        motion = sample_motion(rng, intervals, t_range)
        sample = motion.apply(_CANONICAL[labels[i]])
        if noise_a > 0.0:
            sample = sample + rng.uniform(-noise_a, noise_a, (POINTS_PER_SHAPE, 3))
        points[i] = sample
    meta = {
        "seed": int(seed),
        "kind": kind,
        "noise_a": float(noise_a),
        "angle_intervals": intervals,
        "t_range": float(t_range),
    }
    return LabeledShapeSet(points, labels, meta)


def save_dataset(dataset, path):
    """Write a dataset as CSV: label plus 12 coordinates per row.

    Floats are written by ``repr``, so a reload is bit-exact.
    """
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
