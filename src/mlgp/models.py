"""The three reference architectures and their model-level operations.

All models map a batch of 4-point 3D shapes, (batch, 4, 3), to (batch, 8)
class logits (softmax applied by the loss or by :func:`predict`):

* ``mlp``   - (x, 1), 13 -> linear(13 -> 6) -> ReLU -> (h, 1), 7 -> linear(7 -> 8); 134 params.
* ``mlhp``  - flatten to 12, lift to 14 -> linear(14 -> 5) -> lift to 7
              -> linear(7 -> 8), no biases; 126 params.
* ``mlgp``  - point-wise lift to 20 -> linear(20 -> 4) -> lift to 6
              -> linear(6 -> 8), no biases; 128 params.

The geometric first layer of ``mlgp`` admits an exact weight-space rigid
motion action (:func:`transform_mlgp_weights`): moving the input shape and
the weights together leaves every activation unchanged.
"""

from itertools import accumulate

import numpy as np

from . import _serialize
from .conformal import RigidMotion, motor_matrix_sphere
from .nn import Layer, check_count, check_labels, check_points, eval_blocks, forward, softmax

MLP = "mlp"
MLHP = "mlhp"
MLGP = "mlgp"
MODEL_KINDS = (MLP, MLHP, MLGP)

# (lift group, lifted in_dim, out_dim) per layer; group 0 is a dense layer, lifted to (x, 1)
ARCHITECTURES = {
    MLP: ((0, 13, 6), (0, 7, 8)),
    MLHP: ((12, 14, 5), (5, 7, 8)),
    MLGP: ((3, 20, 4), (4, 6, 8)),
}

CHECKPOINT_FORMAT = "mlgp-checkpoint-v3"


class Model:
    """A classifier whose parameters all live in one float64 vector ``theta``.

    ``theta`` holds, per layer of ``ARCHITECTURES[kind]``, the row-major weights (a dense
    layer's last column is its bias); ``layers`` view it, so copies, training and checkpoints
    handle one vector.  It starts at zero unless given as a float64 vector of its size.
    """

    def __init__(self, kind, theta=None):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        specs = ARCHITECTURES[kind]
        starts = (0, *accumulate(out_dim * in_dim for _, in_dim, out_dim in specs))
        self.kind = kind
        self.theta = theta = np.zeros(starts[-1]) if theta is None else theta
        if not (isinstance(theta, np.ndarray) and theta.dtype == float and theta.shape == starts[-1:]):
            raise ValueError(f"{kind} theta must be a float64 vector of size {starts[-1]}")
        spans = zip(specs, starts, starts[1:])
        self.layers = [Layer(*spec, self.theta[a:b]) for spec, a, b in spans]

    def copy(self):
        """An independent model with a copy of ``theta``."""
        return Model(self.kind, self.theta.copy())

    def __reduce__(self):
        """Pickle and deep-copy as kind and ``theta``: the copy's layers view its ``theta``."""
        return Model, (self.kind, self.theta)


def build_model(kind, rng=None):
    """A fresh model of ``kind``.

    The parameter counts are exactly 134 (mlp), 126 (mlhp), and 128 (mlgp).
    Each layer's weights, then a dense layer's biases, are drawn in one uniform
    draw in +-1/sqrt(fan_in), where a dense layer's fan-in leaves out its ones
    row; the biases fill the last column.  ``rng=None`` gives all-zero parameters.
    """
    model = Model(kind)
    if rng is not None:
        for layer in model.layers:
            fan_in = layer.in_dim - (layer.group == 0)
            bound = 1.0 / np.sqrt(fan_in)
            draw = np.split(rng.uniform(-bound, bound, layer.w.size), [layer.out_dim * fan_in])
            layer.w[:] = np.hstack([part.reshape(layer.out_dim, -1) for part in draw])
    return model


def transform_mlgp_weights(model, motion):
    """Apply a rigid motion to an mlgp model's geometric first layer.

    Each unit's weight vector splits into four consecutive 5-blocks; every
    block is left-multiplied by the sphere-form motor matrix of ``motion``.
    Returns a new model whose later layers are copied untouched.  The
    transformed model evaluated on moved inputs reproduces the original
    logits, and the inverse motion's transform undoes this one.
    """
    if model.kind != MLGP:
        raise ValueError(f"weight transform requires an mlgp model, got {model.kind}")
    if not isinstance(motion, RigidMotion):
        raise TypeError("motion must be a RigidMotion")
    out = model.copy()
    first = out.layers[0]
    blocks = first.w.reshape(first.out_dim, -1, first.group + 2)
    blocks[:] = np.einsum("ij,ukj->uki", motor_matrix_sphere(motion), blocks)
    return out


def predict(model, points):
    """Class labels (batch,) and softmax probabilities (batch, 8) of shapes.

    ``points`` is a (batch, 4, 3) batch, run block by block.  The label is the
    argmax of the logits; ties among the logits go to the lowest label.
    """
    points = check_points(points)
    logits = np.concatenate([forward(model, points[cols])[0] for cols in eval_blocks(len(points))])
    return np.argmax(logits, axis=1), softmax(logits)


# class c weighs 8 - c: of a row's top classes, the heaviest is the first
_FIRST_WINS = np.arange(8, 0, -1, dtype=np.int8)[:, None]


def hits(logits, labels):
    """How many (batch, 8) logits rows have their label as the argmax, the class ``np.argmax``
    picks (the first at the maximum, or the first NaN), found with no per-row argmax."""
    z = np.asarray(logits).T
    top = (z == z.max(axis=0)) | np.isnan(z)
    return int(np.count_nonzero((top * _FIRST_WINS).max(axis=0) == 8 - labels))


def accuracy(model, points, labels):
    """Fraction of shapes given their true label by :func:`predict`, counted block by block."""
    points = check_points(points)
    labels = check_labels(labels, len(points))
    total = sum(hits(forward(model, points[cols])[0], labels[cols])
                for cols in eval_blocks(len(points)))
    return total / len(points)


def save_checkpoint(path, kind, model, adam_step=0):
    """Write a model of ``kind`` to a text checkpoint that reloads bit for bit.

    The file is the JSON object ``{"format", "model", "adam_step", "theta"}``;
    what :func:`load_checkpoint` would reject raises ValueError instead.
    """
    if kind != model.kind:
        raise ValueError(f"cannot save a {model.kind} model as {kind!r}")
    check_count("adam_step", adam_step, 0)
    if not np.isfinite(model.theta).all():
        raise ValueError(f"cannot write {path}: theta is not finite")
    _serialize.save(path, {"format": CHECKPOINT_FORMAT, "model": kind,
                           "adam_step": int(adam_step), "theta": model.theta.tolist()})


def load_checkpoint(path):
    """Read a checkpoint; returns ``(kind, model, adam_step)``.

    A malformed file raises a one-line ValueError that names it: another
    format, a missing key, an unknown model, an ``adam_step`` other than a
    JSON integer >= 0, or a ``theta`` other than the model's finite floats.
    """
    doc = _serialize.load(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    try:
        kind, adam_step, theta = doc["model"], doc["adam_step"], doc["theta"]
    except KeyError as exc:
        raise ValueError(f"malformed checkpoint {path}: missing {exc}") from None
    if not (isinstance(theta, list) and all(type(v) is float for v in theta)
            and np.isfinite(theta).all()):
        raise ValueError(f"theta in {path} must be a list of finite floats")
    try:
        check_count("adam_step", adam_step, 0)
        return kind, Model(kind, np.array(theta)), adam_step
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
