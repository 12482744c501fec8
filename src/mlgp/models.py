"""The three reference architectures and their model-level operations.

All models map a batch of 4-point 3D shapes, (batch, 4, 3), to (batch, 8)
class logits (softmax applied by the loss or by :func:`predict`):

* ``mlp``   - Dense(12 -> 6, bias, ReLU) -> Dense(6 -> 8, bias); 134 params.
* ``mlhp``  - flatten to 12, lift to 14 -> linear(14 -> 5) -> lift to 7
              -> linear(7 -> 8), no biases; 126 params.
* ``mlgp``  - point-wise lift to 20 -> geometric(20 -> 4) -> lift to 6
              -> hypersphere(6 -> 8), no biases; 128 params.

A :class:`Model` is its kind plus one float64 vector ``theta``; layer shapes
come from ``ARCHITECTURES`` alone, and each layer's weights and bias are
views into ``theta``, so copies, training and checkpoints handle one vector.

The geometric first layer of ``mlgp`` admits an exact weight-space rigid
motion action (:func:`transform_mlgp_weights`): moving the input shape and
the weights together leaves every activation unchanged.
"""

from itertools import accumulate

import numpy as np

from . import _serialize
from .conformal import RigidMotion, motor_matrix_sphere
from .nn import DENSE, GEOMETRIC, HYPERSPHERE, Layer, forward, softmax

MLP = "mlp"
MLHP = "mlhp"
MLGP = "mlgp"
MODEL_KINDS = (MLP, MLHP, MLGP)

# (layer kind, lifted in_dim, out_dim, activation) per layer
ARCHITECTURES = {
    MLP: ((DENSE, 12, 6, "relu"), (DENSE, 6, 8, "identity")),
    MLHP: ((HYPERSPHERE, 14, 5, "identity"), (HYPERSPHERE, 7, 8, "identity")),
    MLGP: ((GEOMETRIC, 20, 4, "identity"), (HYPERSPHERE, 6, 8, "identity")),
}

CHECKPOINT_FORMAT = "mlgp-checkpoint-v1"


class Model:
    """A classifier whose parameters all live in one float64 vector ``theta``.

    ``theta`` holds, per layer of ``ARCHITECTURES[kind]``, the row-major
    weights, then a dense layer's bias; ``layers`` view it.  It starts at
    zero unless given as a float64 vector of the architecture's size.
    """

    def __init__(self, kind, theta=None):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        specs = ARCHITECTURES[kind]
        sizes = [out_dim * (in_dim + (lk == DENSE)) for lk, in_dim, out_dim, _ in specs]
        starts = (0, *accumulate(sizes))
        self.kind = kind
        self.theta = theta = np.zeros(starts[-1]) if theta is None else theta
        if not (isinstance(theta, np.ndarray) and theta.dtype == float and theta.shape == starts[-1:]):
            raise ValueError(f"{kind} theta must be a float64 vector of size {starts[-1]}")
        spans = zip(specs, starts, starts[1:])
        self.layers = [Layer(*spec, self.theta[a:b]) for spec, a, b in spans]

    def copy(self):
        """An independent model with a copy of ``theta``."""
        return Model(self.kind, self.theta.copy())


def build_model(kind, rng=None):
    """A fresh model of ``kind``.

    The parameter counts are exactly 134 (mlp), 126 (mlhp), and 128 (mlgp).
    Each layer's weights and bias are drawn in one uniform draw in
    +-1/sqrt(in_dim); ``rng=None`` gives all-zero parameters.
    """
    model = Model(kind)
    if rng is not None:
        for layer in model.layers:
            bound = 1.0 / np.sqrt(layer.in_dim)
            layer.params[:] = rng.uniform(-bound, bound, layer.params.size)
    return model


def param_count(model):
    return model.theta.size


def transform_mlgp_weights(model, motion):
    """Apply a rigid motion to an mlgp model's geometric first layer.

    Each unit's weight vector splits into four consecutive 5-blocks; every
    block is left-multiplied by the sphere-form motor matrix of ``motion``.
    Returns a new model whose later layers are copied untouched.  The
    transformed model evaluated on moved inputs reproduces the original
    logits, and the inverse motion's transform undoes this one.
    """
    if model.kind != MLGP:
        raise ValueError("weight transform requires an mlgp model")
    if not isinstance(motion, RigidMotion):
        raise TypeError("motion must be a RigidMotion")
    out = model.copy()
    first = out.layers[0]
    blocks = first.w.reshape(first.out_dim, -1, first.group + 2)
    blocks[:] = np.einsum("ij,ukj->uki", motor_matrix_sphere(motion), blocks)
    return out


def predict(model, points):
    """Class labels (batch,) and softmax probabilities (batch, 8) of shapes.

    ``points`` is a (batch, 4, 3) batch.  The label is the argmax of the
    logits; ties among the logits go to the lowest label.
    """
    logits, _ = forward(model, points, keep_trace=False)
    return np.argmax(logits, axis=1), softmax(logits)


def accuracy(model, points, labels):
    """Fraction of shapes assigned their true label (see :func:`predict`), in [0, 1]."""
    logits, _ = forward(model, points, keep_trace=False)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def save_checkpoint(path, kind, model, adam_step=0):
    """Write a model of ``kind`` to a text checkpoint that reloads bit for bit."""
    if kind != model.kind:
        raise ValueError(f"cannot save a {model.kind} model as {kind!r}")
    doc = {
        "format": CHECKPOINT_FORMAT,
        "model": kind,
        "adam_step": int(adam_step),
        "layers": [
            {
                "kind": layer.kind,
                "in_dim": layer.in_dim,
                "out_dim": layer.out_dim,
                "activation": layer.activation,
                "weights": layer.w,
                "bias": layer.b,
            }
            for layer in model.layers
        ],
    }
    _serialize.save(path, doc)


def load_checkpoint(path):
    """Read a checkpoint; returns ``(kind, model, adam_step)``.

    A malformed file raises ValueError: a missing key, an unknown model, a
    layer list other than the model's architecture, or a misshapen or
    non-finite parameter.  The layers are checked against ``ARCHITECTURES``
    before anything is allocated.
    """
    doc = _serialize.load(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    try:
        kind = doc["model"]
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r} in {path}")
        specs = doc["layers"]
        stated = ((s["kind"], s["in_dim"], s["out_dim"], s["activation"]) for s in specs)
        if tuple(stated) != ARCHITECTURES[kind]:
            raise ValueError(f"layers in {path} do not match the {kind} architecture")
        model = Model(kind)
        for layer, spec in zip(model.layers, specs):
            layer.w[:] = _load_param(spec["weights"], layer.w.shape, path)
            if layer.b is not None:
                layer.b[:] = _load_param(spec["bias"], layer.b.shape, path)
            elif spec["bias"] is not None:
                raise ValueError(f"unexpected bias in {path}")
        adam_step = int(doc["adam_step"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc!r}") from None
    return kind, model, adam_step


def _load_param(values, shape, path):
    param = np.asarray(values, dtype=float)
    if param.shape != shape or not np.all(np.isfinite(param)):
        raise ValueError(f"parameters in {path} must be finite with shape {shape}")
    return param
