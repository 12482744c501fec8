"""The three reference architectures and their model-level operations.

All models map a 4-point 3D shape to 8 class logits (softmax applied by the
loss or by :func:`predict`):

* ``mlp``   - Dense(12 -> 6, bias, ReLU) -> Dense(6 -> 8, bias); 134 params.
* ``mlhp``  - flatten to 12, lift to 14 -> linear(14 -> 5) -> lift to 7
              -> linear(7 -> 8), no biases; 126 params.
* ``mlgp``  - point-wise lift to 20 -> geometric(20 -> 4) -> lift to 6
              -> hypersphere(6 -> 8), no biases; 128 params.

The geometric first layer of ``mlgp`` admits an exact weight-space rigid
motion action (:func:`transform_mlgp_weights`): moving the input shape and
the weights together leaves every activation unchanged.
"""

import numpy as np

from . import _serialize
from .conformal import RigidMotion, motor_matrix_sphere
from .nn import (
    DENSE,
    GEOMETRIC,
    HYPERSPHERE,
    Layer,
    forward,
    softmax,
)

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


def build_model(kind, rng=None):
    """Construct a fresh layer chain for ``kind``.

    The parameter counts are exactly 134 (mlp), 126 (mlhp), and 128 (mlgp).
    ``rng=None`` gives all-zero parameters.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return [Layer(*spec, rng=rng) for spec in ARCHITECTURES[kind]]


def param_count(layers):
    return sum(layer.param_count for layer in layers)


def copy_layers(layers):
    """Deep copy of a chain (weights and biases duplicated)."""
    out = []
    for layer in layers:
        dup = Layer(layer.kind, layer.in_dim, layer.out_dim, layer.activation)
        dup.w = layer.w.copy()
        dup.b = layer.b.copy() if layer.b is not None else None
        out.append(dup)
    return out


def transform_mlgp_weights(layers, motion):
    """Apply a rigid motion to a geometric first layer, in weight space.

    Each unit's weight vector splits into four consecutive 5-blocks; every
    block is left-multiplied by the sphere-form motor matrix of ``motion``.
    Returns a new chain; later layers are copied untouched.  The transformed
    model evaluated on moved inputs reproduces the original logits, and the
    inverse motion's transform undoes this one.
    """
    if not layers or layers[0].kind != GEOMETRIC:
        raise ValueError("weight transform requires a geometric first layer")
    if not isinstance(motion, RigidMotion):
        raise TypeError("motion must be a RigidMotion")
    out = copy_layers(layers)
    first = out[0]
    mat = motor_matrix_sphere(motion)
    blocks = first.w.reshape(first.out_dim, -1, first.group + 2)
    first.w = np.einsum("ij,ukj->uki", mat, blocks).reshape(first.w.shape)
    return out


def predict(layers, points):
    """Class labels and softmax probabilities for one shape or a batch.

    Argmax ties resolve to the lowest label index.
    """
    logits, _ = forward(layers, points)
    probs = softmax(logits)
    labels = np.argmax(probs, axis=-1)
    if probs.ndim == 1:
        return int(labels), probs
    return labels, probs


def accuracy(layers, points, labels):
    """Fraction of shapes assigned their true label, in [0, 1]."""
    predicted, _ = predict(layers, points)
    return float(np.mean(predicted == np.asarray(labels)))


def save_checkpoint(path, kind, layers, adam_step=0):
    """Write a model to a text checkpoint that reloads bit for bit."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
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
            for layer in layers
        ],
    }
    _serialize.save(path, doc)


def load_checkpoint(path):
    """Read a checkpoint; returns ``(kind, layers, adam_step)``.

    A malformed file raises ValueError: a missing key, an unknown model,
    layer kind or activation, a misshapen or non-finite parameter, or layer
    widths that do not chain from the 12 shape coordinates to the 8 logits.
    """
    doc = _serialize.load(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    try:
        kind = doc["model"]
        layers = [_load_layer(spec, path) for spec in doc["layers"]]
        adam_step = int(doc["adam_step"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc!r}") from None
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r} in {path}")
    produced = [12] + [layer.out_dim for layer in layers]
    consumed = [layer.pre_embed_dim for layer in layers] + [8]
    if produced != consumed:
        raise ValueError(f"layer widths do not chain 12 -> ... -> 8 in {path}")
    return kind, layers, adam_step


def _load_layer(spec, path):
    layer = Layer(spec["kind"], spec["in_dim"], spec["out_dim"], spec["activation"])
    layer.w = _load_param(spec["weights"], layer.w.shape, path)
    if layer.b is not None or spec["bias"] is not None:
        layer.b = _load_param(spec["bias"], np.shape(layer.b), path)
    return layer


def _load_param(values, shape, path):
    param = np.asarray(values, dtype=float)
    if param.shape != shape or not np.all(np.isfinite(param)):
        raise ValueError(f"parameters in {path} must be finite with shape {shape}")
    return param
