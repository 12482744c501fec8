"""Layers, exact hand-derived gradients, softmax cross-entropy, and Adam.

Every layer computes ``activation(W @ lift(x, group))`` with the conformal
lift of :mod:`mlgp.conformal`.  The layer kinds differ only in ``group``:
``dense`` has 0 (no lift; a bias instead), ``geometric`` has 3 (each 3D
point becomes a 5-dim block), and ``hypersphere`` has the input width m
(the whole input becomes one (m+2)-dim point).  The lift is parameter-free
but nonlinear, so the backward pass routes gradients through its adjoint,
``lift_grad``.  Everything is float64 and vectorized over a batch axis.
"""

import numpy as np
from dataclasses import dataclass

from .conformal import lift, lift_grad

DENSE = "dense"
GEOMETRIC = "geometric"
HYPERSPHERE = "hypersphere"
LAYER_KINDS = (DENSE, GEOMETRIC, HYPERSPHERE)

ACTIVATIONS = ("identity", "sigmoid", "tanh", "relu")


def apply_activation(name, z):
    if name == "identity":
        return z
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {name!r}")


def activation_derivative(name, z, out):
    """Elementwise f'(z), reusing the forward output where it helps."""
    if name == "identity":
        return np.ones_like(z)
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "tanh":
        return 1.0 - out * out
    if name == "relu":
        # subgradient at 0 is 0
        return (z > 0.0).astype(float)
    raise ValueError(f"unknown activation {name!r}")


def embed_pointwise(points):
    """Lift each 3D point of a (k, 3) or (batch, k, 3) array and concatenate.

    Every point row (x, y, z) becomes (x, y, z, -1, -||p||^2/2); the k lifted
    rows are flattened row-wise into a length-5k vector.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 3:
        raise ValueError(f"expected (..., k, 3) points, got shape {pts.shape}")
    return lift(pts.reshape(pts.shape[:-2] + (-1,)), 3)


class Layer:
    """One trainable layer: weight matrix, optional bias, activation.

    ``in_dim`` counts the features the weights multiply, i.e. after any lift:
    5k for geometric (k input points), m+2 for hypersphere (m-dim input).
    ``group``, the input coordinates per lifted block, follows from ``kind``.
    Weights (and the dense bias) initialize uniformly in +-1/sqrt(in_dim).
    """

    def __init__(self, kind, in_dim, out_dim, activation="identity", rng=None):
        if kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {kind!r}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        group = {DENSE: 0, GEOMETRIC: 3, HYPERSPHERE: int(in_dim) - 2}[kind]
        has_bias = kind == DENSE
        if not has_bias and (group < 1 or in_dim % (group + 2)):
            raise ValueError(f"{kind} layer cannot take in_dim {in_dim}")
        self.kind = kind
        self.group = group
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        if rng is None:
            self.w = np.zeros((out_dim, in_dim))
            self.b = np.zeros(out_dim) if has_bias else None
        else:
            bound = 1.0 / np.sqrt(in_dim)
            self.w = rng.uniform(-bound, bound, (out_dim, in_dim))
            self.b = rng.uniform(-bound, bound, out_dim) if has_bias else None

    @property
    def pre_embed_dim(self):
        """Width of the raw input this layer consumes, before any lift."""
        if self.group == 0:
            return self.in_dim
        return self.in_dim // (self.group + 2) * self.group

    @property
    def param_count(self):
        return self.w.size + (self.b.size if self.b is not None else 0)


@dataclass
class LayerTrace:
    """Per-layer forward record: everything backward needs."""

    pre_embed: np.ndarray  # raw input (batch, m); None when precomputed
    embedded: np.ndarray   # features the weights multiplied (batch, in_dim)
    pre_act: np.ndarray    # (batch, out_dim)
    out: np.ndarray        # activation(pre_act)


def _embed_for_layer(layer, x):
    if x.shape[1] != layer.pre_embed_dim:
        raise ValueError(
            f"{layer.kind} layer expects {layer.pre_embed_dim} inputs, "
            f"got {x.shape[1]}"
        )
    return lift(x, layer.group)


def embed_input(layer, points):
    """First-layer feature lift of raw (4, 3)-style inputs.

    Parameter-free, so training loops may compute it once per dataset and
    pass it to :func:`forward` as ``first_embedded``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        pts = pts[None]
    return _embed_for_layer(layer, pts.reshape(len(pts), -1))


def forward(layers, points, first_embedded=None):
    """Run the chain on one sample (4, 3) or a batch (batch, 4, 3).

    Returns ``(logits, trace)`` where trace is a list of LayerTrace.  The
    trace keeps the batch axis even for a single sample.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 2
    if single:
        pts = pts[None]
    x = pts.reshape(len(pts), -1)
    trace = []
    for i, layer in enumerate(layers):
        if i == 0 and first_embedded is not None:
            embedded, pre_embed = first_embedded, None
        else:
            embedded, pre_embed = _embed_for_layer(layer, x), x
        pre_act = embedded @ layer.w.T
        if layer.b is not None:
            pre_act = pre_act + layer.b
        out = apply_activation(layer.activation, pre_act)
        trace.append(LayerTrace(pre_embed, embedded, pre_act, out))
        x = out
    return (x[0] if single else x), trace


def backward(layers, trace, d_logits):
    """Exact parameter gradients for a forward trace.

    Returns one ``(d_weights, d_bias)`` pair per layer (``d_bias`` is None
    for layers without a bias).  The lift of the raw model input carries no
    parameters, so no gradient is propagated past the first layer.
    """
    d = np.asarray(d_logits, dtype=float)
    if d.ndim == 1:
        d = d[None]
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        layer, t = layers[i], trace[i]
        if layer.activation == "identity":
            dz = d
        else:
            dz = d * activation_derivative(layer.activation, t.pre_act, t.out)
        dw = dz.T @ t.embedded
        db = dz.sum(axis=0) if layer.b is not None else None
        grads[i] = (dw, db)
        if i > 0:
            d = lift_grad(dz @ layer.w, t.pre_embed, layer.group)
    return grads


def softmax(logits):
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Cross-entropy loss and its gradient with respect to the logits.

    For a single (8,) logit vector and integer label, returns the loss and
    ``softmax - onehot``.  For a batch, returns the mean loss and the
    gradient of that mean (per-sample terms divided by the batch size).
    """
    z = np.asarray(logits, dtype=float)
    single = z.ndim == 1
    if single:
        z = z[None]
        labels = np.asarray([labels])
    else:
        labels = np.asarray(labels)
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    rows = np.arange(len(z))
    loss = float(-log_probs[rows, labels].mean())
    d = np.exp(log_probs)
    d[rows, labels] -= 1.0
    if single:
        return loss, d[0]
    return loss, d / len(z)


class Adam:
    """Bias-corrected Adam over a layer chain; updates weights in place."""

    def __init__(self, layers, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._slots = [
            {
                "mw": np.zeros_like(layer.w),
                "vw": np.zeros_like(layer.w),
                "mb": np.zeros_like(layer.b) if layer.b is not None else None,
                "vb": np.zeros_like(layer.b) if layer.b is not None else None,
            }
            for layer in layers
        ]

    def _update(self, param, grad, m, v):
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * (grad * grad)
        m_hat = m / (1.0 - self.beta1**self.t)
        v_hat = v / (1.0 - self.beta2**self.t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self, layers, grads):
        self.t += 1
        for layer, (dw, db), slot in zip(layers, grads, self._slots):
            self._update(layer.w, dw, slot["mw"], slot["vw"])
            if layer.b is not None:
                self._update(layer.b, db, slot["mb"], slot["vb"])
