"""Layers, exact hand-derived gradients, softmax cross-entropy, and Adam.

A model's parameters are one float64 vector ``theta`` that its layers view;
:func:`backward` returns the gradient in that layout, for :class:`Adam`.

Every layer computes ``activation(W @ lift(x, group))`` with the conformal
lift of :mod:`mlgp.conformal`.  The layer kinds differ only in ``group``:
``dense`` has 0 (no lift; a bias instead), ``geometric`` has 3 (each 3D
point becomes a 5-dim block), and ``hypersphere`` has the input width m
(the whole input becomes one (m+2)-dim point).  ``activation`` is ReLU
for mlp's hidden layer and the identity elsewhere.  The lift is parameter-free
but nonlinear, so the backward pass routes gradients through its adjoint,
``lift_grad``.  Everything is float64 and vectorized over a batch axis.

Inside :func:`forward`, :func:`backward` and the loss, arrays are laid out as
(features, batch): a layer computes ``W @ lift(x)``, the classes are summed
over axis 0, and ``dW = dz @ embedded.T``.  The boundary stays batch-major:
(batch, 4, 3) points, (batch, 8) logits and gradients as free ``.T`` views.
"""

import numpy as np
from dataclasses import dataclass

from .conformal import lift, lift_grad

DENSE = "dense"
GEOMETRIC = "geometric"
HYPERSPHERE = "hypersphere"


class Layer:
    """One layer of a model: its shape, its activation, and parameter views.

    ``in_dim`` counts the features the weights multiply, i.e. after any lift:
    5k for geometric (k input points), m+2 for hypersphere (m-dim input).
    ``group``, the input coordinates per lifted block, follows from ``kind``.
    ``params`` is the layer's stretch of the model's parameter vector: the
    row-major (out_dim, in_dim) weights, then a dense layer's out_dim biases.
    ``w`` and ``b`` are views into it (``b`` is None without a bias).
    """

    def __init__(self, kind, in_dim, out_dim, activation, params):
        self.kind = kind
        self.group = {DENSE: 0, GEOMETRIC: 3, HYPERSPHERE: in_dim - 2}[kind]
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.params = params
        n_w = out_dim * in_dim
        self.w = params[:n_w].reshape(out_dim, in_dim)
        self.b = params[n_w:] if kind == DENSE else None

    @property
    def pre_embed_dim(self):
        """Width of the raw input this layer consumes, before any lift."""
        if self.group == 0:
            return self.in_dim
        return self.in_dim // (self.group + 2) * self.group


@dataclass
class LayerTrace:
    """Per-layer forward record: everything backward needs, feature-major."""

    pre_embed: np.ndarray  # raw input (m, batch); None when precomputed
    embedded: np.ndarray   # features the weights multiplied (in_dim, batch)
    pre_act: np.ndarray    # (out_dim, batch)


def _features(points, layer):
    """(m, batch) view of the (batch, ...) input to ``layer``."""
    pts = np.asarray(points, dtype=float)
    x = pts.reshape(len(pts), -1).T
    if len(x) != layer.pre_embed_dim:
        raise ValueError(f"{layer.kind} layer expects {layer.pre_embed_dim} inputs, got {len(x)}")
    return x


def embed_input(layer, points):
    """First-layer feature lift of a (batch, 4, 3) input, (batch, in_dim).

    Parameter-free, so training loops may compute it once per dataset and
    pass it to :func:`forward` as ``first_embedded``.
    """
    return lift(_features(points, layer), layer.group).T


def forward(model, points, first_embedded=None):
    """Run a model on a batch of shapes, (batch, 4, 3).

    Returns ``(logits, trace)``: (batch, 8) logits and a list of LayerTrace,
    whose arrays are (features, batch).  One shape is a batch of one; a bare
    (4, 3) shape raises ValueError.
    """
    x = _features(points, model.layers[0])
    trace = []
    for i, layer in enumerate(model.layers):
        if i == 0 and first_embedded is not None:
            embedded, pre_embed = first_embedded.T, None
        else:
            embedded, pre_embed = lift(x, layer.group), x
        pre_act = layer.w @ embedded
        if layer.b is not None:
            pre_act += layer.b[:, None]
        trace.append(LayerTrace(pre_embed, embedded, pre_act))
        x = np.maximum(pre_act, 0.0) if layer.activation == "relu" else pre_act
    return x.T, trace


def backward(model, trace, d_logits):
    """Exact gradient of the loss with respect to ``model.theta``.

    ``d_logits`` is (batch, 8), like the logits.  Returns one vector
    in ``theta``'s layout: layer by layer, the row-major weight gradient,
    then a dense layer's bias gradient.  The lift of the raw model input
    carries no parameters, so no gradient is propagated past the first layer.
    """
    d = _class_major(d_logits)
    parts = []
    for i in range(len(model.layers) - 1, -1, -1):
        layer, t = model.layers[i], trace[i]
        # the ReLU subgradient at 0 is 0
        dz = d * (t.pre_act > 0.0) if layer.activation == "relu" else d
        if layer.b is not None:
            parts.append(dz.sum(axis=1))
        parts.append((dz @ t.embedded.T).ravel())
        if i > 0:
            d = lift_grad(layer.w.T @ dz, t.pre_embed, layer.group)
    return np.concatenate(parts[::-1])


def _class_major(values):
    """C-contiguous (8, batch), so class sums add in one order for any layout."""
    return np.ascontiguousarray(np.asarray(values, dtype=float).T)


def softmax(logits):
    """Softmax over the classes of (batch, 8) logits."""
    z = _class_major(logits)
    p = np.exp(z - z.max(axis=0))
    p /= p.sum(axis=0)
    return p.T


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of (batch, 8) logits and its gradient.

    ``labels`` is a (batch,) vector of integers in 0..7.  Returns the mean
    loss over the batch and its (batch, 8) gradient with respect to the
    logits, ``(softmax - onehot) / batch``.
    """
    z = _class_major(logits)
    n = z.shape[1]
    log_probs = z - z.max(axis=0)
    log_probs -= np.log(np.exp(log_probs).sum(axis=0))
    picked = np.ravel_multi_index((labels, np.arange(n)), z.shape)
    loss = float(-log_probs.take(picked).sum() / n)
    d = np.exp(log_probs, out=log_probs)
    d.put(picked, d.take(picked) - 1.0)
    d /= n
    return loss, d.T


# added to the root of the second-moment estimate (Kingma & Ba's value)
EPS = 1e-8


class Adam:
    """Bias-corrected Adam (Kingma & Ba, arXiv 1412.6980), in place on ``theta``."""

    def __init__(self, theta, lr, beta1, beta2):
        if not (lr > 0.0 and np.isfinite(lr)):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        self.theta = theta
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, grad):
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (grad * grad)
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        self.theta -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
