"""Layers, exact hand-derived gradients, softmax cross-entropy, and Adam.

A model's parameters are one float64 vector ``theta`` that its layers view;
:func:`backward` returns the gradient in that layout, for :class:`Adam`.

A layer is its lift group: it computes ``W @ lift(x, group)`` with the
conformal lift of :mod:`mlgp.conformal`, where ``group`` is 3 for mlgp's
point-wise first layer, the input width for a hypersphere layer and 0 for a
dense layer (no lift; a bias instead).  The lift is nonlinear, so it is the
hidden nonlinearity; only a dense layer, which has none, takes a ReLU of its
hidden input.  Gradients pass back through the lift's adjoint, ``lift_grad``.

Inside :func:`forward`, :func:`backward` and the loss, arrays are laid out as
(features, batch): the classes are summed over axis 0, and ``dW = dz @ x.T``.
The boundary stays batch-major: (batch, 4, 3) points, (batch, 8) logits and
gradients as free ``.T`` views.  :func:`forward` is one pass over the batch it
is given; large sets are scored in blocks of at most ``EVAL_BLOCK`` shapes
(:func:`eval_blocks`) by ``models.accuracy``, ``models.predict`` and the
isometry test.  A fit builds the loss's :func:`one_hot` target once; the loss
takes one ``exp``, floored at ``EXP_FLOOR``, and :class:`Adam` steps in the
efficient form of Kingma & Ba's section 2 at their ``BETA1`` and ``BETA2``.
"""

import numpy as np

from .conformal import lift, lift_grad


class Layer:
    """One layer of a model: its lift group, its widths and parameter views.

    ``group`` counts the input coordinates per lifted block (0: no lift).
    ``in_dim`` counts the features the weights multiply, after the lift.
    ``params`` is the layer's stretch of the model's parameter vector: the
    row-major (out_dim, in_dim) weights, then a dense layer's out_dim biases.
    ``w`` and ``b`` are views into it (``b`` is None without a bias).
    """

    def __init__(self, group, in_dim, out_dim, params):
        self.group = group
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.params = params
        n_w = out_dim * in_dim
        self.w = params[:n_w].reshape(out_dim, in_dim)
        self.b = params[n_w:] if group == 0 else None

    @property
    def pre_embed_dim(self):
        """Width of the raw input this layer consumes, before any lift."""
        return self.in_dim // (self.group + 2) * self.group if self.group else self.in_dim


def _features(points, layer):
    """(m, batch) view of the (batch, ...) input to ``layer``."""
    pts = np.asarray(points, dtype=float)
    x = pts.reshape(len(pts), -1).T
    if len(x) != layer.pre_embed_dim:
        raise ValueError(f"layer expects {layer.pre_embed_dim} inputs, got {len(x)}")
    return x


def embed_input(layer, points):
    """First-layer feature lift of a (batch, 4, 3) input, (batch, in_dim).

    Parameter-free, so training loops may compute it once per dataset and
    pass it to :func:`forward` as ``first_embedded``.
    """
    return lift(_features(points, layer), layer.group).T


# the most shapes an evaluation block runs: its temporaries fit in memory
# that a fit has already mapped
EVAL_BLOCK = 1024


def eval_blocks(n):
    """Near-equal column slices of ``n`` shapes, at most ``EVAL_BLOCK`` each.

    Inner edges fall on multiples of 64, so BLAS rounds every column as in one
    whole-batch product (past OpenBLAS's small-matrix limit, over 12,500 mlgp
    shapes, all but the last n % 8 when n % 8 is 1 to 4).
    """
    k, units = max(1, -(-n // EVAL_BLOCK)), -(-n // 64)
    edges = [min(n, 64 * (units * j // k)) for j in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def forward(model, points, first_embedded=None):
    """Run a model on a batch of shapes, (batch, 4, 3), in one pass.

    Returns ``(logits, trace)``: (batch, 8) logits and, per layer, the
    (in_dim, batch) input its weights multiplied.  Between layers, the next
    layer's lift, or a dense layer's ReLU, is the nonlinearity.  The pass
    holds batch-sized temporaries, so large sets go through ``accuracy``,
    ``predict`` or :func:`eval_blocks`.  One shape is a batch of one; a bare
    (4, 3) shape raises ValueError.
    """
    first = model.layers[0]
    h = lift(_features(points, first), first.group) if first_embedded is None else first_embedded.T
    trace = []
    for i, layer in enumerate(model.layers):
        if i:
            h = lift(h, layer.group) if layer.group else np.maximum(h, 0.0)
        trace.append(h)
        h = layer.w @ h
        if layer.b is not None:
            h += layer.b[:, None]
    return h.T, trace


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
        layer, x = model.layers[i], trace[i]
        if layer.b is not None:
            parts.append(d.sum(axis=1))
        parts.append((d @ x.T).ravel())
        if i > 0:
            d = layer.w.T @ d
            # max(p, 0) > 0 exactly when p > 0: the ReLU's mask, 0 at 0
            d = lift_grad(d, x, layer.group) if layer.group else d * (x > 0.0)
    return np.concatenate(parts[::-1])


def _class_major(values):
    """C-contiguous (8, batch), so class sums add in one order for any layout."""
    return np.ascontiguousarray(np.asarray(values, dtype=float).T)


# exp(-600) ~ 2.6e-261 is far under one ulp of a column's sum s >= 1, and over
# n * s it stays a normal double for n < 10**40; the floor keeps exp off NumPy's
# slow path for subnormal results (inputs under -708), which long fits reach
EXP_FLOOR = -600.0


def _shifted_exp(z):
    """(8, batch) ``z`` less its column maxima, and its exp floored at ``EXP_FLOOR``."""
    shifted = z - z.max(axis=0)
    # np.maximum, unlike np.fmax, passes a NaN on: a diverged run stays NaN
    e = np.maximum(shifted, EXP_FLOOR)
    return shifted, np.exp(e, out=e)


def softmax(logits):
    """Softmax over the classes of (batch, 8) logits."""
    _, p = _shifted_exp(_class_major(logits))
    p /= p.sum(axis=0)
    return p.T


def one_hot(labels):
    """The (batch, 8) one-hot of (batch,) integer labels in 0..7.

    It is the ``.T`` view of a C-contiguous (8, batch) array, the layout
    :func:`softmax_cross_entropy` reads, so a training loop builds it once.
    """
    labels = np.asarray(labels)
    if not (labels.ndim == 1 and np.issubdtype(labels.dtype, np.integer)
            and np.all((labels >= 0) & (labels < 8))):
        raise ValueError("labels must be a vector of integers in 0..7")
    target = np.zeros((8, len(labels)))
    target[labels, np.arange(len(labels))] = 1.0
    return target.T


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of (batch, 8) logits and its gradient.

    ``labels`` is a (batch,) vector of integers in 0..7 or its :func:`one_hot`.
    Returns the mean loss and its (batch, 8) gradient with respect to the
    logits, ``(softmax - onehot) / batch``.  One ``exp``, floored, serves both;
    the loss reads the unfloored logits, so a wrong label adds its exact loss.
    """
    z = _class_major(logits)
    n = z.shape[1]
    target = (one_hot(labels) if np.ndim(labels) == 1 else labels).T
    shifted, e = _shifted_exp(z)
    s = e.sum(axis=0)
    # the target picks each column's label: log(s) less its shifted logit
    loss = float((np.log(s).sum() - np.vdot(shifted, target)) / n)
    e *= 1.0 / (n * s)
    e -= target * (1.0 / n)
    return loss, e.T


# Kingma & Ba's epsilon on the root of the bias-corrected second moment; their
# section 2 form that Adam.step takes keeps this textbook meaning
EPS = 1e-8
# their default decay rates of the moment estimates, the reference protocol's
BETA1, BETA2 = 0.9, 0.999


def check_adam_settings(lr):
    """Raise ValueError unless the learning rate is finite and positive."""
    if not (lr > 0.0 and np.isfinite(lr)):
        raise ValueError(f"learning rate must be finite and positive, got {lr}")


class Adam:
    """Bias-corrected Adam (Kingma & Ba, arXiv 1412.6980), in place on ``theta``.

    The decay rates are their defaults, ``BETA1`` and ``BETA2``.  A step takes
    the efficient form of their section 2, with ``EPS`` scaled by
    sqrt(1 - BETA2**t): the textbook update, so ``EPS`` keeps its meaning.
    """

    def __init__(self, theta, lr):
        check_adam_settings(lr)
        self.theta = theta
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, grad):
        self.t += 1
        self.m *= BETA1
        self.m += (1.0 - BETA1) * grad
        self.v *= BETA2
        self.v += (1.0 - BETA2) * (grad * grad)
        root = (1.0 - BETA2**self.t) ** 0.5
        alpha = self.lr * root / (1.0 - BETA1**self.t)
        self.theta -= alpha * self.m / (np.sqrt(self.v) + EPS * root)
