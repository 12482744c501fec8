"""Layers, exact hand-derived gradients, softmax cross-entropy, and Adam.

A model's parameters are one float64 vector ``theta`` that its :class:`Layer`
objects view; :func:`backward` returns the gradient in that layout, for :class:`Adam`.

Inside :func:`forward`, :func:`backward` and the loss, arrays are laid out as
(features, batch): the classes are summed over axis 0, and ``dW = dz @ x.T``.
The boundary stays batch-major: (batch, 4, 3) points, (batch, 8) logits and
gradients as free ``.T`` views.  A fit runs every epoch in one :class:`Workspace`.
"""

import numbers
from functools import partial
from itertools import accumulate

import numpy as np

from .conformal import lift, lift_norms, lift_pull, lift_rows


class Layer:
    """One layer of a model, ``W @ lift(x, group)``: its lift group, widths and parameter views.

    ``group`` counts the input coordinates per block of :mod:`mlgp.conformal`'s
    lift: 3 for mlgp's point-wise first layer, the input width for a hypersphere
    layer, 0 for a dense layer, whose lift (x, 1) makes its last weight column a bias.
    The conformal lift is nonlinear, so it is the hidden nonlinearity; only a dense
    layer takes a ReLU of its hidden input.  Gradients pass back through the lift's
    adjoint, ``lift_grad``.  ``in_dim`` counts the features the weights multiply,
    after the lift.  ``w`` is the row-major (out_dim, in_dim) view of ``params``,
    the layer's stretch of the model's parameter vector.
    """

    def __init__(self, group, in_dim, out_dim, params):
        self.group = group
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = params.reshape(out_dim, in_dim)


# every model reads a shape as its 4 points' 3 coordinates: 12 input values
INPUT_DIM = 12


def check_points(points):
    """``points`` as a float array of shapes: ValueError if it holds none (empty or 0-d)."""
    pts = np.asarray(points, dtype=float)
    if not pts.ndim or not len(pts):
        raise ValueError("no shapes to score")
    return pts


def embed_input(model, points):
    """First-layer lift of a (batch, 4, 3) input, feature-major (in_dim, batch).

    Any (batch, ...) array of ``INPUT_DIM`` finite values per shape is accepted.
    The lift has no parameters, so a fit passes it to :func:`forward` once made.
    """
    pts = check_points(points)
    x = pts.reshape(len(pts), -1).T
    if len(x) != INPUT_DIM:
        raise ValueError(f"layer expects {INPUT_DIM} inputs, got {len(x)}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return lift(x, model.layers[0].group)


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


class Workspace:
    """The arrays of one architecture and batch size that a fit's epochs reuse, all made here.

    :func:`forward`, :func:`softmax_cross_entropy` and :func:`backward` take one as their
    ``workspace``; a call without one makes only its own phase's arrays, by the same code, and
    gets the same results (the loss lets NumPy make its outputs).  The logits, trace and
    gradient returned with one are views of its arrays, which the next call overwrites.  It
    serves any model of its architecture, and remakes the target only for another ``labels``.
    """

    def __init__(self, model, batch):
        self.steps = _forward_steps(model.layers, batch)
        self.loss_outs = *np.empty((3, batch)), np.empty((8, batch)), np.empty((8, batch))
        self.grads = _grad_arrays(model.layers, batch)
        self._labels = self._targets = None

    def targets(self, labels, n):
        """:func:`_targets` of ``labels``, kept until another ``labels`` object comes."""
        if self._labels is not labels:
            self._labels, self._targets = labels, _targets(labels, n)
        return self._targets


def _forward_steps(layers, n):
    """Per layer: its product's rows, the array holding them (the next lift buffer, its constant
    row written once, or the logits), and the ReLU or ``lift_norms`` (squaring into logit rows)."""
    logits = np.empty((layers[-1].out_dim, n))
    steps = []
    for layer, nxt in zip(layers, layers[1:]):
        if nxt.group not in (0, layer.out_dim) or nxt.group > len(logits):
            raise ValueError("a hidden lift must lift its whole product as one block of <= 8 rows")
        lifted = np.empty((nxt.in_dim, n))
        lifted[layer.out_dim] = -1.0 if nxt.group else 1.0  # the lift's constant row
        product = lifted[: layer.out_dim]
        if nxt.group:
            g, norm_sq = lift_rows(lifted, nxt.group)
            complete = partial(lift_norms, g, norm_sq, logits[: nxt.group].reshape(g.shape))
        else:
            complete = partial(np.maximum, product, 0.0, out=product)
        steps.append((product, lifted, complete))
    return [*steps, (logits, logits, None)]


def _grad_arrays(layers, n):
    """The gradient, per layer its weight-shaped slot, per hidden layer its upstream gradient,
    and its (product rows, ReLU mask) or (d_g, d_norm, out, out in 2-D) for ``lift_pull``."""
    ends = (0, *accumulate(layer.w.size for layer in layers))
    grad = np.empty(ends[-1])
    slots = [grad[a:b].reshape(layer.w.shape) for layer, a, b in zip(layers, ends, ends[1:])]
    upstream = [None] + [np.empty((layer.in_dim, n)) for layer in layers[1:]]
    pulled = [None]
    for layer, d in zip(layers[1:], upstream[1:]):
        if layer.group:
            out = np.empty((1, layer.group, n))
            pulled.append((*lift_rows(d, layer.group), out, out.reshape(-1, n)))
        else:
            pulled.append((d[:-1], np.empty((len(d) - 1, n), bool)))
    return grad, slots, upstream, pulled


def forward(model, points, first_embedded=None, workspace=None):
    """Run a model on a batch of shapes, (batch, 4, 3), in one pass.

    Returns ``(logits, trace)``: (batch, 8) logits and, per layer, the (in_dim,
    batch) input its weights multiplied, of which the first may be given as
    ``first_embedded``.  The pass holds batch-sized temporaries, so large sets
    are scored in :func:`eval_blocks` by ``models.accuracy``, ``models.predict``
    and the isometry test.  One shape is a batch of one; a bare (4, 3) shape
    raises ValueError.  For ``workspace``, see :class:`Workspace`.
    """
    h = embed_input(model, points) if first_embedded is None else first_embedded
    steps = _forward_steps(model.layers, h.shape[1]) if workspace is None else workspace.steps
    trace = []
    for layer, (product, out, complete) in zip(model.layers, steps):
        trace.append(h)
        np.matmul(layer.w, h, out=product)
        if complete is not None:
            complete()
        h = out
    return h.T, trace


def backward(model, trace, d_logits, workspace=None):
    """Exact gradient of the loss with respect to ``model.theta``.

    ``d_logits`` is (batch, 8), like the logits.  Returns one vector in ``theta``'s
    layout: layer by layer, the row-major weight gradient ``d @ x.T`` in its slot, of
    which a dense layer's ones row makes the last column the bias gradient.  The lift
    of the raw model input carries no parameters, so no gradient is propagated
    past the first layer.  For ``workspace``, see :class:`Workspace`.
    """
    d = _class_major(d_logits)
    grad, slots, upstream, pulled = (
        _grad_arrays(model.layers, d.shape[1]) if workspace is None else workspace.grads)
    for i in range(len(model.layers) - 1, -1, -1):
        layer, x = model.layers[i], trace[i]
        np.matmul(d, x.T, out=slots[i])
        if i > 0:
            np.matmul(layer.w.T, d, out=upstream[i])
            if layer.group:
                d_g, d_norm, out, d = pulled[i]
                lift_pull(d_g, d_norm, lift_rows(x, layer.group)[0], out)
            else:  # max(p, 0) > 0 exactly when p > 0: the ReLU's mask, 0 at 0
                d, mask = pulled[i]
                d *= np.greater(x[:-1], 0.0, out=mask)
    return grad


def _class_major(values):
    """C-contiguous (8, batch), so class sums add in one order for any layout."""
    return np.ascontiguousarray(np.asarray(values, dtype=float).T)


# exp(-600) ~ 2.6e-261 is far under one ulp of a column's sum s >= 1, and over
# n * s it stays a normal double for n < 10**40; the floor keeps exp off NumPy's
# slow path for subnormal results (inputs under -708), which long fits reach
EXP_FLOOR = -600.0


def _shifted_exp(z, col_max=None, shifted=None, e=None):
    """(8, batch) ``z`` less its column maxima, and its exp floored at ``EXP_FLOOR``."""
    shifted = np.subtract(z, np.maximum.reduce(z, axis=0, out=col_max), out=shifted)
    # np.maximum, unlike np.fmax, passes a NaN on: a diverged run stays NaN
    e = np.maximum(shifted, EXP_FLOOR, out=e)
    return shifted, np.exp(e, out=e)


def softmax(logits):
    """Softmax over the classes of (batch, 8) logits."""
    _, p = _shifted_exp(_class_major(logits))
    p /= p.sum(axis=0)
    return p.T


def _targets(labels, n):
    """The class-major (8, n) one-hot of ``labels``, n integers in 0..7, and it times ``1 / n``."""
    target = (np.arange(8)[:, None] == check_labels(labels, n)).astype(float)
    return target, target * (1.0 / n)


def softmax_cross_entropy(logits, labels, workspace=None, value=True):
    """Mean cross-entropy of (batch, 8) logits and its gradient.

    ``labels`` is a (batch,) vector of integers in 0..7.  Returns the mean loss, or None
    unless ``value``, and its (batch, 8) gradient with respect to the logits, ``(softmax
    - onehot) / batch``.  One ``exp``, floored, serves both; the loss reads the unfloored
    logits, so a wrong label adds its exact loss.  For ``workspace``, see :class:`Workspace`.
    """
    z = _class_major(logits)
    n = z.shape[1]
    target, scaled_target = _targets(labels, n) if workspace is None else workspace.targets(labels, n)
    col_max, col_sum, log_sum, shifted, e = [None] * 5 if workspace is None else workspace.loss_outs
    shifted, e = _shifted_exp(z, col_max, shifted, e)
    s = np.add.reduce(e, axis=0, out=col_sum)
    # the target picks each column's label: log(s) less its shifted logit
    loss = float((np.log(s, out=log_sum).sum() - np.vdot(shifted, target)) / n) if value else None
    s *= n
    e *= np.divide(1.0, s, out=s)  # 1 / (n * s)
    e -= scaled_target
    return loss, e.T


# Kingma & Ba's epsilon on the root of the bias-corrected second moment; their
# section 2 form that Adam.step takes keeps this textbook meaning
EPS = 1e-8
# their default decay rates of the moment estimates, the reference protocol's
BETA1, BETA2 = 0.9, 0.999


def check_count(name, value, least):
    """Raise ValueError unless ``value`` is an integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name, value, low=-np.inf):
    """``value`` as a float: ValueError unless a real number, not a bool, in (``low``, inf)."""
    try:
        real = np.nan if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:  # an int past the float range
        real = np.inf
    if not low < real < np.inf:
        raise ValueError(f"{name} must be a real number in ({low}, inf), got {value!r}")
    return real


def check_labels(labels, count=None):
    """``labels`` as an array: ValueError unless a vector of integers in 0..7, ``count`` long."""
    labels = np.asarray(labels)
    if not (labels.ndim == 1 and np.issubdtype(labels.dtype, np.integer)
            and np.all((labels >= 0) & (labels < 8))):
        raise ValueError("labels must be a vector of integers in 0..7")
    if count is not None and len(labels) != count:
        raise ValueError(f"got {len(labels)} labels for {count} shapes")
    return labels


class Adam:
    """Bias-corrected Adam (Kingma & Ba, arXiv 1412.6980), in place on ``theta``.

    The decay rates are their defaults, ``BETA1`` and ``BETA2``.  A step takes
    the efficient form of their section 2, with ``EPS`` scaled by
    sqrt(1 - BETA2**t): the textbook update, so ``EPS`` keeps its meaning.
    ``m`` and ``v`` view the rows of one array, decayed and fed in one call each.
    """

    def __init__(self, theta, lr):
        check_real("learning rate", lr, 0.0)
        self.theta = theta
        self.lr = lr
        self.t = 0
        self._moments = np.zeros((2, *np.shape(theta)))
        self.m, self.v = self._moments
        # shaped as the moments: a (2, 1) column would take NumPy's slower broadcasting loop
        self._decays = np.ones_like(self._moments) * [[BETA1], [BETA2]]
        self._gains = np.ones_like(self._moments) * [[1.0 - BETA1], [1.0 - BETA2]]
        # a step's temporaries: rows for (g, g*g), then for the update and its divisor
        self._terms = np.empty_like(self._moments)
        self._a, self._b = self._terms

    def step(self, grad):
        self.t += 1
        a, b = self._a, self._b
        np.copyto(a, grad)
        np.multiply(grad, grad, out=b)
        self._terms *= self._gains
        self._moments *= self._decays
        self._moments += self._terms
        root = (1.0 - BETA2**self.t) ** 0.5
        alpha = self.lr * root / (1.0 - BETA1**self.t)
        np.sqrt(self.v, out=b)
        b += EPS * root
        np.multiply(self.m, alpha, out=a)
        a /= b
        self.theta -= a
