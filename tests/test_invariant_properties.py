"""Property tests of the paper's invariants over random inputs, with bounds scaled to their size."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mlgp.conformal import lift, lift_grad

VALUES = st.floats(-1e6, 1e6)


def lift_jvp(x, u, group):
    """J(x) u for the lift: each block (x, -1, -|x|^2/2) moves by (u, 0, -x.u),
    and group 0's (x, 1) by (u, 0)."""
    if group == 0:
        return np.concatenate([u, np.zeros((1, x.shape[1]))])
    xb, ub = (a.reshape(-1, group, a.shape[1]) for a in (x, u))
    zeros = np.zeros((len(xb), 1, x.shape[1]))
    moved = np.concatenate([ub, zeros, -(xb * ub).sum(axis=1, keepdims=True)], axis=1)
    return moved.reshape(-1, x.shape[1])


@settings(deadline=None)
@given(group=st.sampled_from((0, 3, "whole")), batch=st.integers(1, 3), data=st.data())
def test_lift_grad_is_the_adjoint_of_the_lift_jacobian(group, batch, data):
    # <J(x) u, v> = <u, lift_grad(v, lift(x, g), g)> for g = 0, 3 and the
    # whole input vector (a hypersphere layer's group)
    m = data.draw(st.integers(1, 4)) * 3 if group == 3 else data.draw(st.integers(1, 12))
    group = m if group == "whole" else group
    x, u = (data.draw(arrays(float, (m, batch), elements=VALUES)) for _ in range(2))
    lifted = lift(x, group)
    v = data.draw(arrays(float, lifted.shape, elements=VALUES))
    left = np.sum(lift_jvp(x, u, group) * v)
    right = np.sum(u * lift_grad(v, lifted, group))
    # both sides add the same products in other orders, so the rounding error
    # scales with the sum of their magnitudes, plus a floor for products that
    # underflow
    magnitude = np.sum(np.abs(lift_jvp(np.abs(x), np.abs(u), group)) * np.abs(v))
    assert abs(left - right) <= 1e-13 * magnitude + 1e-300
