"""Conformal lifts of points and spheres, and rigid motions acting on them.

A Euclidean n-vector ``x`` lifts to the (n+2)-vector ``(x, -1, -||x||^2/2)``;
a hypersphere with center ``c`` and radius ``r`` lifts to
``(c, (||c||^2 - r^2)/2, 1)``.  The ordinary dot product of the two lifted
vectors equals ``-||x - c||^2/2 + r^2/2``, so sphere incidence becomes a
linear functional of the lifted point: positive inside, zero on the surface,
negative outside.

:func:`lift` lifts each ``group``-wide block of a vector on its own: every 3D point
of a flattened shape for ``group=3``, a whole n-vector for ``group=n``; ``group=0`` is
the homogeneous ``(x, 1)``, which makes a dense layer's bias its last weight column.
:func:`lift_grad` is the adjoint.  Both act on the first axis, so a batch is laid out as
(features, batch); :func:`lift_norms` and :func:`lift_pull` take :func:`lift_rows` views.

Learned sphere vectors are generally scaled by an arbitrary nonzero factor;
dividing by the last component (``point_normalize``) recovers the canonical
form together with that scale factor.

For 3D data, a rigid motion acts on lifted spheres and lifted points through
a pair of 5x5 matrices (``motor_matrix_sphere`` / ``motor_matrix_point``)
that are mutually adjoint, which makes the incidence product invariant under
a simultaneous motion of point and sphere.
"""

import numpy as np
from dataclasses import dataclass

# |dot| at or below this counts as "on the sphere": far above unit-scale
# rounding, far below data resolution.
ON_SURFACE_TOL = 1e-9

_ORTHOGONALITY_TOL = 1e-12

# flat row-major positions of +x, +y, +z and of -x, -y, -z in the 3x3
# cross-product matrix [[0, -z, y], [z, 0, -x], [-y, x, 0]]
_CROSS_PLUS = np.array([7, 2, 3])
_CROSS_MINUS = np.array([5, 6, 1])


class DegenerateSphereError(ValueError):
    """Sphere vector whose scale factor (last component) is zero.

    Such a vector sits at the hyperplane limit and has no center/radius
    interpretation; it is rejected during analysis, never during training.
    """


def _as_finite_vector(x, name):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def lift(x, group):
    """Lift every ``group``-wide block g of axis 0 to (g, -1, -||g||^2/2), or for
    ``group=0`` all of axis 0 to (x, 1); the result is a new C-contiguous array."""
    x = np.asarray(x, dtype=float)
    rest = x.shape[1:]
    if group == 0:
        out = np.empty((len(x) + 1,) + rest)
        out[:-1] = x
        out[-1] = 1.0
        return out
    g = x.reshape((-1, group) + rest)
    out = np.empty((len(g), group + 2) + rest)
    out[:, :group] = g
    out[:, group] = -1.0
    lift_norms(out[:, :group], out[:, group + 1 :])  # contiguous rows even when x is a transposed view
    return out.reshape((-1,) + rest)


def lift_rows(lifted, group):
    """Views of a C-contiguous ``lifted``'s (blocks, group, ...) g and (blocks, 1, ...) last rows."""
    blocks = lifted.reshape((-1, group + 2) + lifted.shape[1:])
    return blocks[:, :group], blocks[:, group + 1 :]


def lift_norms(g, norm_sq, squares=None):
    """Write the -||g||^2/2 rows ``norm_sq`` from the g rows of :func:`lift_rows`,
    squaring into ``squares`` when given, which a caller that lifts every step reuses."""
    np.add.reduce(np.multiply(g, g, out=squares), axis=1, out=norm_sq, keepdims=True)
    norm_sq *= -0.5


def lift_grad(d_lifted, lifted, group, out=None):
    """Pull a gradient on ``lifted = lift(x, group)`` back to a gradient on ``x``.

    ``out``, shaped (blocks, group, ...), receives it when given.
    """
    if group == 0:
        return d_lifted[:-1]
    pulled = lift_pull(*lift_rows(d_lifted, group), lift_rows(lifted, group)[0], out)
    return pulled.reshape((-1,) + lifted.shape[1:])


def lift_pull(d_g, d_norm, g, out=None):
    """:func:`lift_grad` on :func:`lift_rows` views: ``d_g - d_norm * g``, into ``out`` if given."""
    prod = np.multiply(d_norm, g, out=out)
    return np.subtract(d_g, prod, out=prod)


def embed_point(x):
    """Lift a Euclidean n-vector to its (n+2)-dim conformal point form."""
    x = _as_finite_vector(x, "point")
    return lift(x, len(x))


def sphere_from_center_radius(center, radius):
    """Normalized sphere vector for a center and radius (radius 0 allowed)."""
    c = _as_finite_vector(center, "center")
    r = float(radius)
    if not np.isfinite(r):
        raise ValueError("radius must be finite")
    return np.concatenate([c, [0.5 * (c @ c - r * r), 1.0]])


def conformal_dot(point_vec, sphere_vec):
    """Dot product of a lifted point and a sphere vector.

    For a normalized sphere this equals -||x - c||^2/2 + r^2/2.
    """
    p = np.asarray(point_vec, dtype=float)
    s = np.asarray(sphere_vec, dtype=float)
    if p.shape != s.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {s.shape}")
    return float(p @ s)


def point_normalize(sphere_vec):
    """Divide a raw sphere vector by its last component.

    Returns ``(normalized, gamma)`` where ``gamma`` is the scale factor;
    ``gamma * normalized`` reconstructs the input up to one rounding step.
    """
    s = np.asarray(sphere_vec, dtype=float)
    gamma = float(s[-1])
    if gamma == 0.0:
        raise DegenerateSphereError("scale factor is zero (hyperplane limit)")
    return s / gamma, gamma


def extract_center_radius_sq(sphere_vec):
    """Center and squared radius of a normalized sphere.

    The squared radius may be negative (imaginary radius) and is returned
    unmodified.
    """
    s = np.asarray(sphere_vec, dtype=float)
    if float(s[-1]) != 1.0:
        raise ValueError("sphere must be normalized (last component 1)")
    c = s[:-2].copy()
    return c, float(c @ c - 2.0 * s[-2])


def classify_point(point_vec, sphere_vec):
    """Locate a lifted point relative to a normalized sphere.

    Returns "inside", "on", or "outside" by the sign of the incidence
    product, with an |dot| <= ON_SURFACE_TOL band mapped to "on".
    """
    if float(np.asarray(sphere_vec)[-1]) != 1.0:
        raise ValueError("sphere must be normalized (last component 1)")
    d = conformal_dot(point_vec, sphere_vec)
    if abs(d) <= ON_SURFACE_TOL:
        return "on"
    return "inside" if d > 0.0 else "outside"


@dataclass(frozen=True)
class RigidMotion:
    """A rotation followed by a translation in 3D."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("rotation and translation must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHOGONALITY_TOL:
            raise ValueError("rotation is not orthogonal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHOGONALITY_TOL:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity():
        return RigidMotion(np.eye(3), np.zeros(3))

    def apply(self, points):
        """Apply to one point (3,) or a stack of points (..., 3), in one matmul."""
        p = np.asarray(points, dtype=float)
        return (p.reshape(-1, 3) @ self.rotation.T + self.translation).reshape(p.shape)

    def compose(self, inner):
        """Motion equal to applying ``inner`` first, then this one."""
        return RigidMotion(
            self.rotation @ inner.rotation,
            self.rotation @ inner.translation + self.translation,
        )

    def inverse(self):
        return RigidMotion(self.rotation.T, -(self.rotation.T @ self.translation))


def motor_matrix_sphere(motion):
    """5x5 operator moving normalized or raw sphere vectors by a rigid motion."""
    r, t = motion.rotation, motion.translation
    m = np.zeros((5, 5))
    m[:3, :3] = r
    m[:3, 4] = t
    m[3, :3] = t @ r
    m[3, 3] = 1.0
    m[3, 4] = 0.5 * (t @ t)
    m[4, 4] = 1.0
    return m


def motor_matrix_point(motion):
    """5x5 operator moving lifted points; the adjoint of the sphere operator.

    ``motor_matrix_point(m).T @ motor_matrix_sphere(m)`` is the identity, and
    applying it to a lifted point equals lifting the moved point.
    """
    r, t = motion.rotation, motion.translation
    m = np.zeros((5, 5))
    m[:3, :3] = r
    m[:3, 3] = -t
    m[3, 3] = 1.0
    m[4, :3] = -(t @ r)
    m[4, 3] = 0.5 * (t @ t)
    m[4, 4] = 1.0
    return m


def rotation_about_axis(axis, angle):
    """Rotation matrices for axes (any nonzero 3-vectors) and angles.

    ``axis`` has shape (..., 3) and ``angle`` shape (...); the result has
    shape (..., 3, 3), one Rodrigues rotation per axis.  A stack gives
    bit for bit the matrices of its rows taken one at a time.
    """
    a = np.asarray(axis, dtype=float)
    # sqrt(a @ a) per row: the same rounding as np.linalg.norm of one vector
    n = np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])
    if (n < 1e-12).any():
        raise ValueError("axis must be a nonzero vector")
    a = a / n[..., None]
    k = np.zeros(a.shape[:-1] + (9,))  # the cross-product matrix of a, row-major
    k[..., _CROSS_PLUS] = a
    k[..., _CROSS_MINUS] = -a
    k = k.reshape(a.shape + (3,))
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)

