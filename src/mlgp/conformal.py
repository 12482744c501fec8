"""Conformal lifts of points and spheres, and rigid motions acting on them.

A Euclidean n-vector ``x`` lifts to the (n+2)-vector ``(x, -1, -||x||^2/2)``;
a hypersphere with center ``c`` and radius ``r`` lifts to
``(c, (||c||^2 - r^2)/2, 1)``.  The ordinary dot product of the two lifted
vectors equals ``-||x - c||^2/2 + r^2/2``, so sphere incidence becomes a
linear functional of the lifted point: positive inside, zero on the surface,
negative outside.

:func:`lift` lifts each ``group``-wide block of a vector on its own: every
3D point of a flattened shape for ``group=3``, a whole n-vector for
``group=n``, nothing for ``group=0``.  :func:`lift_grad` is its adjoint.

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
    """Lift every ``group``-wide block g of the last axis to (g, -1, -||g||^2/2)."""
    x = np.asarray(x, dtype=float)
    if group == 0:
        return x
    lead = x.shape[:-1]
    g = x.reshape(lead + (-1, group))
    out = np.empty(g.shape[:-1] + (group + 2,))
    out[..., :group] = g
    out[..., group] = -1.0
    out[..., group + 1] = -0.5 * (g * g).sum(axis=-1)
    return out.reshape(lead + (-1,))


def lift_grad(d_lifted, x, group):
    """Pull a gradient on ``lift(x, group)`` back to a gradient on ``x``."""
    if group == 0:
        return d_lifted
    d = d_lifted.reshape(x.shape[:-1] + (-1, group + 2))
    g = x.reshape(x.shape[:-1] + (-1, group))
    return (d[..., :group] - d[..., group + 1 :] * g).reshape(x.shape)


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


def is_normalized(sphere_vec):
    """True if the sphere vector is in canonical form (last component 1)."""
    return float(np.asarray(sphere_vec)[-1]) == 1.0


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
    if not is_normalized(s):
        raise ValueError("sphere must be normalized (last component 1)")
    c = s[:-2].copy()
    return c, float(c @ c - 2.0 * s[-2])


def classify_point(point_vec, sphere_vec, tol=ON_SURFACE_TOL):
    """Locate a lifted point relative to a normalized sphere.

    Returns "inside", "on", or "outside" by the sign of the incidence
    product, with an |dot| <= tol band mapped to "on".
    """
    if not is_normalized(sphere_vec):
        raise ValueError("sphere must be normalized (last component 1)")
    d = conformal_dot(point_vec, sphere_vec)
    if abs(d) <= tol:
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
        """Apply to one point (3,) or a stack of points (..., 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

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
    """Rotation matrix for an axis (any nonzero 3-vector) and an angle."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a)
    if n < 1e-12:
        raise ValueError("axis must be a nonzero vector")
    a = a / n
    k = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_unit_vector(rng):
    """Uniform direction on the unit sphere (normalized standard normals)."""
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def random_rotation(rng, angle_sampler):
    """Rotation about a uniformly random axis by an angle from the sampler.

    The axis is drawn first, then ``angle_sampler(rng)`` supplies the angle.
    """
    axis = random_unit_vector(rng)
    return rotation_about_axis(axis, float(angle_sampler(rng)))
