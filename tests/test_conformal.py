"""Tests for conformal lifts, sphere operations, and motor matrices."""

import numpy as np
import pytest

from mlgp.conformal import (
    DegenerateSphereError,
    RigidMotion,
    classify_point,
    conformal_dot,
    embed_point,
    extract_center_radius_sq,
    lift,
    lift_grad,
    motor_matrix_point,
    motor_matrix_sphere,
    point_normalize,
    rotation_about_axis,
    sphere_from_center_radius,
)


def random_motion(rng, t_range=3.0):
    axis = rng.standard_normal(3)
    rot = rotation_about_axis(axis / np.linalg.norm(axis), rng.uniform(0.0, 2.0 * np.pi))
    return RigidMotion(rot, rng.uniform(-t_range, t_range, 3))


def test_embed_point_examples():
    assert np.array_equal(embed_point([0.0, 0.0, 0.0]), [0, 0, 0, -1, 0])
    assert np.array_equal(embed_point([1.0, 0.0, 0.0]), [1, 0, 0, -1, -0.5])
    # works for any dimension, not just 3
    assert np.array_equal(embed_point([2.0]), [2, -1, -2])


def test_lift_examples():
    # whole-vector lift: append -1 and -||z||^2/2
    assert np.array_equal(lift(np.zeros(4), 4), [0, 0, 0, 0, -1, 0])
    assert np.array_equal(lift([0.0, 1.0, 0.0], 3), [0, 1, 0, -1, -0.5])
    z = np.array([0.3, -1.2, 2.0, 0.7])
    want = np.concatenate([z, [-1.0, -0.5 * (z @ z)]])
    assert np.allclose(lift(z, 4), want, atol=1e-14)
    # a batch rides along on the trailing axis: (features, batch)
    batch = np.arange(6.0).reshape(3, 2)
    assert lift(batch, 3).shape == (5, 2)
    assert np.array_equal(lift(batch, 3)[:, 1], lift(batch[:, 1], 3))
    # group 3 lifts each point of a flattened shape; group 0 does not lift
    got = lift([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 3)
    assert np.array_equal(got, [0, 0, 0, -1, 0, 1, 0, 0, -1, -0.5])
    assert np.array_equal(lift(batch, 0), batch)


def test_lift_grad_is_the_transposed_jacobian():
    # <d, lift(x + h e_j) - lift(x - h e_j)> / 2h must match lift_grad(d, lift(x))_j
    rng = np.random.default_rng(21)
    for group in (0, 3, 12):
        x = rng.uniform(-3, 3, (12, 2))
        d = rng.standard_normal(lift(x, group).shape)
        got = lift_grad(d, lift(x, group), group)
        assert got.shape == x.shape
        h = 1e-6
        for i, j in np.ndindex(x.shape):
            step = np.zeros_like(x)
            step[i, j] = h
            num = np.sum(d * (lift(x + step, group) - lift(x - step, group))) / (2 * h)
            assert abs(num - got[i, j]) <= 1e-6 * (1.0 + abs(num))


def test_embed_point_rejects_bad_input():
    with pytest.raises(ValueError):
        embed_point([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        embed_point([np.inf, 0.0, 0.0])
    with pytest.raises(ValueError):
        embed_point([])


def test_sphere_examples():
    # unit sphere at the origin
    assert np.array_equal(sphere_from_center_radius([0, 0, 0], 1.0), [0, 0, 0, -0.5, 1])
    # unit sphere translated to (1,0,0)
    assert np.array_equal(sphere_from_center_radius([1, 0, 0], 1.0), [1, 0, 0, 0, 1])
    assert sphere_from_center_radius([2, 3, 4], 0.5)[-1] == 1.0


def test_conformal_dot_matches_distance_formula():
    # the lifted dot product must equal -||x-c||^2/2 + r^2/2
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = rng.uniform(-5, 5, 3)
        c = rng.uniform(-5, 5, 3)
        r = rng.uniform(0, 5)
        got = conformal_dot(embed_point(x), sphere_from_center_radius(c, r))
        want = -0.5 * np.sum((x - c) ** 2) + 0.5 * r * r
        assert abs(got - want) <= 1e-12


def test_conformal_dot_shape_mismatch():
    with pytest.raises(ValueError):
        conformal_dot(embed_point([1.0, 2.0, 3.0]), np.zeros(4))


def test_classify_point():
    s = sphere_from_center_radius([1.0, 2.0, 3.0], 2.0)
    assert classify_point(embed_point([1.0, 2.0, 3.0]), s) == "inside"
    assert classify_point(embed_point([3.0, 2.0, 3.0]), s) == "on"
    assert classify_point(embed_point([9.0, 2.0, 3.0]), s) == "outside"
    with pytest.raises(ValueError):
        classify_point(embed_point([0.0, 0.0, 0.0]), 2.0 * s)


def test_point_normalize_recovers_scale():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = rng.uniform(-3, 3, 3)
        r = rng.uniform(0.1, 3)
        gamma = rng.uniform(-4, 4)
        if gamma == 0.0:
            continue
        raw = gamma * sphere_from_center_radius(c, r)
        normalized, got_gamma = point_normalize(raw)
        assert np.isclose(got_gamma, gamma, rtol=0, atol=1e-12)
        assert np.allclose(normalized, sphere_from_center_radius(c, r), atol=1e-12)


def test_point_normalize_degenerate():
    with pytest.raises(DegenerateSphereError):
        point_normalize(np.array([1.0, 0.0, 0.0, 0.5, 0.0]))


def test_extract_center_radius_sq():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = rng.uniform(-3, 3, 3)
        r = rng.uniform(0, 3)
        center, r_sq = extract_center_radius_sq(sphere_from_center_radius(c, r))
        assert np.allclose(center, c, atol=1e-12)
        assert abs(r_sq - r * r) <= 1e-12
    # negative squared radius is legal and preserved
    s = np.array([0.0, 0.0, 0.0, 0.5, 1.0])
    _, r_sq = extract_center_radius_sq(s)
    assert r_sq == -1.0
    with pytest.raises(ValueError):
        extract_center_radius_sq(np.array([0.0, 0.0, 0.0, 0.5, 2.0]))


def test_rigid_motion_validation():
    with pytest.raises(ValueError):
        RigidMotion(np.ones((3, 3)), np.zeros(3))
    # reflections (det -1) are not rigid motions here
    with pytest.raises(ValueError):
        RigidMotion(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        RigidMotion(np.eye(3), np.zeros(2))


def test_rigid_motion_apply_compose_inverse():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3, 3, (10, 3))
    for _ in range(50):
        m1 = random_motion(rng)
        m2 = random_motion(rng)
        # compose = apply inner first, then outer
        assert np.allclose(m1.compose(m2).apply(pts), m1.apply(m2.apply(pts)), atol=1e-12)
        inv = m1.inverse()
        assert np.allclose(inv.apply(m1.apply(pts)), pts, atol=1e-12)
    ident = RigidMotion.identity()
    assert np.array_equal(ident.apply(pts), pts)


def test_rotation_about_axis():
    # quarter turn about z maps x to y
    r = rotation_about_axis([0, 0, 1], np.pi / 2)
    assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    # axis scale is irrelevant
    assert np.allclose(
        rotation_about_axis([0, 0, 5], 0.7), rotation_about_axis([0, 0, 1], 0.7)
    )
    with pytest.raises(ValueError):
        rotation_about_axis([0, 0, 0], 1.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = rotation_about_axis(rng.standard_normal(3), rng.uniform(0, 2 * np.pi))
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(r) - 1.0) <= 1e-14


def test_rotation_about_axis_is_the_one_vector_rodrigues_bit_for_bit():
    # datasets recorded with the one-vector formula must not move
    rng = np.random.default_rng(9)
    for _ in range(500):
        axis = rng.standard_normal(3)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        a = axis / np.linalg.norm(axis)
        k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        want = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
        assert np.array_equal(rotation_about_axis(axis, angle), want)


def test_rotation_about_axis_stacks_bit_for_bit():
    rng = np.random.default_rng(8)
    axes = rng.standard_normal((4, 5, 3)) * rng.choice([1e-6, 1.0, 1e6], (4, 5, 1))
    angles = rng.uniform(-7.0, 7.0, (4, 5))
    stack = rotation_about_axis(axes, angles)
    assert stack.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        r = stack[idx]
        assert np.array_equal(r, rotation_about_axis(axes[idx], angles[idx]))
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(r) - 1.0) <= 1e-14
    # one angle broadcasts over a stack of axes
    assert np.array_equal(rotation_about_axis(axes, 0.3)[2, 1], rotation_about_axis(axes[2, 1], 0.3))
    for row in (0, 7, 19):
        flat = axes.reshape(20, 3).copy()
        flat[row] = 0.0
        with pytest.raises(ValueError, match="axis must be a nonzero vector"):
            rotation_about_axis(flat, angles.ravel())


def test_rigid_motion_applies_a_stack_as_its_shapes_one_at_a_time():
    # one matmul over every point of the stack rounds as the per-shape ones do
    rng = np.random.default_rng(6)
    for n in (1, 7, 2000):
        motion = random_motion(rng)
        shapes = rng.uniform(-3, 3, (n, 4, 3))
        moved = motion.apply(shapes)
        assert moved.shape == shapes.shape
        for i in range(n):
            assert np.array_equal(moved[i], motion.apply(shapes[i]))


def test_motor_adjoint_law():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = random_motion(rng)
        prod = motor_matrix_point(m).T @ motor_matrix_sphere(m)
        assert np.max(np.abs(prod - np.eye(5))) <= 1e-12


def test_motor_composition_homomorphism():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m1 = random_motion(rng)
        m2 = random_motion(rng)
        composed = motor_matrix_sphere(m1) @ motor_matrix_sphere(m2)
        direct = motor_matrix_sphere(m1.compose(m2))
        assert np.max(np.abs(composed - direct)) <= 1e-12


def test_sphere_motor_moves_spheres():
    # moving a sphere's vector equals lifting the moved sphere
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = random_motion(rng)
        c = rng.uniform(-3, 3, 3)
        r = rng.uniform(0, 3)
        moved = motor_matrix_sphere(m) @ sphere_from_center_radius(c, r)
        want = sphere_from_center_radius(m.apply(c), r)
        assert np.allclose(moved, want, atol=1e-12)


def test_point_motor_moves_points():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_motion(rng, t_range=1.0)
        x = rng.uniform(-1, 1, 3)
        moved = motor_matrix_point(m) @ embed_point(x)
        assert np.max(np.abs(moved - embed_point(m.apply(x)))) <= 1e-9


def test_motors_preserve_incidence():
    # simultaneous motion of point and sphere leaves the dot product fixed
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = random_motion(rng)
        x = rng.uniform(-3, 3, 3)
        c = rng.uniform(-3, 3, 3)
        r = rng.uniform(0, 3)
        p = embed_point(x)
        s = sphere_from_center_radius(c, r)
        before = conformal_dot(p, s)
        after = conformal_dot(motor_matrix_point(m) @ p, motor_matrix_sphere(m) @ s)
        assert abs(before - after) <= 1e-9
