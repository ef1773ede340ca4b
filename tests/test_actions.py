import math

import numpy as np
import pytest

from ligi.actions import (
    QUAT_LEFT,
    SE2_ON_R2,
    SL2_ON_R2,
    SO3_ON_S2,
    TORUS,
    AffineAction,
    LeftMultiplicationAction,
    TranslationAction,
    stiefel_action,
)
from ligi.errors import ActionMismatch
from ligi.liealg import S3, SL2, SO3, QuatOps, hat
from ligi.problems import duffing_problem, DuffingParams, free_rigid_body_s2
from ligi.symplectic import HeavyTopParams, heavy_top
from oracles import duffing_se2_frozen_flow, random_rotation, random_unit_quaternion

AFFINE3 = AffineAction(3)
TRANSLATION3 = TranslationAction(3)
STIEFEL62 = stiefel_action(6)


def _random_point(action, rng):
    if action is SO3_ON_S2:
        m = rng.normal(size=3)
        return m / np.linalg.norm(m)
    if action in (SL2_ON_R2, SE2_ON_R2):
        return rng.normal(size=2)
    if action is AFFINE3 or action is TRANSLATION3:
        return rng.normal(size=3)
    if action is TORUS:
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        return np.array([[np.cos(a), np.sin(a)], [np.cos(b), np.sin(b)]])
    if action is QUAT_LEFT:
        return random_unit_quaternion(rng)
    if action is STIEFEL62:
        Q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        return Q
    raise AssertionError(action)


def _random_algebra(action, rng):
    g = action.group
    if action is SL2_ON_R2:
        A = rng.normal(size=(2, 2))
        A[1, 1] = -A[0, 0]
        return A
    if action in (SE2_ON_R2, AFFINE3):
        n = action.n
        xi = np.zeros((n + 1, n + 1))
        xi[:n, :n] = rng.normal(size=(n, n))
        xi[:n, n] = rng.normal(size=n)
        return xi
    if action is STIEFEL62:
        M = rng.normal(size=(6, 6))
        return M - M.T
    return rng.normal(size=g.dim)


ALL_ACTIONS = [SO3_ON_S2, SL2_ON_R2, SE2_ON_R2, AFFINE3, TRANSLATION3, TORUS,
               QUAT_LEFT, STIEFEL62]


@pytest.mark.parametrize("action", ALL_ACTIONS, ids=lambda a: a.name)
def test_action_axioms(action, rng):
    e = action.group.identity()
    worst = 0.0
    for _ in range(1000):
        m = _random_point(action, rng)
        g = action.group.exp(_random_algebra(action, rng) * 0.5)
        h = action.group.exp(_random_algebra(action, rng) * 0.5)
        worst = max(worst, np.max(np.abs(action.apply(e, m) - m)))
        compat = action.apply(g, action.apply(h, m))
        combined = action.apply(action.group.mul(g, h), m)
        worst = max(worst, np.max(np.abs(compat - combined)))
    assert worst < 1e-12


@pytest.mark.parametrize("action", ALL_ACTIONS, ids=lambda a: a.name)
def test_generator_zero(action, rng):
    m = _random_point(action, rng)
    zero = _random_algebra(action, rng) * 0.0
    assert np.allclose(action.generator(zero, m), 0.0, atol=1e-15)


@pytest.mark.parametrize("action", ALL_ACTIONS, ids=lambda a: a.name)
def test_generator_matches_finite_difference(action, rng):
    t = 1e-6
    for _ in range(10):
        m = _random_point(action, rng)
        xi = _random_algebra(action, rng)
        fd = (action.apply(action.group.exp(t * xi), m)
              - action.apply(action.group.exp(-t * xi), m)) / (2.0 * t)
        assert np.max(np.abs(fd - action.generator(xi, m))) < 1e-6


def test_sphere_norm_preservation(rng):
    for _ in range(100):
        m = _random_point(SO3_ON_S2, rng)
        g = random_rotation(rng)
        assert abs(np.linalg.norm(SO3_ON_S2.apply(g, m)) - 1.0) < 1e-13


def test_stiefel_action_preserves_orthonormality(rng):
    for _ in range(50):
        Q = _random_point(STIEFEL62, rng)
        g = STIEFEL62.group.exp(_random_algebra(STIEFEL62, rng))
        Q2 = STIEFEL62.apply(g, Q)
        assert np.linalg.norm(Q2.T @ Q2 - np.eye(2)) < 1e-12


def test_sphere_isotropy_direction(rng):
    # generator(xi, m) = xi x m vanishes along m itself.
    m = _random_point(SO3_ON_S2, rng)
    assert np.allclose(SO3_ON_S2.generator(m, m), 0.0, atol=1e-15)
    assert np.allclose(SO3_ON_S2.generator(np.array([1.0, 0, 0]),
                                           np.array([1.0, 0, 0])), 0.0, atol=1e-15)


def test_sphere_isotropy_freedom_is_exact(rng):
    # Shifting the coefficient along the point leaves the field unchanged
    # (m x m vanishes); only the rounding of f + alpha*m enters.
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    for _ in range(50):
        m = _random_point(SO3_ON_S2, rng)
        alpha = rng.normal() * 10.0
        f = problem.coefficient_map(m)
        assert np.allclose(np.cross(f + alpha * m, m), np.cross(f, m),
                           atol=1e-14 * (1.0 + abs(alpha)))
        assert np.array_equal(np.cross(m, m), np.zeros(3))


def test_action_mismatch_errors():
    with pytest.raises(ActionMismatch):
        SO3_ON_S2.apply(np.eye(3), np.zeros(4))
    with pytest.raises(ActionMismatch):
        TORUS.apply(TORUS.group.identity(), np.zeros(3))


def test_left_multiplication_generator_only_on_s3_and_matrix_groups(rng):
    # xi @ m is the generator on a matrix group; on G x| g*, whose elements
    # are (g, mu) pairs, it raised numpy's inhomogeneous-shape ValueError.
    params = HeavyTopParams.benchmark()
    with pytest.raises(ActionMismatch, match="CotangentOps"):
        heavy_top(params).cotangent_problem.field(params.state0)
    with pytest.raises(ActionMismatch, match="So3Ops"):
        LeftMultiplicationAction(SO3, "so3_left").generator(np.ones(3), np.eye(3))
    xi, g = rng.normal(size=(2, 2, 2))
    assert np.array_equal(LeftMultiplicationAction(SL2, "sl2_left").generator(xi, g), xi @ g)


def test_left_multiplication_generator_on_a_fresh_s3_equals_the_one_on_s3(rng):
    # The S^3 generator is chosen by the group's type, not by identity with S3.
    fresh = LeftMultiplicationAction(QuatOps(), "fresh_s3_left")
    for _ in range(5):
        xi, q = rng.normal(size=3), random_unit_quaternion(rng)
        assert np.array_equal(fresh.generator(xi, q), QUAT_LEFT.generator(xi, q))
    assert QUAT_LEFT.group is S3


def _planar_rotation(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


def test_torus_exp_and_apply_match_rotation_matrices(rng):
    for _ in range(50):
        xi = rng.uniform(-10.0, 10.0, size=2)
        m = _random_point(TORUS, rng)
        g = TORUS.group.exp(xi)
        R = np.stack([_planar_rotation(xi[0]), _planar_rotation(xi[1])])
        assert np.array_equal(g, R)
        assert np.max(np.abs(TORUS.apply(g, m) - np.stack([R[0] @ m[0], R[1] @ m[1]]))) < 1e-15


def test_se2_exp_matches_duffing_frozen_flow():
    # The one-parameter orbit of the frozen rotation-translation generator
    # reproduces the closed-form oscillator flow with alpha = sqrt(a).
    a = b = 1.0
    p0 = np.array([0.75, 0.75])
    problem = duffing_problem(DuffingParams(a, b), "se2")
    xi = problem.coefficient_map(p0)
    for t in (0.1, 0.5):
        moved = SE2_ON_R2.apply(SE2_ON_R2.group.exp(t * xi), p0)
        assert np.allclose(moved, duffing_se2_frozen_flow(a, b, p0, t), atol=1e-12)


def test_frozen_field_equals_reference_at_base_point(rng):
    problems = [duffing_problem(DuffingParams(1.0, 1.0), fr)
                for fr in ("r2", "sl2", "se2")]
    problems.append(free_rigid_body_s2(1.0, 5.0, 60.0))
    for problem in problems:
        for _ in range(20):
            if problem.action is SO3_ON_S2:
                p = _random_point(SO3_ON_S2, rng)
            else:
                p = rng.normal(size=2)
            frozen = problem.frozen_field(p)
            assert np.max(np.abs(np.asarray(frozen(p))
                                 - problem.reference_field(p))) < 1e-13


def test_frozen_field_rigid_body_equilibrium():
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    p0 = np.array([1.0, 0.0, 0.0])
    frozen = problem.frozen_field(p0)
    assert np.allclose(frozen(p0), 0.0, atol=1e-15)
    # the frozen matrix is the hat of the coefficient vector
    F = hat(problem.coefficient_map(p0))
    assert np.allclose(F @ p0, 0.0, atol=1e-15)
