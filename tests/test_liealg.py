import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ligi.actions import SO3_ON_S2, FrozenFieldProblem
from ligi.discrete_gradient import dg_step, free_rigid_body_quat
from ligi.errors import (
    AlgebraMismatch,
    AngleNearPi,
    CoincidentPoints,
    CriticalPoint,
    DexpinvOutOfRange,
    DomainError,
    FixedPointDivergence,
    LogNearAntipode,
)
from ligi.liealg import (
    S3,
    SL2,
    SERIES_ORDER,
    SMALL_ANGLE,
    SO3,
    MatrixOps,
    TorusOps,
    TranslationOps,
    dexp_series,
    dexpinv_series,
    dual_dexp_series,
    euler_rodrigues,
    expm_2x2,
    expm_so3,
    hat,
    logm_so3,
    max_abs,
    max_abs_diff,
    quat_conj,
    quat_exp,
    quat_log,
    quat_mul,
    rotation_from_vector,
    son_ops,
    vee,
)
from ligi.steppers import ButcherTableau, rkmk_step
from ligi.symplectic import ImplicitSolver
from oracles import (
    Ad,
    axis_rotation,
    quat_log_matvec,
    random_rotation,
    random_unit_quaternion,
    taylor_expm,
)

vectors = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(np.array)
small_vectors = st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3).map(np.array)


# ---------------------------------------------------------------------------
# hat / vee
# ---------------------------------------------------------------------------

def test_hat_zero():
    assert np.array_equal(hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_hat_explicit():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(hat([1.0, 2.0, 3.0]), expected)


@given(vectors)
def test_hat_vee_roundtrip(v):
    A = hat(v)
    assert np.array_equal(A, -A.T)
    assert np.array_equal(vee(A), v)


@given(vectors, vectors)
def test_hat_is_cross_product(v, w):
    assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-12)


# ---------------------------------------------------------------------------
# Rodrigues exponential and logarithm
# ---------------------------------------------------------------------------

def test_expm_so3_identity():
    assert np.array_equal(expm_so3(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("angle", [1e-9, 1e-5, 0.3, 2.0, 3.1])
def test_expm_so3_axis_rotations(axis, angle):
    v = np.zeros(3)
    v[axis] = angle
    assert np.allclose(expm_so3(hat(v)), axis_rotation(axis, angle), atol=1e-13)


def test_expm_so3_matches_taylor_oracle(rng):
    for _ in range(300):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(v), 1e-12)
        A = hat(v)
        assert np.max(np.abs(expm_so3(A) - taylor_expm(A))) < 1e-12


def test_expm_so3_rotation_invariants(rng):
    for _ in range(200):
        R = rotation_from_vector(rng.normal(size=3) * 3.0)
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_logm_so3_identity():
    assert np.allclose(logm_so3(np.eye(3)), np.zeros((3, 3)), atol=1e-15)


def test_logm_so3_roundtrip():
    v = np.array([0.3, -0.2, 0.1])
    assert np.allclose(vee(logm_so3(expm_so3(hat(v)))), v, atol=1e-12)


def test_logm_so3_roundtrip_random(rng):
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, np.pi - 1e-3) / max(np.linalg.norm(v), 1e-12)
        R = rotation_from_vector(v)
        assert np.max(np.abs(expm_so3(logm_so3(R)) - R)) < 1e-10


def test_logm_so3_rejects_angle_near_pi():
    R = axis_rotation(0, np.pi - 1e-8)
    with pytest.raises(AngleNearPi):
        logm_so3(R)


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------

def test_sl2_standard_basis_bracket():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    Y = np.array([[0.0, 0.0], [1.0, 0.0]])
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    # The matrix commutator gives +H; the vector-field realisation picks up
    # a sign because the generator map is an anti-homomorphism.
    assert np.array_equal(SL2.bracket(X, Y), H)


@pytest.mark.parametrize("values", [
    [-2.5, 1.0, 0.5], [0.0, np.nan], [np.nan, 0.0], [1.0, -np.inf],
    [1e308, 1e308, -3.0],  # the screening sum overflows on finite entries
])
def test_max_abs_matches_numpy(values):
    expected = float(np.max(np.abs(values)))
    got = max_abs(values)
    assert got == expected or (np.isnan(got) and np.isnan(expected))


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------

def test_max_abs_diff_flattens_and_keeps_nan():
    a = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    b = [np.array([1.0, 2.5]), np.array([3.0, 1.0])]
    assert max_abs_diff(a, b) == 3.0
    assert math.isnan(max_abs_diff(np.zeros(2), np.array([0.0, np.nan])))


def _rkmk_midpoint(max_iter):
    problem = FrozenFieldProblem(action=SO3_ON_S2,
                                 coefficient_map=lambda m: np.array([m[1], m[2], m[0]]))
    midpoint = ButcherTableau(a=[[0.5]], b=[1.0])
    return rkmk_step(problem, np.array([1.0, 0.0, 0.0]), 0.1, tableau=midpoint,
                     solver=ImplicitSolver(max_iter=max_iter))


def _dg(max_iter):
    system = free_rigid_body_quat([1.0, 5.0, 60.0], [1.0, 0.1, -1.0 / 60.0])
    return dg_step(system, np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64,
                   solver=ImplicitSolver(max_iter=max_iter))


def _fixed_point(max_iter):
    return ImplicitSolver(max_iter=max_iter).fixed_point(
        lambda z: z - (z - 1.0), np.zeros(2), 0.1, "fixed-point iteration did not converge")


def _newton(max_iter):
    return ImplicitSolver(max_iter=max_iter).solve(lambda z: z - 1.0, np.zeros(2), h=0.1)


# Newton reports the residual at its start point, the fixed-point loop inf.
@pytest.mark.parametrize("solve, reported", [
    (_rkmk_midpoint, lambda r: 0.0 < r < math.inf),
    (_dg, lambda r: r == math.inf),
    (_fixed_point, lambda r: r == math.inf),
    (_newton, lambda r: r == 1.0),
], ids=["rkmk_step", "dg_step", "fixed_point", "newton"])
def test_no_iterations_allowed_is_divergence(solve, reported):
    solve(100)  # converges when iterations are allowed
    with pytest.raises(FixedPointDivergence) as err:
        solve(0)
    assert reported(err.value.residual)


def test_bracket_shape_mismatch():
    with pytest.raises(AlgebraMismatch):
        SO3.bracket(np.zeros(3), np.zeros(4))
    with pytest.raises(AlgebraMismatch):
        SL2.bracket(np.zeros((2, 2)), np.zeros((3, 3)))


@given(vectors)
def test_bracket_antisymmetry(v):
    assert np.allclose(SO3.bracket(v, v), 0.0, atol=1e-13)


@given(small_vectors, small_vectors, small_vectors)
@settings(max_examples=50)
def test_jacobi_identity_so3(a, b, c):
    total = (SO3.bracket(a, SO3.bracket(b, c))
             + SO3.bracket(b, SO3.bracket(c, a))
             + SO3.bracket(c, SO3.bracket(a, b)))
    assert np.max(np.abs(total)) < 1e-13


def test_jacobi_identity_matrix(rng):
    for _ in range(50):
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        total = (SL2.bracket(a, SL2.bracket(b, c))
                 + SL2.bracket(b, SL2.bracket(c, a))
                 + SL2.bracket(c, SL2.bracket(a, b)))
        assert np.max(np.abs(total)) < 1e-13


def test_quaternion_bracket_scale():
    w1 = np.array([1.0, 0.0, 0.0])
    w2 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(S3.bracket(w1, w2), [0.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# dexp / dexpinv series and the exact so(3) forms
# ---------------------------------------------------------------------------

def test_dexp_series_zero_sigma(rng):
    v = rng.normal(size=3)
    assert np.array_equal(dexp_series(SO3, np.zeros(3), v, 8), v)
    assert np.array_equal(dexpinv_series(SO3, np.zeros(3), v, 8), v)


def test_series_order_zero_is_identity_and_negative_order_raises(rng):
    # Order 0 keeps only the identity term, also through the GroupOps default;
    # a negative order would otherwise slice the coefficients from the end.
    s, v = rng.normal(size=(2, 2, 2))
    s[1, 1], v[1, 1] = -s[0, 0], -v[0, 0]  # traceless
    assert np.array_equal(SL2.dexpinv(s, v, 0), v)
    assert np.array_equal(SL2.dexp(s, v, 0), v)
    assert np.array_equal(SL2.dexpinv(s, v), dexpinv_series(SL2, s, v, SERIES_ORDER))
    for series in (dexp_series, dexpinv_series, dual_dexp_series):
        with pytest.raises(ValueError, match="series order must be in 0..24"):
            series(SL2, s, v, -3)
        with pytest.raises(ValueError, match="series order must be in 0..24"):
            series(SL2, s, v, 25)


def test_dexp_series_commuting_case(rng):
    v = rng.normal(size=3)
    assert np.allclose(dexp_series(SO3, v, v, 8), v, atol=1e-14)
    assert np.allclose(dexpinv_series(SO3, v, v, 8), v, atol=1e-14)


def test_dexp_series_truncation_stability(rng):
    for _ in range(20):
        sigma = rng.normal(size=3)
        sigma *= 0.1 / np.linalg.norm(sigma)
        v = rng.normal(size=3)
        assert np.allclose(dexp_series(SO3, sigma, v, 8),
                           dexp_series(SO3, sigma, v, 16), atol=1e-12)


def test_dexp_dexpinv_composition_order(rng):
    # dexp_N(dexpinv_N(v)) - v = O(|sigma|^{N+1}); halving sigma must show
    # the corresponding convergence rate.
    for order in (2, 4, 8):
        sigma0 = rng.normal(size=3)
        sigma0 *= 0.8 / np.linalg.norm(sigma0)
        v = rng.normal(size=3)
        errs, hs = [], []
        for j in range(7):
            sigma = sigma0 / 2 ** j
            err = np.linalg.norm(
                dexp_series(SO3, sigma, dexpinv_series(SO3, sigma, v, order), order) - v)
            if err > 1e-13:
                errs.append(err)
                hs.append(np.linalg.norm(sigma))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= order + 0.5


def test_dexpinv_so3_exact_trivials(rng):
    v = rng.normal(size=3)
    assert np.array_equal(SO3.dexpinv(np.zeros(3), v), v)
    assert np.allclose(SO3.dexpinv(2.0 * v, v), v, atol=1e-14)


def test_dexpinv_so3_exact_pole_is_a_domain_error():
    sigma = np.array([2.0 * np.pi, 0.0, 0.0])
    with pytest.raises(DexpinvOutOfRange):
        SO3.dexpinv(sigma, np.ones(3))
    for error in (AngleNearPi, LogNearAntipode, CriticalPoint, CoincidentPoints,
                  DexpinvOutOfRange):
        assert issubclass(error, DomainError) and issubclass(error, ValueError)


@pytest.mark.parametrize("group, sigma, message", [
    (SO3, [6.4, 0.0, 0.0], "needs |sigma| < 2*pi, got 6.4"),
    (S3, [3.2, 0.0, 0.0], "needs |sigma| < pi, got 3.2"),
    (S3, [0.0, -3.2, 0.0], "needs |sigma| < pi, got 3.2"),
], ids=["dexpinv-SO3", "dexpinv-S3", "dexpinv-S3-negative"])
def test_dexpinv_domain_error_names_the_callers_norm_and_bound(group, sigma, message):
    # S^3's ad_sigma is hat(2 sigma): its bound is pi on the caller's |sigma|.
    with pytest.raises(DexpinvOutOfRange) as info:
        group.dexpinv(sigma, [1.0, 0.0, 0.0])
    assert str(info.value) == "dexpinv closed form " + message


def test_dexpinv_so3_exact_matches_series(rng):
    for _ in range(50):
        sigma = rng.normal(size=3)
        sigma *= rng.uniform(0.01, 1.0) / np.linalg.norm(sigma)
        v = rng.normal(size=3)
        assert np.allclose(SO3.dexpinv(sigma, v),
                           dexpinv_series(SO3, sigma, v, 16), atol=1e-12)


def test_dexp_exact_inverts_dexpinv(rng):
    for _ in range(50):
        sigma = rng.normal(size=3)
        v = rng.normal(size=3)
        assert np.allclose(SO3.dexp(sigma, SO3.dexpinv(sigma, v)), v, atol=1e-12)


def test_dual_dexp_pairing_identity(rng):
    for ops in (SO3, S3):
        for _ in range(50):
            sigma = rng.normal(size=3) * 0.5
            mu = rng.normal(size=3)
            v = rng.normal(size=3)
            lhs = float(ops.dual_dexp(sigma, mu) @ v)
            rhs = float(mu @ ops.dexp(sigma, v))
            assert abs(lhs - rhs) < 1e-12


def test_dual_dexp_zero_sigma(rng):
    mu = rng.normal(size=3)
    assert np.array_equal(dual_dexp_series(SO3, np.zeros(3), mu, 8), mu)


def test_dual_dexp_matches_transposed_matrix(rng):
    # Assemble the dexp matrix column by column from the series and compare
    # its transpose action with the closed dual form.
    for _ in range(20):
        sigma = rng.normal(size=3) * 0.7
        M = np.column_stack([dexp_series(SO3, sigma, e, 20) for e in np.eye(3)])
        mu = rng.normal(size=3)
        assert np.allclose(SO3.dual_dexp(sigma, mu), M.T @ mu, atol=1e-12)


# ---------------------------------------------------------------------------
# Adjoint / coadjoint dualities
# ---------------------------------------------------------------------------

def test_adjoint_identity_element(rng):
    mu = rng.normal(size=3)
    assert np.array_equal(SO3.coAd(np.eye(3), mu), mu)


def _algebra_element(ops, rng):
    """A random algebra element of ops: a vector, or an n x n matrix of its kind."""
    if not isinstance(ops, MatrixOps):
        return rng.normal(size=ops.dim)
    A = rng.normal(size=(ops.n, ops.n))
    if ops.kind == "so":
        return A - A.T
    if ops.kind == "sl":
        return A - np.trace(A) / ops.n * np.eye(ops.n)
    return A


def test_coadjoint_pairing_duality(rng):
    for _ in range(100):
        g = random_rotation(rng)
        mu = rng.normal(size=3)
        xi = rng.normal(size=3)
        assert abs(np.vdot(SO3.coAd(g, mu), xi) - np.vdot(mu, Ad(SO3, g, xi))) < 1e-13


@pytest.mark.parametrize("ops", [S3, son_ops(3), son_ops(5), SL2, MatrixOps(3),
                                 TranslationOps(2), TorusOps()],
                         ids=["S3", "so3", "so5", "SL2", "gl3", "R2", "torus"])
def test_coadjoint_pairing_duality_off_so3(ops, rng):
    # The SO(3) duality above on every other group: <coAd(g, mu), xi> =
    # <mu, g xi g^{-1}>, by the dot product on vectors and the Frobenius
    # pairing on matrices; S^3 conjugates by euler_rodrigues(g).
    for _ in range(50):
        g = ops.exp(0.5 * _algebra_element(ops, rng))
        xi = _algebra_element(ops, rng)
        mu = rng.normal(size=np.shape(xi))
        lhs, rhs = np.vdot(ops.coAd(g, mu), xi), np.vdot(mu, Ad(ops, g, xi))
        assert abs(lhs - rhs) < 1e-12 * (1.0 + np.linalg.norm(mu) * np.linalg.norm(xi))


def test_coadjoint_so3_is_transpose(rng):
    # Under the dot-product pairing coAd(g, mu) = g^T mu: verify against the
    # pairing definition on the basis.
    g = random_rotation(rng)
    mu = rng.normal(size=3)
    expected = np.array([np.vdot(mu, Ad(SO3, g, e)) for e in np.eye(3)])
    assert np.allclose(SO3.coAd(g, mu), expected, atol=1e-13)
    assert np.allclose(SO3.coAd(g, mu), g.T @ mu, atol=1e-13)


def test_coad_bracket_duality(rng):
    so3_matrix = son_ops(3)
    for ops in (SO3, S3, so3_matrix):
        for _ in range(50):
            if ops is so3_matrix:
                xi, eta = hat(rng.normal(size=3)), hat(rng.normal(size=3))
                mu = rng.normal(size=(3, 3))
            else:
                xi, eta, mu = (rng.normal(size=3) for _ in range(3))
            lhs = np.vdot(ops.coad(xi, mu), eta)
            rhs = np.vdot(mu, ops.bracket(xi, eta))
            assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# Quaternions
# ---------------------------------------------------------------------------

def test_quat_identity_law(rng):
    e = np.array([1.0, 0.0, 0.0, 0.0])
    q = random_unit_quaternion(rng)
    assert np.allclose(quat_mul(e, q), q, atol=1e-15)
    assert np.allclose(quat_mul(q, e), q, atol=1e-15)


def test_quat_inverse(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        assert np.allclose(quat_mul(q, quat_conj(q)), [1.0, 0, 0, 0], atol=1e-14)


def test_quat_associativity(rng):
    for _ in range(50):
        p, q, r = (random_unit_quaternion(rng) for _ in range(3))
        assert np.allclose(quat_mul(quat_mul(p, q), r),
                           quat_mul(p, quat_mul(q, r)), atol=1e-13)


def test_quat_exp_log_roundtrip(rng):
    for _ in range(100):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, np.pi - 0.05) / (2.0 * np.linalg.norm(w))
        assert np.allclose(quat_log(quat_exp(w)), w, atol=1e-12)
        q = random_unit_quaternion(rng)
        if q[0] <= -1 + 1e-6:
            continue
        assert np.allclose(quat_exp(quat_log(q)), q, atol=1e-10)


def test_quat_log_near_antipode():
    q = np.array([-1.0 + 1e-12, 0.0, 0.0, 0.0])
    q /= np.linalg.norm(q)
    with pytest.raises(LogNearAntipode):
        quat_log(q)


def test_quat_exp_covers_double_rotation(rng):
    # E(quat_exp(w)) = expm_so3(hat(2 w)), and rotation about x by theta is
    # generated by the pure quaternion (theta/2) e1.
    theta = 0.73
    q = quat_exp(np.array([theta / 2.0, 0.0, 0.0]))
    assert np.allclose(euler_rodrigues(q), axis_rotation(0, theta), atol=1e-13)
    for _ in range(50):
        w = rng.normal(size=3) * 0.4
        assert np.max(np.abs(euler_rodrigues(quat_exp(w))
                             - expm_so3(hat(2.0 * w)))) < 1e-11


def test_euler_rodrigues_identity_and_orthogonality(rng):
    assert np.array_equal(euler_rodrigues([1.0, 0, 0, 0]), np.eye(3))
    for _ in range(100):
        q = random_unit_quaternion(rng)
        E = euler_rodrigues(q)
        assert np.linalg.norm(E.T @ E - np.eye(3)) < 1e-12
        assert np.allclose(E, euler_rodrigues(-q), atol=1e-14)


# ---------------------------------------------------------------------------
# The closed 2x2 exponential
# ---------------------------------------------------------------------------

def _traceless_with_det(q, p, b, transpose):
    """[[p, b], [c, -p]] with c chosen so that its determinant is q."""
    B = np.array([[p, b], [-(q + p * p) / b, -p]])
    return B.T if transpose else B


# det B near 0 of both signs (the series branch and just past it) and away
# from 0; entries of B up to 1e4; traces up to 60, so e^m up to 1e13.  Past
# |det B| = 4 scipy's own error approaches 1e-13 (1.2e-13 at B = [[0, 1],
# [11, 0]] against a 50-digit mpmath expm, where the closed form is within
# 1e-16), so the draws stop there.
near_zero_det = st.floats(-3.0 * SMALL_ANGLE ** 2, 3.0 * SMALL_ANGLE ** 2)


@settings(max_examples=300, deadline=None)
@given(q=st.one_of(near_zero_det, st.floats(-4.0, 4.0)), p=st.floats(-1.0, 1.0),
       b=st.one_of(st.floats(1e-2, 1e4), st.floats(-1e4, -1e-2)),
       transpose=st.booleans(), trace=st.floats(-60.0, 60.0))
def test_expm_2x2_matches_scipy(q, p, b, transpose, trace):
    # scipy's expm does not shift the trace, and loses up to ~3.5e-12
    # relative at |tr A| = 60; exp(A) = e^m exp(B) puts the trace into an
    # exact factor.
    B = _traceless_with_det(q, p, b, transpose)
    m = 0.5 * trace
    A = B + m * np.eye(2)
    ref = math.exp(m) * scipy.linalg.expm(B)
    for E in (expm_2x2(A), MatrixOps(2).exp(A), SL2.exp(B) * math.exp(m)):
        assert np.linalg.norm(E - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("A", [
    [[0.0, 1e200], [-1e200, 0.0]],  # det B = inf: cos(inf)
    [[0.0, 1e3], [1e3, 0.0]],  # cosh(1e3) overflows
    [[800.0, 0.0], [0.0, 800.0]],  # e^800 overflows
    [[np.inf, 0.0], [0.0, 0.0]],
], ids=["infinite-angle", "cosh-overflow", "exp-overflow", "infinite-entry"])
def test_expm_2x2_overflow_is_nan(A):
    assert np.isnan(expm_2x2(A)).all()


@pytest.mark.parametrize("exp, arg", [
    (rotation_from_vector, [np.inf, 0.0, 0.0]),
    (rotation_from_vector, [1e200, 1e200, 0.0]),
    (quat_exp, [0.0, np.inf, 0.0]),
    (TorusOps().exp, [0.5, np.inf]),
    (lambda s: SO3.dexp(s, [1.0, 0.0, 0.0]), [0.0, 0.0, -np.inf]),
    (lambda s: SO3.dexpinv(s, [1.0, 0.0, 0.0]), [0.0, 0.0, -np.inf]),
], ids=["rotation", "rotation-overflow", "quat", "torus", "dexp", "dexpinv"])
def test_closed_forms_at_an_infinite_angle_are_nan(exp, arg):
    assert np.isnan(exp(np.array(arg))).all()


# ---------------------------------------------------------------------------
# Closed so(3)/S^3 forms against independent references
# ---------------------------------------------------------------------------
#
# Each property runs on both sides of SMALL_ANGLE, where the closed forms
# switch between their series and trigonometric branches, and with the
# arguments passed as arrays and as plain lists.

def _vectors_with_norm(lo, hi):
    directions = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
        np.array).filter(lambda u: np.linalg.norm(u) > 1e-3)
    return st.builds(lambda u, r: u * (r / np.linalg.norm(u)),
                     directions, st.floats(lo, hi))


# Below SMALL_ANGLE even after doubling (quat_exp(w) covers rotation 2w).
ANGLES = {"series": _vectors_with_norm(0.0, 0.45 * SMALL_ANGLE),
          "closed": _vectors_with_norm(1.1 * SMALL_ANGLE, 3.0)}
by_side = pytest.mark.parametrize("side", sorted(ANGLES))
as_list = pytest.mark.parametrize("as_list", [False, True])
kernel_examples = settings(max_examples=50, deadline=None)


def _arg(v, as_list):
    return np.asarray(v).tolist() if as_list else v


def _skew(v):
    """The matrix of x -> cross(v, x), built from np.cross."""
    return np.cross(v, np.eye(3)).T


def _unit_quat(w):
    t = np.linalg.norm(w)
    return np.concatenate([[np.cos(t)], np.sinc(t / np.pi) * w])


def _hamilton(p, q):
    return np.concatenate([[p[0] * q[0] - p[1:] @ q[1:]],
                           p[0] * q[1:] + q[0] * p[1:] + np.cross(p[1:], q[1:])])


@by_side
@as_list
@kernel_examples
@given(data=st.data())
def test_rotation_from_vector_matches_expm(side, as_list, data):
    v = data.draw(ANGLES[side])
    R = rotation_from_vector(_arg(v, as_list))
    assert np.max(np.abs(R - scipy.linalg.expm(_skew(v)))) < 1e-13


@by_side
@as_list
@kernel_examples
@given(data=st.data(), mu=vectors, v=vectors)
def test_dual_dexp_family_pairing(side, as_list, data, mu, v):
    sigma = data.draw(ANGLES[side])
    scale = 1e-13 * (1.0 + np.linalg.norm(mu) * np.linalg.norm(v))
    s, m, w = (_arg(x, as_list) for x in (sigma, mu, v))
    assert abs(SO3.dual_dexp(s, m) @ v - mu @ SO3.dexp(s, w)) < scale


@by_side
@as_list
@kernel_examples
@given(data=st.data(), v=vectors)
def test_dexp_inverts_dexpinv(side, as_list, data, v):
    sigma = _arg(data.draw(ANGLES[side]), as_list)
    w = SO3.dexpinv(sigma, _arg(v, as_list))
    assert np.max(np.abs(SO3.dexp(sigma, w) - v)) < 1e-13 * (1.0 + np.linalg.norm(v))


@as_list
@kernel_examples
@given(sigma=st.one_of(st.just(np.zeros(3)), *ANGLES.values()), v=vectors, mu=vectors)
def test_s3_dexp_family_is_so3_at_twice_sigma(as_list, sigma, v, mu):
    # S^3's ad_sigma is so(3)'s at 2 sigma and each dual is its primal at
    # -sigma; scaling by +-1 and +-2 is exact, so the forms agree bit for bit.
    s, w, m = (_arg(x, as_list) for x in (sigma, v, mu))
    for name, x in (("dexp", w), ("dexpinv", w), ("dual_dexp", m)):
        assert np.array_equal(getattr(S3, name)(s, x), getattr(SO3, name)(2.0 * sigma, x))
    assert np.array_equal(SO3.dual_dexp(s, m), SO3.dexp(-sigma, m))


@by_side
@as_list
@kernel_examples
@given(data=st.data())
def test_quat_mul_is_normalised_hamilton_product(side, as_list, data):
    p = _unit_quat(data.draw(ANGLES[side]))
    q = _unit_quat(data.draw(ANGLES["closed"]))
    ref = _hamilton(p, q)
    out = quat_mul(_arg(p, as_list), _arg(q, as_list))
    assert np.max(np.abs(out - ref / np.linalg.norm(ref))) < 4e-15
    assert abs(np.linalg.norm(out) - 1.0) < 4e-15


@by_side
@as_list
@kernel_examples
@given(data=st.data())
def test_euler_rodrigues_of_quat_exp_is_double_rotation(side, as_list, data):
    w = data.draw(ANGLES[side])
    E = euler_rodrigues(_arg(quat_exp(_arg(w, as_list)), as_list))
    assert np.max(np.abs(E - rotation_from_vector(_arg(2.0 * w, as_list)))) < 1e-13


# quat_log on Python floats against its numpy form, on both sides of its
# 1e-9 branch: a vector part below it is divided by q0 alone.  The atan2 side
# ends just short of the antipode guard q0 <= -1 + 1e-9, which quat_exp(w)
# reaches at |w| = acos(-1 + 1e-9) ~ pi - 4.5e-5 and beyond which quat_log
# raises LogNearAntipode by design.
LOG_SIDES = {"series": (0.0, 0.9e-9), "atan2": (1.1e-9, math.acos(-1.0 + 1e-9) - 1e-7)}


@pytest.mark.parametrize("side", sorted(LOG_SIDES))
@as_list
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_quat_log_matches_matvec_form_and_inverts_exp(side, as_list, data):
    w = data.draw(_vectors_with_norm(*LOG_SIDES[side]))
    q = quat_exp(w)
    out = quat_log(_arg(q, as_list))
    ref = quat_log_matvec(q)
    assert np.max(np.abs(out - ref)) <= 1e-15 * max(1.0, np.linalg.norm(ref))
    # exp and log are inverse on |w| < pi.
    assert np.max(np.abs(quat_exp(out) - q)) <= 1e-15
    assert np.max(np.abs(out - w)) <= 1e-14


@as_list
@pytest.mark.parametrize("q", [[-1.0, 0.0, 0.0, 0.0], [-1.0 + 5e-10, 3e-5, 0.0, 0.0]])
def test_quat_log_still_raises_near_antipode(as_list, q):
    q = np.asarray(q) / np.linalg.norm(q)
    with pytest.raises(LogNearAntipode, match=r"q0=-0\.99999999|q0=-1\.0\)"):
        quat_log(_arg(q, as_list))
