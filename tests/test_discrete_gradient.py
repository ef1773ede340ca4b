import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ligi import discrete_gradient, liealg
from ligi.discrete_gradient import (
    InvariantSystem,
    body_momentum,
    dg_step,
    free_rigid_body_quat,
    gauss_legendre_01,
    tdd_avf,
    tdd_gonzalez,
    trivialized_differential,
    two_form_matrix,
)
from ligi.errors import (
    CoincidentPoints,
    CriticalPoint,
    FixedPointDivergence,
    LogNearAntipode,
    NonFiniteState,
)
from ligi.liealg import (
    S3,
    SO3,
    QuatOps,
    So3Ops,
    TranslationOps,
    _quat_exp,
    _quat_log,
    _quat_mul,
    quat_exp,
    quat_log,
    quat_mul,
)
from ligi.symplectic import ImplicitSolver
from oracles import (
    fit_slope,
    frb_quat_matvec_forms,
    random_rotation,
    random_unit_quaternion,
    rk4_solve,
)

INERTIA = np.array([1.0, 5.0, 60.0])
M0 = np.array([1.0, 0.5, -1.0]) / INERTIA  # body momentum: I * m0 = (1, 1/2, -1)
FRB = free_rigid_body_quat(INERTIA, M0)


def so3_trace_system():
    """Invariant data on SO(3): the height H(R) = c . (R u) with its
    trivialised differential <R*dH, e> = c . (hat(e) R u) = e . ((R u) x c)."""
    c = np.array([0.4, 0.2, -0.9])
    u = np.array([0.7, 0.1, 0.2])

    def differential(R):
        return np.cross(R @ u, c)

    def energy(R):
        return float(c @ (R @ u))

    return energy, differential, u, c


def test_trivialized_differential_constant_energy(rng):
    q = random_unit_quaternion(rng)
    out = trivialized_differential(S3, lambda x: 3.14, q)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_trivialized_differential_closed_form_matches_fd(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        fd = trivialized_differential(S3, FRB.energy, q)
        assert np.max(np.abs(fd - FRB.energy_differential(q))) < 1e-6


def test_trivialized_differential_random_so3(rng):
    energy, differential, _, _ = so3_trace_system()
    for _ in range(50):
        R = random_rotation(rng)
        fd = trivialized_differential(SO3, energy, R)
        assert np.max(np.abs(fd - differential(R))) < 1e-6


def test_quaternion_differential_matches_projected_gradient(rng):
    # R_q* dH equals the euclidean-projected gradient (I4 - q q^T) grad H
    # pulled back to pure-quaternion coordinates, i.e. paired against the
    # tangent basis w . q.
    from ligi.actions import quat_mul_tangent
    for _ in range(20):
        q = random_unit_quaternion(rng)
        # numerical R^4 gradient of H
        grad4 = np.zeros(4)
        step = 1e-6
        for i in range(4):
            dq = np.zeros(4)
            dq[i] = step
            grad4[i] = (FRB.energy((q + dq) / np.linalg.norm(q + dq))
                        - FRB.energy((q - dq) / np.linalg.norm(q - dq))) / (2 * step)
        proj = (np.eye(4) - np.outer(q, q)) @ grad4
        pulled = np.array([float(proj @ quat_mul_tangent(e, q)) for e in np.eye(3)])
        assert np.max(np.abs(pulled - FRB.energy_differential(q))) < 1e-5


# ---------------------------------------------------------------------------
# AVF discrete differential
# ---------------------------------------------------------------------------

def test_tdd_avf_coincident_points_is_differential(rng):
    q = random_unit_quaternion(rng)
    out = tdd_avf(FRB, q, q, quad_nodes=3)
    assert np.allclose(out, FRB.energy_differential(q), atol=1e-10)


def test_tdd_avf_exact_for_quadratic_in_exp_coordinates(rng):
    # H(exp(w) . x) quadratic in w: 2-node Gauss quadrature integrates the
    # degree-1 integrand derivative exactly.
    x = random_unit_quaternion(rng)
    A = np.diag([0.7, -0.3, 0.2])
    b = np.array([0.1, 0.4, -0.2])

    def energy(y):
        w = S3.log(quat_mul(y, S3.inv(x)))
        return float(w @ (A @ w) + b @ w)

    system = InvariantSystem(group=S3, energy=energy,
                             field=lambda y: np.zeros(3))
    x1 = quat_mul(quat_exp(np.array([0.3, -0.1, 0.2])), x)
    d = tdd_avf(system, x, x1, quad_nodes=2)
    eta = S3.log(quat_mul(x1, S3.inv(x)))
    resid = abs(energy(x1) - energy(x) - float(d @ eta))
    assert resid < 1e-12


def test_tdd_avf_identity_residual_decays_with_nodes(rng):
    resids = []
    x = random_unit_quaternion(rng)
    x1 = quat_mul(quat_exp(np.array([0.6, -0.5, 0.8])), x)
    eta = S3.log(quat_mul(x1, S3.inv(x)))
    for nodes in (1, 2, 3):
        d = tdd_avf(FRB, x, x1, quad_nodes=nodes)
        resids.append(abs(FRB.energy(x1) - FRB.energy(x) - float(d @ eta)))
    assert resids[1] < 0.2 * resids[0]
    assert resids[2] < 0.2 * resids[1]


def test_tdd_avf_richardson_in_eta(rng):
    # For fixed node count the identity residual scales as eta^(2n+1): the
    # quadrature error of an n-point Gauss rule paired once more with eta.
    x = random_unit_quaternion(rng)
    eta0 = np.array([0.9, -0.7, 1.1]) / 4.0  # start inside the asymptotic range
    for nodes, order in ((1, 3), (2, 5)):
        errs, hs = [], []
        for j in range(5):
            eta = eta0 / 2.0 ** j
            x1 = quat_mul(quat_exp(eta), x)
            eta_true = S3.log(quat_mul(x1, S3.inv(x)))
            d = tdd_avf(FRB, x, x1, quad_nodes=nodes)
            r = abs(FRB.energy(x1) - FRB.energy(x) - float(d @ eta_true))
            if r > 1e-13:
                errs.append(r)
                hs.append(np.linalg.norm(eta_true))
        slope = fit_slope(hs, errs)
        assert slope >= order - 0.5


def test_gauss_nodes_integrate_polynomials():
    nodes, weights = gauss_legendre_01(3)
    for p in range(6):  # exact through degree 2n-1 = 5
        quad = float(weights @ nodes ** p)
        assert abs(quad - 1.0 / (p + 1)) < 1e-14


# ---------------------------------------------------------------------------
# Gonzalez discrete differential
# ---------------------------------------------------------------------------

def test_tdd_gonzalez_defining_identity(rng):
    energy, differential, _, _ = so3_trace_system()
    so3_system = InvariantSystem(group=SO3, energy=energy,
                                 field=lambda R: np.zeros(3))
    for group, rand, system in ((S3, random_unit_quaternion, FRB),
                                (SO3, random_rotation, so3_system)):
        for _ in range(200):
            x = rand(rng)
            x1 = rand(rng)
            if group is SO3:
                # keep the log well-conditioned
                rel = x1 @ x.T
                if np.trace(rel) < -0.5:
                    continue
                eta = SO3.log(rel)
            else:
                eta = S3.log(quat_mul(x1, S3.inv(x)))
            d = tdd_gonzalez(system, x, x1)
            resid = abs(system.energy(x1) - system.energy(x) - float(d @ eta))
            assert resid < 1e-13


def test_tdd_gonzalez_symmetric(rng):
    for _ in range(100):
        x = random_unit_quaternion(rng)
        x1 = quat_mul(quat_exp(rng.normal(size=3) * 0.4), x)
        assert np.max(np.abs(tdd_gonzalez(FRB, x, x1)
                             - tdd_gonzalez(FRB, x1, x))) < 1e-13


def test_tdd_gonzalez_coincident_raises():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(CoincidentPoints):
        tdd_gonzalez(FRB, q, q)


def test_tdd_gonzalez_limit_is_differential(rng):
    x = random_unit_quaternion(rng)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    target = FRB.energy_differential(x)
    errs = []
    for k in (2, 3, 4, 5):
        x1 = quat_mul(quat_exp(10.0 ** -k * direction), x)
        errs.append(np.max(np.abs(tdd_gonzalez(FRB, x, x1) - target)))
    assert errs[-1] < 1e-4
    assert errs[-1] <= errs[0]


# ---------------------------------------------------------------------------
# Two-form from field and gradient
# ---------------------------------------------------------------------------

def test_two_form_recovers_field(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        W = two_form_matrix(FRB, q)
        assert np.max(np.abs(W + W.T)) == 0.0
        recovered = W @ FRB.energy_differential(q)
        assert np.max(np.abs(recovered - FRB.field(q))) < 1e-12


def test_two_form_quaternion_embedding_first_row_zero(rng):
    # In the 4x4 pure-quaternion embedding the first row and column vanish.
    q = random_unit_quaternion(rng)
    xi4 = np.concatenate([[0.0], FRB.field(q)])
    gamma4 = np.concatenate([[0.0], FRB.energy_differential(q)])
    W4 = (np.outer(xi4, gamma4) - np.outer(gamma4, xi4)) / float(gamma4 @ gamma4)
    assert np.allclose(W4[0], 0.0) and np.allclose(W4[:, 0], 0.0)
    assert np.allclose(W4[1:, 1:], two_form_matrix(FRB, q), atol=1e-15)


def test_two_form_critical_point():
    # Isotropic body: H is constant, the gradient vanishes everywhere.
    system = free_rigid_body_quat(np.array([2.0, 2.0, 2.0]), np.array([1.0, 0, 0]))
    with pytest.raises(CriticalPoint):
        two_form_matrix(system, np.array([1.0, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# The energy-preserving step
# ---------------------------------------------------------------------------

def test_dg_step_stationary_when_field_vanishes(rng):
    system = InvariantSystem(group=S3, energy=FRB.energy, field=lambda q: np.zeros(3),
                             energy_differential=FRB.energy_differential)
    q = random_unit_quaternion(rng)
    out = dg_step(system, q, 0.1)
    assert np.max(np.abs(out - q)) < 1e-12


def test_dg_step_preserves_energy_and_constraint():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    H0 = FRB.energy(q)
    for _ in range(300):
        q = dg_step(FRB, q, 1.0 / 64.0)
        assert abs(FRB.energy(q) - H0) / abs(H0) < 1e-11
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12


@pytest.mark.parametrize("h", [1.0 / 64.0, 1.0 / 16.0])
def test_dg_step_preserves_energy_on_so3(rng, h):
    # A second group: H(R) = c . (R u) with the field spinning about the
    # gradient axis (always tangent to the level sets).
    energy, differential, u, c = so3_trace_system()
    system = InvariantSystem(
        group=SO3, energy=energy,
        field=lambda R: np.cross(differential(R), np.array([0.2, -1.0, 0.4])),
        energy_differential=differential)
    R = random_rotation(rng)
    H0 = energy(R)
    for _ in range(100):
        R = dg_step(system, R, h)
        assert abs(energy(R) - H0) < 1e-11 * max(1.0, abs(H0))
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12


def test_dg_step_avf_conserves_energy_to_quadrature_accuracy():
    # At tdd_avf's 4 Gauss nodes the energy error stays at roundoff level
    # (4.5e-13 measured) over 100 steps of h = 0.25.
    q = np.array([1.0, 0.0, 0.0, 0.0])
    H0 = FRB.energy(q)
    for _ in range(100):
        q = dg_step(FRB, q, 0.25, tdd="avf")
        assert abs(FRB.energy(q) - H0) < 1e-11


@pytest.mark.parametrize("tdd", ["gonzalez", "avf"])
def test_dg_step_on_a_two_dimensional_algebra_conserves_energy(rng, tdd):
    # (R^2, +) with H(x) = |x|^2 and the rotation field f(x) = J x: the step
    # runs on any algebra dimension, not only on 3-vectors.  W = J / 2 and
    # both differentials are grad H at the midpoint, so the step is the
    # implicit midpoint rule: a rotation by 2 atan(h / 2).
    system = InvariantSystem(group=TranslationOps(2), energy=lambda x: float(x @ x),
                             field=lambda x: np.array([-x[1], x[0]]),
                             energy_differential=lambda x: 2.0 * np.asarray(x, dtype=float))
    x0 = x = rng.normal(size=2)
    H0 = system.energy(x)
    for _ in range(200):
        x = dg_step(system, x, 0.1, tdd=tdd)
        assert x.shape == (2,)
        assert abs(system.energy(x) - H0) < 1e-12 * max(1.0, H0)
    angle = 200 * 2.0 * math.atan(0.05)
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    assert np.max(np.abs(x - rotation @ x0)) < 1e-10


class _CountingSO3(So3Ops):
    """SO(3) that counts its logarithms."""

    logs = 0

    def log(self, g):
        self.logs += 1
        return super().log(g)


def test_avf_iterate_takes_one_logarithm(monkeypatch):
    # eta = log(x1 x^{-1}) serves both the midpoint and the quadrature nodes.
    iterates, quat_logs = [], []
    two_form = discrete_gradient.two_form_matrix

    def counted_two_form(*args, **kwargs):
        iterates.append(1)
        return two_form(*args, **kwargs)

    def counted_quat_log(q):
        quat_logs.append(1)
        return _quat_log(q)

    monkeypatch.setattr(discrete_gradient, "two_form_matrix", counted_two_form)
    monkeypatch.setattr(discrete_gradient, "_quat_log", counted_quat_log)
    monkeypatch.setattr(liealg, "_quat_log", counted_quat_log)
    dg_step(FRB, np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64, tdd="avf")
    assert len(iterates) > 1 and len(quat_logs) == len(iterates)

    energy, differential, u, c = so3_trace_system()
    group = _CountingSO3()
    system = InvariantSystem(
        group=group, energy=energy,
        field=lambda R: np.cross(differential(R), np.array([0.2, -1.0, 0.4])),
        energy_differential=differential)
    iterates.clear()
    dg_step(system, np.eye(3), 1 / 64, tdd="avf")
    assert len(iterates) > 1 and group.logs == len(iterates)


def test_dg_step_symmetric(rng):
    q = random_unit_quaternion(rng)
    h = 1.0 / 32.0
    forward = dg_step(FRB, q, h)
    back = dg_step(FRB, forward, -h)
    assert np.max(np.abs(back - q)) < 1e-10


class _LastCoordinateLost(TranslationOps):
    """R^n whose exponential turns its last coordinate into NaN."""

    def exp(self, xi):
        out = np.array(xi, dtype=float)
        out[-1] = np.nan
        return out


def test_dg_step_nan_iterate_is_divergence():
    # H(x) = x3 with a constant field along e1: the averaged differential and
    # the two-form stay finite, so successive iterates differ by 0 in the
    # first coordinates and by NaN in the last, which must not read as
    # converged.
    gamma = np.array([0.0, 0.0, 1.0])
    system = InvariantSystem(group=_LastCoordinateLost(3),
                             energy=lambda x: float(x[2]),
                             field=lambda x: np.array([1.0, 0.0, 0.0]),
                             energy_differential=lambda x: gamma)
    with pytest.raises(FixedPointDivergence):
        dg_step(system, np.zeros(3), 0.1, tdd="avf", solver=ImplicitSolver(max_iter=5))


@pytest.mark.parametrize("tdd", ["gonzalez", "avf"])
def test_dg_step_overflowing_predictor_is_non_finite_state(tdd):
    # |h f(q0)|^2 overflows, so the quaternion exponential of the Lie-Euler
    # predictor is NaN: an overflow, where the NaN predictor above, at a
    # modest h, is a divergence.
    with pytest.raises(NonFiniteState, match="not finite"):
        dg_step(FRB, np.array([1.0, 0.0, 0.0, 0.0]), 1e308, tdd=tdd)


@pytest.mark.parametrize("h, h_float, rtol", [
    (1, 1.0, 0.0),
    (np.float32(1 / 64), 1 / 64, 1e-6),
    (np.float64(1 / 64), 1 / 64, 0.0),
    (Fraction(1, 64), 1 / 64, 0.0),
], ids=["int", "float32", "float64", "Fraction"])
def test_dg_step_accepts_any_real_step_type(h, h_float, rtol):
    q = np.array([1.0, 0.0, 0.0, 0.0])
    expected = dg_step(FRB, q, h_float)
    got = dg_step(FRB, q, h)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=0.0)


def test_dg_step_second_order():
    # Measured order of the midpoint-form energy-preserving step.
    T = 0.5

    def quat_ode(y):
        from ligi.actions import quat_mul_tangent
        return quat_mul_tangent(FRB.field(y / np.linalg.norm(y)), y)

    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    ref = rk4_solve(quat_ode, q0, T, 4000)
    ref /= np.linalg.norm(ref)
    errs, hs = [], []
    for n in (8, 16, 32, 64):
        q = q0
        for _ in range(n):
            q = dg_step(FRB, q, T / n)
        errs.append(min(np.linalg.norm(q - ref), np.linalg.norm(q + ref)))
        hs.append(T / n)
    slope = fit_slope(hs, errs)
    assert abs(slope - 2.0) <= 0.3


# ---------------------------------------------------------------------------
# Quaternion free rigid body
# ---------------------------------------------------------------------------

def test_isotropic_inertia_constant_energy(rng):
    c = 2.5
    system = free_rigid_body_quat(c * np.ones(3), np.array([0.3, -0.2, 0.5]))
    vals = [system.energy(random_unit_quaternion(rng)) for _ in range(20)]
    expected = 0.5 * float(np.array([0.3, -0.2, 0.5]) @ np.array([0.3, -0.2, 0.5])) / c
    assert np.allclose(vals, expected, atol=1e-14)


def test_field_is_tangent_to_energy_levels(rng):
    # dH(F) = 0: the defining first-integral property.
    for _ in range(100):
        q = random_unit_quaternion(rng)
        assert abs(float(FRB.energy_differential(q) @ FRB.field(q))) < 1e-8 * max(
            1.0, abs(FRB.energy(q)))


def test_momentum_stays_on_sphere(rng):
    q = random_unit_quaternion(rng)
    r0 = np.linalg.norm(body_momentum(q, M0))
    assert abs(r0 - np.linalg.norm(M0)) < 1e-12
    for _ in range(50):
        q = dg_step(FRB, q, 1.0 / 64.0)
        assert abs(np.linalg.norm(body_momentum(q, M0)) - np.linalg.norm(M0)) < 1e-12


# The callbacks of free_rigid_body_quat and body_momentum run on Python floats;
# frb_quat_matvec_forms is their numpy mat-vec form on euler_rodrigues(q).

def _unit_direction(n):
    return st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array).filter(
        lambda u: np.linalg.norm(u) > 1e-3).map(lambda u: u / np.linalg.norm(u))


# Generic unit quaternions, +-identity, and points near the identity and near
# its antipode -identity (rotations by nearly 2 pi).
unit_quaternions = st.one_of(
    _unit_direction(4),
    st.sampled_from([np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 0.0])]),
    st.builds(lambda u, t: quat_exp(t * u), _unit_direction(3), st.floats(0.0, 1e-3)),
    st.builds(lambda u, d: quat_exp((math.pi - d) * u), _unit_direction(3),
              st.floats(1e-12, 1e-3)),
)
momenta = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(np.array).filter(
    lambda m: np.linalg.norm(m) > 1e-3)
inertias = st.lists(st.floats(0.1, 100.0), min_size=3, max_size=3).map(np.array)


@settings(max_examples=200, deadline=None)
@given(q=unit_quaternions, m0=momenta, inertia=st.one_of(st.just(INERTIA), inertias))
def test_float_callbacks_match_matvec_forms(q, m0, inertia):
    # 1e-14 relative to each result's scale: |E^T m0| = |m0| and |E u| = |u|
    # for the rotation E, and the differential 2 w x m0 is bounded by
    # 2 |w| |m0| (taken as its scale because the cross product can cancel).
    system, ref = free_rigid_body_quat(inertia, m0), frb_quat_matvec_forms(inertia, m0)
    energy = system.energy(q)
    assert isinstance(energy, float)
    assert abs(energy - ref.energy(q)) <= 1e-14 * ref.energy(q)
    w = ref.spatial_velocity(q)
    assert np.max(np.abs(system.field(q) - ref.field(q))) <= 1e-14 * np.linalg.norm(w)
    scale = 2.0 * np.linalg.norm(w) * np.linalg.norm(m0)
    assert np.max(np.abs(system.energy_differential(q) - ref.energy_differential(q))) \
        <= 1e-14 * scale
    assert np.max(np.abs(body_momentum(q, m0) - ref.body_momentum(q))) \
        <= 1e-14 * np.linalg.norm(m0)


@settings(max_examples=50, deadline=None)
@given(q=unit_quaternions, m0=momenta)
def test_float_callbacks_accept_lists(q, m0):
    listed = free_rigid_body_quat(INERTIA.tolist(), m0.tolist())
    system = free_rigid_body_quat(INERTIA, m0)
    assert listed.energy(q.tolist()) == system.energy(q)
    assert np.array_equal(listed.field(q.tolist()), system.field(q))
    assert np.array_equal(listed.energy_differential(q.tolist()), system.energy_differential(q))
    assert np.array_equal(body_momentum(q.tolist(), m0.tolist()), body_momentum(q, m0))


def _callbacks(q):
    return (FRB.energy(q), FRB.field(q), FRB.energy_differential(q), body_momentum(q, M0))


@pytest.mark.parametrize("index", range(4))
def test_float_callbacks_propagate_nan(index):
    q = np.array([0.9, 0.1, -0.3, 0.3])
    q[index] = math.nan
    for out in _callbacks(q):
        assert np.all(np.isnan(out))


def test_float_callbacks_overflow_to_non_finite_without_raising():
    # x * x overflows to inf where x ** 2 would raise OverflowError.
    q = 1e200 * np.array([0.9, 0.1, -0.3, 0.3])
    for out in _callbacks(q):
        assert not np.all(np.isfinite(out))


def test_inertia_validation():
    with pytest.raises(ValueError):
        free_rigid_body_quat(np.array([1.0, 0.0, 2.0]), np.ones(3))


@pytest.mark.parametrize("inertia,m0,match", [
    ([np.nan, 1.0, 1.0], np.ones(3), "inertia"),
    (np.ones((3, 1)), np.ones(3), "inertia"),
    ([1.0, 2.0], np.ones(3), "inertia"),
    (np.ones(3), [np.nan, 0.0, 0.0], "m0"),
    (np.ones(3), [np.inf, 0.0, 0.0], "m0"),
    (np.ones(3), [1.0, 2.0], "m0"),
    ([np.inf, 5.0, 60.0], np.ones(3), "inertia"),
], ids=["nan-inertia", "3x1-inertia", "2-inertia", "nan-m0", "inf-m0", "2-m0", "inf-inertia"])
def test_free_rigid_body_quat_rejects_nan_and_mis_shaped_inputs(inertia, m0, match):
    # A NaN inertia once passed "reject if I <= 0" and gave a NaN energy, and
    # an infinite one dropped its axis's kinetic energy; a 2-entry one failed
    # inside the unpacking, and a (3, 1) one unpacked into lists.
    with pytest.raises(ValueError, match=match):
        free_rigid_body_quat(inertia, m0)


# ---------------------------------------------------------------------------
# The step on S^3 on floats against the composition of the group's operations
# ---------------------------------------------------------------------------

class _ComposedS3(QuatOps):
    """S^3 as a QuatOps subclass: dg_step composes its operations on arrays."""


def _outcome(f, *args):
    """("value", array) or ("raised", (exception type, message))."""
    try:
        return "value", np.asarray(f(*args))
    except Exception as exc:  # the property compares which error comes out
        return "raised", (type(exc), str(exc))


def same_outcome(got, expected):
    """Equal arrays, NaN counted as equal, or the same exception type and message."""
    if got[0] != expected[0]:
        return False
    if got[0] == "raised":
        return got[1] == expected[1]
    return got[1].shape == expected[1].shape and np.array_equal(got[1], expected[1],
                                                                equal_nan=True)


def _pair(inertia, m0):
    """The quaternion rigid body on S3, and the same model on _ComposedS3."""
    system = free_rigid_body_quat(inertia, m0)
    return system, dataclasses.replace(system, group=_ComposedS3())


ISOTROPIC = (np.full(3, 2.0), np.array([1.0, 0.0, 0.0]))  # dH = 0 everywhere
ANTIPODE_H = math.pi / float(np.linalg.norm(FRB.field(np.array([1.0, 0.0, 0.0, 0.0]))))
steps = st.one_of(
    st.sampled_from([1 / 64, -1 / 64, 0.0, 1e-12, -1e-12, 1e308, ANTIPODE_H]),
    st.sampled_from([1, Fraction(-1, 64), np.float32(1 / 64)]),  # other real types
    st.floats(-2.0, 2.0),
    st.floats(-1e-11, 1e-11),  # |eta| < 1e-10: the coincident branch
)
quaternions = st.one_of(
    unit_quaternions,
    st.builds(lambda q, s: s * q, unit_quaternions, st.floats(0.1, 10.0)),
)


@settings(max_examples=300, deadline=None)
@given(q=quaternions, h=steps,
       model=st.one_of(st.just((INERTIA, M0)), st.just(ISOTROPIC), st.tuples(inertias, momenta)),
       max_iter=st.sampled_from([200, 2]), tdd=st.sampled_from(["gonzalez", "avf"]))
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), h=ANTIPODE_H, model=(INERTIA, M0), max_iter=200,
         tdd="gonzalez")
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), h=1 / 64, model=ISOTROPIC, max_iter=200,
         tdd="gonzalez")
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), h=1e308, model=(INERTIA, M0), max_iter=200,
         tdd="gonzalez")
@example(q=np.array([0.5, 0.5, -0.5, 0.5]), h=1e-12, model=(INERTIA, M0), max_iter=200,
         tdd="gonzalez")
@example(q=np.array([0.5, 0.5, -0.5, 0.5]), h=1e-12, model=(INERTIA, M0), max_iter=200,
         tdd="avf")
def test_float_s3_step_equals_generic_composition(q, h, model, max_iter, tdd):
    # Bit for bit, or the same exception with the same message (its residual or
    # q0 read in full): LogNearAntipode (|h f| = pi), CriticalPoint (isotropic
    # body), NonFiniteState (h = 1e308) and FixedPointDivergence (two iterations),
    # with either discrete differential.
    system, composed = _pair(*model)
    with np.errstate(all="ignore"):
        got = _outcome(dg_step, system, q, h, tdd, ImplicitSolver(max_iter=max_iter))
        expected = _outcome(dg_step, composed, q, h, tdd, ImplicitSolver(max_iter=max_iter))
    assert same_outcome(got, expected), (got, expected)


@pytest.mark.parametrize("q, h, model, error", [
    (np.array([1.0, 0.0, 0.0, 0.0]), ANTIPODE_H, (INERTIA, M0), LogNearAntipode),
    (np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64, ISOTROPIC, CriticalPoint),
    (np.array([1.0, 0.0, 0.0, 0.0]), 1e308, (INERTIA, M0), NonFiniteState),
], ids=["antipode", "critical-point", "overflowing-predictor"])
def test_float_s3_step_raises_as_generic(q, h, model, error):
    for system in _pair(*model):
        with pytest.raises(error):
            dg_step(system, q, h)


def test_float_s3_step_reaches_the_coincident_branch(monkeypatch):
    # At h = 1e-12 every iterate has |eta| < 1e-10, so the differential is
    # taken at x itself: the only point it is evaluated at.
    points = []
    differential = discrete_gradient._differential

    def recorded(system, x):
        points.append(tuple(np.asarray(x, dtype=float).tolist()))
        return differential(system, x)

    monkeypatch.setattr(discrete_gradient, "_differential", recorded)
    q = np.array([0.5, 0.5, -0.5, 0.5])
    dg_step(FRB, q, 1e-12)
    assert points and set(points) == {tuple(q.tolist())}


four = st.lists(st.one_of(st.floats(-10.0, 10.0),
                          st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])),
                min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(p=four, q=four)
def test_public_quaternion_functions_equal_their_tuple_bodies(p, q):
    with np.errstate(all="ignore"):
        assert same_outcome(_outcome(quat_mul, np.array(p), np.array(q)),
                            _outcome(lambda a, b: np.array(_quat_mul(a, b)), tuple(p), tuple(q)))
        assert same_outcome(_outcome(quat_exp, np.array(p[:3])),
                            _outcome(lambda w: np.array(_quat_exp(w)), tuple(p[:3])))
        assert same_outcome(_outcome(quat_log, np.array(q)),
                            _outcome(lambda a: np.array(_quat_log(a)), tuple(q)))


def test_quat_exp_of_infinity_is_nan_through_both():
    w = (math.inf, 0.0, 0.0)
    assert np.isnan(quat_exp(np.array(w))).all()
    assert all(math.isnan(v) for v in _quat_exp(w))


def test_velocity_memo_is_keyed_on_tuple_identity(rng):
    # The model keeps the velocity of the last tuple point only; an array,
    # which can change in place, is recomputed every call.
    system = free_rigid_body_quat(INERTIA, M0)
    for _ in range(20):
        p, q = random_unit_quaternion(rng), random_unit_quaternion(rng)
        t = tuple(p.tolist())
        assert np.array_equal(system.field(t), FRB.field(p))
        assert np.array_equal(system.energy_differential(t), FRB.energy_differential(p))
        assert np.array_equal(system.field(tuple(q.tolist())), FRB.field(q))
        a = p.copy()
        system.field(a)
        a[:] = q
        assert np.array_equal(system.field(a), FRB.field(q))
        assert np.array_equal(system.energy_differential(a), FRB.energy_differential(q))
