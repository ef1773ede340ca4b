import dataclasses
import inspect
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ligi import liealg, symplectic
from ligi.discrete_gradient import dg_step, free_rigid_body_quat
from ligi.errors import AlgebraMismatch, FixedPointDivergence, NonFiniteState
from ligi.liealg import S3, SO3, GroupOps, So3Ops, TranslationOps, hat, quat_exp
from ligi.symplectic import (
    E3,
    HamiltonianSystem,
    HeavyTopParams,
    ImplicitSolver,
    cotangent_step,
    heavy_top,
    rkmk_theta_step,
    symplectic_step,
    theta_step,
)
from ligi.steppers import KUTTA4, ButcherTableau, integrate, rkmk_step
from oracles import (
    FixedPointSolver,
    central_difference,
    fit_slope,
    random_rotation,
    rk4_solve,
    rkmk_theta_step_reference,
    state_distance,
    theta_step_reference,
    theta_step_stage_form,
)

BENCH = HeavyTopParams.benchmark()
SYSTEM = heavy_top(BENCH)

# A small-scale top for order studies: h * angular velocity well below 1.
SMALL = HeavyTopParams(inertia=np.array([1.0, 2.0, 3.0]),
                       mu0=np.array([0.6, -0.4, 0.8]),
                       u0=np.array([0.0, 0.0, 1.0]))
SMALL_SYSTEM = heavy_top(SMALL)


def zero_system():
    return HamiltonianSystem(group=SO3,
                             hamiltonian=lambda g, mu: 0.0,
                             force_map=lambda g, mu: (np.zeros(3), np.zeros(3)))


def random_state(rng, momentum_scale):
    omega = rng.uniform(-1.0, 1.0, size=3)
    return random_rotation(rng), momentum_scale * omega


def flat_reference(system, state, T, n=4000):
    """Brute-force RK4 on the flattened (g, mu) ODE."""

    def ode(y):
        g = y[:9].reshape(3, 3)
        mu = y[9:]
        f1, f2 = system.force_map(g, mu)
        dg = hat(f1) @ g
        dmu = f2 - np.cross(mu, f1)
        return np.concatenate([dg.ravel(), dmu])

    y = rk4_solve(ode, np.concatenate([state[0].ravel(), state[1]]), T, n)
    return y[:9].reshape(3, 3), y[9:]


# ---------------------------------------------------------------------------
# Coefficients and trivial cases
# ---------------------------------------------------------------------------

def test_stage_coefficients_validation():
    with pytest.raises(ValueError):
        ButcherTableau(a=[[0.0]], b=[0.5])
    assert ButcherTableau.theta(0.3).a[0, 0] == 0.3
    # A zero weight is a legal tableau, but not for the symplectic family: its
    # step refuses it before the first force evaluation.
    zero_weight = ButcherTableau(a=[[0.0, 0.0], [0.0, 0.0]], b=[1.0, 0.0])

    def force_map(g, mu):
        raise AssertionError("force map evaluated")

    system = HamiltonianSystem(group=SO3, hamiltonian=lambda g, mu: 0.0, force_map=force_map)
    with pytest.raises(ValueError, match="stage weight nonzero"):
        symplectic_step(zero_weight, system, (np.eye(3), np.ones(3)), 0.1)


@pytest.mark.parametrize("a, b, shape", [
    ([[0.5]], [0.5, 0.5], r"\(1, 1\)"),
    ([[0.5, 0.1]], [1.0], r"\(1, 2\)"),
    ([[0.0, 0.0], [0.5, 0.0], [0.0, 1.0]], [0.5, 0.5], r"\(3, 2\)"),
], ids=["fewer-rows-than-weights", "not-square", "more-rows-than-weights"])
def test_stage_matrix_must_be_square_over_the_weights(a, b, shape):
    # As RKMK tableaus, the first two once reached rkmk_step and failed there
    # with IndexError, and the third stepped, ignoring row 3.
    with pytest.raises(ValueError, match=f"stage matrix a must have shape .* got {shape}"):
        ButcherTableau(a=a, b=b)


def test_zero_hamiltonian_identity_steps():
    system = zero_system()
    state = (np.eye(3), np.array([1.0, 2.0, 3.0]))
    for step in (
        lambda: theta_step(0.5, system, state, 0.1),
        lambda: symplectic_step(ButcherTableau.theta(0.0), system, state, 0.1),
        lambda: rkmk_theta_step(0.5, system, state, 0.1),
        lambda: rkmk_theta_step(0.0, system, state, 0.1),
    ):
        g1, mu1 = step()
        assert np.allclose(g1, state[0], atol=1e-14)
        assert np.allclose(mu1, state[1], atol=1e-14)


# ---------------------------------------------------------------------------
# Heavy-top coefficient map
# ---------------------------------------------------------------------------

def test_heavy_top_upright_equilibrium():
    params = HeavyTopParams(inertia=np.array([1.0, 2.0, 3.0]), mu0=np.zeros(3))
    system = heavy_top(params)
    f1, f2 = system.force_map(np.eye(3), np.zeros(3))
    assert np.allclose(f1, 0.0) and np.allclose(f2, 0.0)


def test_heavy_top_benchmark_values():
    assert np.array_equal(BENCH.inertia, [1e3, 5e3, 6e3])
    assert np.array_equal(BENCH.mu0, [1e4, 5e4, 6e4])
    assert np.array_equal(BENCH.u0, E3)
    assert np.array_equal(BENCH.g0, np.eye(3))


def test_heavy_top_params_validation():
    with pytest.raises(ValueError):
        HeavyTopParams(inertia=np.array([1.0, -1.0, 1.0]), mu0=np.zeros(3))
    with pytest.raises(ValueError):
        HeavyTopParams(inertia=np.ones(3), mu0=np.zeros(3),
                       u0=np.array([0.0, 0.0, 2.0]))


@pytest.mark.parametrize("changes,match", [
    ({"inertia": [np.nan, 1.0, 1.0]}, "inertia entries must be positive"),
    ({"u0": [np.nan, 0.0, 0.0]}, "u0 must be a unit vector"),
    ({"g0": np.full((3, 3), np.nan)}, "g0 must be finite"),
    ({"g0": np.where(np.eye(3) > 0, np.inf, 0.0)}, "g0 must be finite"),
    ({"inertia": [1.0, 2.0]}, r"inertia must have shape \(3,\), got \(2,\)"),
    ({"mu0": np.zeros(4)}, r"mu0 must have shape \(3,\)"),
    ({"u0": [[0.0, 0.0, 1.0]]}, r"u0 must have shape \(3,\)"),
    ({"g0": np.eye(4)}, r"g0 must have shape \(3, 3\)"),
    ({"mu0": [np.nan, 0.0, 0.0]}, "mu0 must be finite"),
    ({"mu0": [0.0, np.inf, 0.0]}, "mu0 must be finite"),
    ({"mu0": [0.0, 0.0, -np.inf]}, "mu0 must be finite"),
    ({"gravity": np.nan}, "gravity must be finite, got nan"),
    ({"gravity": np.inf}, "gravity must be finite, got inf"),
    ({"gravity": -np.inf}, "gravity must be finite, got -inf"),
    ({"inertia": [np.inf, 1.0, 1.0]}, "inertia entries must be positive and finite"),
    ({"g0": 2.0 * np.eye(3)}, "g0 must be a rotation"),
    ({"g0": np.diag([1.0, 1.0, -1.0])}, "g0 must be a rotation"),
], ids=["nan-inertia", "nan-u0", "nan-g0", "inf-g0", "2-inertia", "4-mu0", "1x3-u0", "4x4-g0",
        "nan-mu0", "inf-mu0", "minus-inf-mu0", "nan-gravity", "inf-gravity",
        "minus-inf-gravity", "inf-inertia", "scaled-g0", "reflection-g0"])
def test_heavy_top_params_rejects_nan_and_mis_shaped_inputs(changes, match):
    # NaN passes a test written as "reject if x <= 0"; a 2-entry inertia once
    # failed only inside the force map, and a NaN mu0 or gravity made every
    # energy NaN.  An infinite inertia dropped its axis's kinetic energy (H
    # read 2.0 at inertia (inf, 1, 1), mu0 = 1), and 2 I or a reflection
    # started the run off SO(3).
    fields = {"inertia": np.ones(3), "mu0": np.zeros(3), **changes}
    with pytest.raises(ValueError, match=match):
        HeavyTopParams(**fields)


def test_heavy_top_params_accepts_rotations(rng):
    for _ in range(50):
        g0 = random_rotation(rng)
        assert np.array_equal(HeavyTopParams(inertia=np.ones(3), mu0=np.zeros(3), g0=g0).g0, g0)


def test_force_map_matches_hamiltonian_derivative(rng):
    # <f2, xi> = -d/dt H(exp(t xi) . g, mu) at t = 0, central differences.
    for scale in (1.0, BENCH.mu0[2]):
        for _ in range(100):
            g, mu = random_state(rng, scale)
            _, f2 = SYSTEM.force_map(g, mu)
            H0 = SYSTEM.hamiltonian(g, mu)
            for e in np.eye(3):
                fd = central_difference(
                    lambda t: SYSTEM.hamiltonian(SO3.exp(t * e) @ g, mu),
                    0.0, 1.0, scale=H0)
                assert abs(float(f2 @ e) + fd) < 1e-6


finite = st.floats(-1e3, 1e3)


@given(g=st.lists(finite, min_size=9, max_size=9), mu=st.lists(finite, min_size=3, max_size=3),
       inertia=st.lists(st.floats(0.1, 1e4), min_size=3, max_size=3),
       axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       gravity=st.floats(-10.0, 10.0).filter(lambda x: x != 1.0),
       nan_at=st.one_of(st.none(), st.integers(0, 11)))
@settings(max_examples=200, deadline=None)
def test_force_map_matches_numpy_form(g, mu, inertia, axis, gravity, nan_at):
    # The heavy top's float force map against (I^-1 mu, e3 x (g gravity u0))
    # in numpy, with a non-default axis u0 and gravity; a NaN propagates.
    params = HeavyTopParams(inertia=np.array(inertia), mu0=np.zeros(3),
                            u0=np.array(axis) / np.linalg.norm(axis), gravity=gravity)
    entries = np.array(g + mu)
    if nan_at is not None:
        entries[nan_at] = np.nan
    g, mu = entries[:9].reshape(3, 3), entries[9:]
    f1, f2 = heavy_top(params).force_map(g, mu)
    with np.errstate(invalid="ignore"):
        ref2 = np.cross(E3, g @ (gravity * params.u0))
    assert np.array_equal(f1, (1.0 / params.inertia) * mu, equal_nan=True)
    assert np.allclose(f2, ref2, rtol=1e-15, atol=1e-15 * abs(gravity) * np.nansum(np.abs(g)),
                       equal_nan=True)


def test_force_map_mu_derivative(rng):
    g, mu = random_state(rng, 1.0)
    f1, _ = SYSTEM.force_map(g, mu)
    for e in np.eye(3):
        fd = central_difference(lambda t: SYSTEM.hamiltonian(g, mu + t * e), 0.0, 1.0)
        assert abs(float(f1 @ e) - fd) < 1e-8


# ---------------------------------------------------------------------------
# Family / theta equivalence and solver agreement
# ---------------------------------------------------------------------------

def duplicated_theta(theta):
    # With a_ij = theta * b_j the two stages coincide and the family
    # collapses to the theta member; exercises the s > 1 coupling terms.
    return ButcherTableau(a=[[theta / 2, theta / 2], [theta / 2, theta / 2]], b=[0.5, 0.5])


def test_family_theta_equivalence_on_random_states(rng):
    for _ in range(20):
        state = random_state(rng, BENCH.mu0[2])
        theta = rng.uniform(0.0, 1.0)
        s1 = theta_step_reference(theta, SYSTEM, state, 0.05)
        s2 = symplectic_step(ButcherTableau.theta(theta), SYSTEM, state, 0.05)
        assert state_distance(s1, s2) < 1e-12


def test_two_stage_duplicate_reduces_to_theta(rng):
    theta = 0.3
    for _ in range(10):
        state = random_state(rng, BENCH.mu0[2])
        s2 = symplectic_step(duplicated_theta(theta), SYSTEM, state, 0.05)
        s1 = theta_step_reference(theta, SYSTEM, state, 0.05)
        assert state_distance(s1, s2) < 1e-11


@pytest.mark.parametrize("tableau,tol", [(ButcherTableau.theta(0.5), 1e-12),
                                         (duplicated_theta(0.5), 1e-11)],
                         ids=["theta", "two-stage"])
def test_step_past_two_pi_matches_reference(tableau, tol):
    # |h I^-1 mu| = 6.5 > 2 pi: an update through dexpinv_Y has a pole here.
    state = (np.eye(3), BENCH.inertia * np.array([130.0, 0.0, 0.0]))
    step = symplectic_step(tableau, SYSTEM, state, 0.05)
    assert state_distance(step, theta_step_reference(0.5, SYSTEM, state, 0.05)) < tol
    energy = SYSTEM.energy(state)
    assert abs(SYSTEM.energy(step) - energy) < 1e-6 * abs(energy)


unit_box = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)


@given(rotation=unit_box, omega=unit_box, theta=st.sampled_from([0.0, 0.5, 0.3]))
@settings(max_examples=40, deadline=None)
def test_rkmk_theta_step_matches_reference(rotation, omega, theta):
    # The step through rkmk_step forms the same floating-point operations as
    # the written-out one at theta in {0, 1/2}; other theta are held to 1e-13.
    state = SO3.exp(2.5 * rotation), BENCH.mu0[2] * omega
    got = rkmk_theta_step(theta, SYSTEM, state, 0.05)
    expected = rkmk_theta_step_reference(theta, SYSTEM, state, 0.05)
    for a, b in zip(got, expected):
        if theta in (0.0, 0.5):
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("h, h_float, rtol", [
    (1, 1.0, 0.0),
    (np.float32(0.05), 0.05, 1e-6),
    (np.float64(0.05), 0.05, 0.0),
    (Fraction(1, 20), 0.05, 0.0),
], ids=["int", "float32", "float64", "Fraction"])
@pytest.mark.parametrize("step, theta", [
    (rkmk_theta_step, 0.0),
    (rkmk_theta_step, 0.5),
    (theta_step, 0.0),
    (theta_step, 0.5),
], ids=["0.0", "0.5", "theta_step-0.0", "theta_step-0.5"])
def test_rkmk_theta_step_accepts_any_real_step_type(step, theta, h, h_float, rtol):
    expected = step(theta, SMALL_SYSTEM, SMALL.state0, h_float)
    got = step(theta, SMALL_SYSTEM, SMALL.state0, h)
    for a, b in zip(got, expected):
        assert a.dtype == np.float64
        np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0)


# The quaternion free rigid body of the frb-s3 presets: I = (1, 5, 60), I m0 = (1, 1/2, -1).
FRB_S3 = free_rigid_body_quat(np.array([1.0, 5.0, 60.0]),
                              np.array([1.0, 0.1, -1.0 / 60.0]))


def heavy_top_state(rotation, omega):
    return SO3.exp(2.5 * rotation), BENCH.mu0[2] * omega


def quaternion_state(rotation, omega):
    return quat_exp(1.5 * rotation)


def max_abs_distance(p, q):
    return float(np.max(np.abs(p - q)))


# name: (step(y, h), h, state from two points of the unit box, distance)
REVERSAL_CASES = {
    "theta_step-0.5": (partial(theta_step, 0.5, SYSTEM), 0.05, heavy_top_state,
                       state_distance),
    "rkmk_theta_step-0.5": (partial(rkmk_theta_step, 0.5, SYSTEM), 0.05, heavy_top_state,
                            state_distance),
    "dg_step-midpoint": (partial(dg_step, FRB_S3), 1 / 64, quaternion_state, max_abs_distance),
    "theta_step-0.0": (partial(theta_step, 0.0, SYSTEM), 0.05, heavy_top_state,
                       state_distance),
}


def reversal_error(case, rotation, omega):
    """The distance of step(step(y, h), -h) from y."""
    step, h, state, distance = REVERSAL_CASES[case]
    y = state(rotation, omega)
    return distance(step(step(y, h), -h), y)


@pytest.mark.parametrize("case", ["theta_step-0.5", "rkmk_theta_step-0.5", "dg_step-midpoint"])
@given(rotation=unit_box, omega=unit_box)
@settings(max_examples=200, deadline=None)
def test_symmetric_steps_are_time_reversible(case, rotation, omega):
    # Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. V.
    assert reversal_error(case, rotation, omega) < 1e-10


@pytest.mark.parametrize("case", ["theta_step-0.0"])
def test_asymmetric_steps_are_not_time_reversible(case, rng):
    # Controls for the property above: these steps do not come back, so the
    # worst of a few random states lies far above its 1e-10.
    boxes = rng.uniform(-1.0, 1.0, size=(20, 2, 3))
    assert max(reversal_error(case, rotation, omega) for rotation, omega in boxes) > 1e-8


def test_rkmk_theta_builds_a_solver_only_when_implicit(monkeypatch):
    # The explicit tableau [[0]] never calls a solver, so theta = 0 builds none.
    reference = rkmk_theta_step(0.0, SYSTEM, BENCH.state0, 0.05, solver=ImplicitSolver())
    built = []

    class CountingSolver(ImplicitSolver):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(symplectic, "ImplicitSolver", CountingSolver)
    explicit = rkmk_theta_step(0.0, SYSTEM, BENCH.state0, 0.05)
    assert built == []
    assert all(np.array_equal(a, b) for a, b in zip(explicit, reference))
    rkmk_theta_step(0.5, SYSTEM, BENCH.state0, 0.05)
    assert len(built) == 1


def test_theta_coefficients_are_shared_and_read_only(monkeypatch):
    tableau = ButcherTableau.theta(0.5)
    assert ButcherTableau.theta(0.5) is tableau
    # Both theta schemes step with that one cached instance.
    seen = []
    monkeypatch.setattr(symplectic, "symplectic_step", lambda t, *args: seen.append(t))
    monkeypatch.setattr(symplectic, "rkmk_step", lambda *args, tableau, **kw: seen.append(tableau))
    theta_step(0.5, SYSTEM, BENCH.state0, 0.05)
    rkmk_theta_step(0.5, SYSTEM, BENCH.state0, 0.05)
    assert len(seen) == 2 and all(t is tableau for t in seen)
    for shared in (tableau, KUTTA4):
        for array in (shared.a, shared.b):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_newton_and_fixed_point_agree(rng):
    state = random_state(rng, BENCH.mu0[2])
    a = theta_step(0.5, SYSTEM, state, 0.05, solver=ImplicitSolver())
    b = theta_step(0.5, SYSTEM, state, 0.05, solver=FixedPointSolver(max_iter=2000))
    assert state_distance(a, b) < 1e-10


def test_solver_divergence_error():
    # The moves shrink tenfold each time: 1e-3 after four, far above SOLVER_TOL.
    solver = ImplicitSolver(max_iter=4)
    with pytest.raises(FixedPointDivergence):
        solver.fixed_point(lambda z: z - (0.9 * z + 1.0), np.zeros(2), 0.1, "no convergence")


def test_newton_start_that_is_not_finite_is_non_finite_state():
    # An overflow, not a divergence; restarts would go back to this start.
    with pytest.raises(NonFiniteState, match="not finite"):
        ImplicitSolver().solve(lambda z: z, np.array([1.0, np.inf]), h=0.1)


def test_implicit_steps_take_only_a_solver():
    for step in (symplectic_step, theta_step, rkmk_theta_step, rkmk_step, dg_step):
        parameters = inspect.signature(step).parameters
        assert "solver" in parameters, step.__name__
        assert not {"tol", "max_iter", "method"} & set(parameters), step.__name__
    assert list(inspect.signature(ImplicitSolver).parameters) == ["max_iter"]
    assert list(inspect.signature(dg_step).parameters) == ["system", "x", "h", "tdd", "solver"]


def test_non_finite_jacobian_is_divergence():
    # Finite at the start point and NaN off it: every finite-difference
    # column is NaN, which is a divergence, not a malformed input.
    def residual(z):
        return np.full(2, np.nan) if z.any() else z - 1.0

    with pytest.raises(FixedPointDivergence, match="Jacobian is not finite"):
        ImplicitSolver().solve(residual, np.zeros(2), h=0.1)


class _Capture:
    """A solver that keeps the residual and returns the start point."""

    def solve(self, residual, z0, h=None):
        self.residual = residual
        return z0


def test_residual_at_an_infinite_iterate_is_not_finite():
    # Newton restarts from a non-finite residual; a raising closed form
    # (math.sin(inf) in the exponential) would escape as a ValueError.
    capture = _Capture()
    theta_step(0.5, SYSTEM, BENCH.state0, 0.05, solver=capture)
    r = capture.residual(np.full(6, np.inf))
    assert not np.isfinite(r).any()


class _CountingSO3(So3Ops):
    """SO(3) counting its symplectic_stages passes and every exponential it takes.

    The counting_so3 fixture counts the exponentials where every SO(3)
    rotation reads its coefficients, liealg._rotation_coeffs, so the
    exponentials inside the float one-stage kernel count too; zero_exps
    counts those at angle zero.
    """

    def __init__(self):
        self.exps = 0
        self.zero_exps = 0
        self.stages = 0

    def symplectic_stages(self, tableau, z, g0, mu0):
        self.stages += 1
        return super().symplectic_stages(tableau, z, g0, mu0)


@pytest.fixture
def counting_so3(monkeypatch):
    group = _CountingSO3()
    rotation_coeffs = liealg._rotation_coeffs

    def counted(theta2):
        group.exps += 1
        group.zero_exps += theta2 == 0.0
        return rotation_coeffs(theta2)

    monkeypatch.setattr(liealg, "_rotation_coeffs", counted)
    return group


class _OneMove:
    """One fixed-point move z0 - r(z0); evaluates the residual at the result or not."""

    def __init__(self, evaluate_result):
        self.evaluate_result = evaluate_result

    def solve(self, residual, z0, h=None):
        z = z0 - residual(z0)
        if self.evaluate_result:
            residual(z)
        return z


class _CountingResiduals:
    """A solver that counts the residual evaluations of the solver it wraps."""

    def __init__(self, solver):
        self.solver = solver
        self.residuals = 0

    def solve(self, residual, z0, h=None):
        def counted(z):
            self.residuals += 1
            return residual(z)

        return self.solver.solve(counted, z0, h=h)


def test_update_reuses_the_momentum_of_the_last_residual(counting_so3):
    steps = {}
    for evaluate_result in (True, False):
        group = counting_so3
        group.stages = group.exps = 0
        solver = _CountingResiduals(_OneMove(evaluate_result))
        system = HamiltonianSystem(group, SYSTEM.hamiltonian, SYSTEM.force_map)
        steps[evaluate_result] = theta_step(0.5, system, BENCH.state0, 0.05, solver=solver)
        # one stage pass per residual; the update reruns it only when the
        # residual last saw another iterate, so two passes either way, and
        # one exponential per pass and one for the update
        assert solver.residuals == (2 if evaluate_result else 1)
        assert (group.stages, group.exps) == (2, 3)
    for a, b in zip(steps[True], steps[False]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tableau,solver,exps", [
    ("theta0", "one_move", 1),  # the update only: the theta = 0 stage takes no exp(0)
    ("theta0", "newton", 1),  # nor do the residuals of a full Newton solve
    ("theta05", "one_move", 3),  # one per residual, two residuals, and the update
    ("gauss2", "one_move", 5),  # two per residual, and the update
])
def test_exp_calls_of_a_step(tableau, solver, exps, counting_so3):
    tableau = {"theta0": ButcherTableau.theta(0.0), "theta05": ButcherTableau.theta(0.5),
               "gauss2": GAUSS2}[tableau]
    solver = _CountingResiduals({"one_move": _OneMove(True), "newton": ImplicitSolver()}[solver])
    group = counting_so3
    system = HamiltonianSystem(group, SYSTEM.hamiltonian, SYSTEM.force_map)
    symplectic_step(tableau, system, BENCH.state0, 0.05, solver=solver)
    assert (group.exps, group.zero_exps) == (exps, 0)
    # One symplectic_stages pass per residual, for every tableau.
    assert group.stages == solver.residuals


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_theta_step_equals_its_stage_form(theta, rng):
    # Equal as arrays; at theta = 0 the skipped exp(0) could only flip a zero's sign.
    for _ in range(10):
        state = random_state(rng, BENCH.mu0[2])
        step = theta_step(theta, SYSTEM, state, 0.05)
        reference = theta_step_stage_form(theta, SYSTEM, state, 0.05)
        assert all(np.array_equal(a, b) for a, b in zip(step, reference))


# The one-stage kernel So3Ops.symplectic_stages against the GroupOps composition,
# and theta_step, which runs on it, against the stage form of the oracles.
thetas = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]), st.floats(-2.0, 2.0))
entries = st.one_of(st.floats(-10.0, 10.0),
                    st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0, -0.0]))


def same(got, expected):
    return np.array_equal(got, expected, equal_nan=True)


@given(theta=thetas, z=st.lists(entries, min_size=6, max_size=6),
       mu0=st.lists(entries, min_size=3, max_size=3),
       g0=st.lists(entries, min_size=9, max_size=9),
       xi_scale=st.sampled_from([1.0, 1e-5, 1e-6]), as_list=st.booleans())
@settings(max_examples=400, deadline=None)
def test_float_theta_stage_equals_generic_composition(theta, z, mu0, g0, xi_scale, as_list):
    # Bit for bit, NaN or inf out where an entry is not finite, never an exception.
    # xi_scale puts |theta xi| and |xi| on both sides of SMALL_ANGLE.
    z = [xi_scale * v for v in z[:3]] + z[3:]
    g0 = np.array(g0).reshape(3, 3)
    if as_list:
        g0 = g0.tolist()
    else:
        z, mu0 = np.array(z), np.array(mu0)
    tableau = ButcherTableau.theta(theta)
    with np.errstate(all="ignore"):
        [(G, M)], mu = SO3.symplectic_stages(tableau, z, g0, mu0)
        [(G_ref, M_ref)], mu_ref = GroupOps.symplectic_stages(SO3, tableau, z, g0, mu0)
    assert [np.shape(x) for x in (G, M, mu)] == [(3, 3), (3,), (3,)]
    assert same(G, G_ref) and same(M, M_ref) and same(mu, mu_ref)
    if theta == 0.0:
        assert G is g0  # no exp(0) . g0
    if not all(np.isfinite(x).all() for x in (z, mu0, g0)):
        assert not all(np.isfinite(x).all() for x in (G, M, mu))


@pytest.mark.parametrize("z_shape,mu0_shape", [((5,), (3,)), ((7,), (3,)), ((6, 1), (3,)),
                                               ((2, 3), (3,)), ((), (3,)), ((6,), (2,)),
                                               ((6,), (3, 1))])
def test_mis_sized_theta_stage_raises_as_generic(z_shape, mu0_shape):
    z, mu0, tableau = np.full(z_shape, 0.5), np.ones(mu0_shape), ButcherTableau.theta(0.5)
    with pytest.raises(AlgebraMismatch) as generic_error:
        GroupOps.symplectic_stages(SO3, tableau, z, np.eye(3), mu0)
    with pytest.raises(AlgebraMismatch, match=re.escape(str(generic_error.value))):
        SO3.symplectic_stages(tableau, z, np.eye(3), mu0)


@pytest.mark.parametrize("z_len", [6, 13])
def test_mis_sized_gauss2_stages_raise(z_len):
    # Gauss-2 stacks two stages, 12 entries on SO(3): neither a one-stage z nor 13 fits.
    with pytest.raises(AlgebraMismatch, match=re.escape(f"(12,), got ({z_len},)")):
        SO3.symplectic_stages(GAUSS2, np.full(z_len, 0.5), np.eye(3), np.ones(3))


@given(theta=thetas, z=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
@settings(max_examples=50, deadline=None)
def test_theta_stage_off_so3_is_the_generic_composition(theta, z):
    # S^3 builds quaternions, and (R, +) has 2-vector stages: both compose.
    assert S3.symplectic_stages.__func__ is GroupOps.symplectic_stages
    assert TranslationOps.symplectic_stages is GroupOps.symplectic_stages
    tableau = ButcherTableau.theta(theta)
    q0 = quat_exp(np.array([0.3, -0.1, 0.2]))
    [(G, _)], _ = S3.symplectic_stages(tableau, z, q0, np.ones(3))
    if theta != 0.0:
        assert same(G, S3.mul(S3.exp(theta * np.array(z[:3])), q0))
    line = TranslationOps(1)
    [(G, M)], mu = line.symplectic_stages(tableau, z[:2], np.array([0.4]), np.array([0.5]))
    assert same(G, [0.4 + theta * z[0]])
    # dd is the identity on an abelian group: M = mu - theta nbar.
    assert same(mu, np.array([0.5 + z[1]])) and same(M, mu - theta * z[1])


@given(theta=thetas, seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, float(BENCH.mu0[2])]))
@settings(max_examples=60, deadline=None)
def test_theta_step_equals_its_stage_form_at_any_theta(theta, seed, scale):
    # The same floating-point operations, so the same Newton iterates: equal
    # steps, or the same failure where Newton does not converge.
    state = random_state(np.random.default_rng(seed), scale)
    outcomes = []
    for step in (theta_step, theta_step_stage_form):
        try:
            outcomes.append(step(theta, SYSTEM, state, 0.05))
        except FixedPointDivergence as exc:
            outcomes.append(type(exc))
    step, reference = outcomes
    if isinstance(step, type):
        assert step is reference
    else:
        assert all(np.array_equal(a, b) for a, b in zip(step, reference))


@pytest.mark.parametrize("entry", ["newton", "fixed_point"])
def test_nan_residual_never_reads_as_converged(entry):
    # Python's max([0.0, nan]) is 0.0; the residual norm, or the move, must stay NaN.
    solver = ImplicitSolver(max_iter=5)
    with pytest.raises(FixedPointDivergence):
        if entry == "newton":
            solver.solve(lambda z: np.array([0.0, np.nan]), np.zeros(2), h=0.1)
        else:
            solver.fixed_point(lambda z: z - np.array([0.0, np.nan]), np.zeros(2), 0.1,
                               "no convergence")


# ---------------------------------------------------------------------------
# Symmetry at theta = 1/2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step", [theta_step, rkmk_theta_step],
                         ids=["symplectic", "rkmk"])
def test_midpoint_symmetry(step, rng):
    for _ in range(25):
        state = random_state(rng, BENCH.mu0[2])
        forward = step(0.5, SYSTEM, state, 0.05)
        back = step(0.5, SYSTEM, forward, -0.05)
        assert state_distance(back, state) < 1e-10


def test_explicit_scheme_not_symmetric(rng):
    state = random_state(rng, BENCH.mu0[2])
    forward = rkmk_theta_step(0.0, SYSTEM, state, 0.05)
    back = rkmk_theta_step(0.0, SYSTEM, forward, -0.05)
    assert state_distance(back, state) > 1e-6


# ---------------------------------------------------------------------------
# Orders against a brute-force reference (small scale)
# ---------------------------------------------------------------------------

def step_slope(make_step, state0, ref, T):
    """Order of make_step()'s steps at h = T/10 ... T/80, against the final state ref."""
    errs, hs = [], []
    for n in (10, 20, 40, 80):
        g, mu = integrate(make_step(), state0, T / n, n).final
        errs.append(np.linalg.norm(g - ref[0]) + np.linalg.norm(mu - ref[1]))
        hs.append(T / n)
    return fit_slope(hs, errs)


def small_top_slope(make_step, T=1.0):
    """Order of make_step()'s steps on the small top, against the flat RK4 reference."""
    return step_slope(make_step, SMALL.state0, flat_reference(SMALL_SYSTEM, SMALL.state0, T), T)


@pytest.mark.parametrize("scheme,theta,expected", [
    ("symplectic_theta", 0.5, 2.0),
    ("symplectic_theta", 0.0, 1.0),
    ("rkmk_theta", 0.5, 2.0),
    ("rkmk_theta", 0.0, 1.0),
])
def test_small_top_orders(scheme, theta, expected):
    slope = small_top_slope(lambda: cotangent_step(SMALL_SYSTEM, scheme, theta=theta))
    assert abs(slope - expected) < 0.3, (scheme, theta, slope)


# The two-stage Gauss-Legendre tableau, classical order 4.
GAUSS2 = ButcherTableau(a=[[0.25, 0.25 - np.sqrt(3) / 6], [0.25 + np.sqrt(3) / 6, 0.25]],
                        b=[0.5, 0.5])


def test_gauss2_member_is_second_order():
    # Order 2, not the tableau's classical 4 (measured slope 2.001).
    slope = small_top_slope(
        lambda: partial(symplectic_step, GAUSS2, SMALL_SYSTEM, solver=ImplicitSolver()))
    assert abs(slope - 2.0) < 0.3, slope


# The anharmonic oscillator H = mu^2 / 2 + g^2 / 2 + g^4 / 4 on the abelian group (R, +).
QUARTIC = HamiltonianSystem(
    group=TranslationOps(1),
    hamiltonian=lambda g, mu: 0.5 * mu[0] ** 2 + 0.5 * g[0] ** 2 + 0.25 * g[0] ** 4,
    force_map=lambda g, mu: (np.asarray(mu, float), -(g + g ** 3)))


@pytest.mark.parametrize("tableau,expected", [(GAUSS2, 4.0), (ButcherTableau.theta(0.5), 2.0)],
                         ids=["gauss2", "theta05"])
def test_family_on_an_abelian_group_has_the_tableau_order(tableau, expected):
    # On (R, +) the momentum coefficients b_j - b_j a_ji / b_i are the symplectic
    # adjoint tableau, which is a itself for Gauss: the family reduces to
    # Gauss-Legendre, order 4 (measured slope 3.996; theta = 1/2 1.984).
    state0, T = (np.array([1.0]), np.array([0.5])), 2.0
    y = rk4_solve(lambda y: np.array([y[1], -(y[0] + y[0] ** 3)]),
                  np.concatenate(state0), T, 20000)
    slope = step_slope(
        lambda: partial(symplectic_step, tableau, QUARTIC, solver=ImplicitSolver()),
        state0, (y[:1], y[1:]), T)
    assert abs(slope - expected) < 0.3, slope


# ---------------------------------------------------------------------------
# Symplecticity in canonical coordinates
# ---------------------------------------------------------------------------

def _dexp_matrix(zeta):
    return np.column_stack([SO3.dexp(zeta, e) for e in np.eye(3)])


def _from_canonical(x, g0):
    """(zeta, p) -> (g, mu) = (exp(zeta) g0, dexp_zeta^{-T} p)."""
    zeta, p = x[:3], x[3:]
    return SO3.exp(zeta) @ g0, np.linalg.solve(_dexp_matrix(zeta).T, p)


def _to_canonical(state, g0):
    g, mu = state
    zeta = SO3.log(g @ g0.T)
    return np.concatenate([zeta, _dexp_matrix(zeta).T @ mu])


def symplecticity_defect(step, h=0.2, d=1e-5):
    """max |M^T J M - J| for the central-difference Jacobian M of one step.

    The canonical coordinates (zeta, p), with g = exp(zeta) g0 and
    p = dexp_zeta^T mu, are Darboux coordinates of T*SO(3) near g0.
    """
    g0 = SMALL.g0
    x0 = _to_canonical(SMALL.state0, g0) + np.array([0.1, -0.2, 0.15, 0.0, 0.0, 0.0])
    M = np.empty((6, 6))
    for j, e in enumerate(d * np.eye(6)):
        plus = _to_canonical(step(_from_canonical(x0 + e, g0), h), g0)
        minus = _to_canonical(step(_from_canonical(x0 - e, g0), h), g0)
        M[:, j] = (plus - minus) / (2 * d)
    J = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    return np.abs(M.T @ J @ M - J).max()


@pytest.mark.parametrize("step", [
    partial(theta_step, 0.0, SMALL_SYSTEM),
    partial(theta_step, 0.5, SMALL_SYSTEM),
    partial(symplectic_step, GAUSS2, SMALL_SYSTEM),
], ids=["theta0", "theta05", "gauss2"])
def test_family_is_symplectic(step):
    # Measured 1.5e-11 to 1.9e-11.
    assert symplecticity_defect(step) < 1e-8


def test_rkmk_theta_comparator_is_not_symplectic():
    # The control that shows the test can fail: measured 1.4e-4.
    assert symplecticity_defect(partial(rkmk_theta_step, 0.5, SMALL_SYSTEM)) > 1e-8


# ---------------------------------------------------------------------------
# Energy behaviour (short runs; the full desk-scale study is in acceptance)
# ---------------------------------------------------------------------------

def test_free_top_theta0_energy_bounded():
    # Free top (no potential), theta = 0: both the energy error and the
    # momentum norm stay bounded over the full desk-scale run.
    params = dataclasses.replace(HeavyTopParams.benchmark(), gravity=0.0)
    system = heavy_top(params)
    traj = integrate(cotangent_step(system, "symplectic_theta", theta=0.0),
                     params.state0, 0.05, 10000, system.invariants)
    H = traj.invariants["energy"]
    rel = np.abs(H - H[0]) / abs(H[0])
    assert rel.max() < 0.05
    norms = np.array([np.linalg.norm(mu) for _, mu in traj.states])
    assert np.max(np.abs(norms - norms[0])) / norms[0] < 0.05


def test_rotation_constraint_preserved_without_reorthogonalisation():
    traj = integrate(cotangent_step(SYSTEM, "symplectic_theta", theta=0.5),
                     BENCH.state0, 0.05, 500, SYSTEM.invariants)
    g = traj.final[0]
    assert np.linalg.norm(g.T @ g - np.eye(3)) < 1e-12


def test_integrate_cotangent_records_energy():
    traj = integrate(cotangent_step(SYSTEM, "rkmk_theta", theta=0.5),
                     BENCH.state0, 0.05, 10, SYSTEM.invariants)
    assert len(traj) == 11
    assert traj.invariants["energy"].shape == (11,)
    assert traj.invariants["energy"][0] == SYSTEM.energy(BENCH.state0)
