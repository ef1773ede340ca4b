import dataclasses
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from ligi.actions import (
    SO3_ON_S2,
    FrozenFieldProblem,
    SphereRotationAction,
    TranslationAction,
)
from ligi.errors import ActionMismatch, FixedPointDivergence, NonFiniteState
from ligi.liealg import SO3, GroupOps, So3Ops
from ligi.problems import (
    DuffingParams,
    duffing_problem,
    free_rigid_body_s2,
    pca_gradient_problem,
    random_orthonormal,
    StiefelFlowProblem,
)
from ligi.steppers import (
    HEUN2,
    KUTTA4,
    ButcherTableau,
    cf4_step,
    convergence_study,
    heun_step,
    integrate,
    lie_euler_step,
    rkmk4_step,
    rkmk_step,
)
from ligi.symplectic import ImplicitSolver
from oracles import classical_rk_step, fit_slope

FRB = free_rigid_body_s2(1.0, 5.0, 60.0)
Y0_S2 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])
H_SWEEP = [0.1 * 2.0 ** -j for j in range(6)]

ALL_STEPS = [
    ("lie_euler", lie_euler_step, {}),
    ("heun_rkmk", heun_step, {"variant": "rkmk"}),
    ("heun_cg_left", heun_step, {"variant": "cg_left"}),
    ("heun_cg_right", heun_step, {"variant": "cg_right"}),
    ("rkmk_kutta", rkmk_step, {"tableau": KUTTA4}),
    ("rkmk4", rkmk4_step, {}),
    ("cf4", cf4_step, {}),
]


def constant_field_problem(action, xi):
    return FrozenFieldProblem(action=action, coefficient_map=lambda m: xi)


# ---------------------------------------------------------------------------
# Tableaus
# ---------------------------------------------------------------------------

def test_tableau_weights_must_sum_to_one():
    for b in ([0.9], [float("nan")]):
        with pytest.raises(ValueError, match="weights must sum to 1"):
            ButcherTableau(a=[[0.0]], b=b)


@pytest.mark.parametrize("make", [
    lambda: ButcherTableau(a=[[np.nan]], b=[1.0]),
    lambda: ButcherTableau(a=[[np.inf]], b=[1.0]),
    lambda: ButcherTableau(a=[[0.0, 0.0], [-np.inf, 0.0]], b=[0.5, 0.5]),
    lambda: ButcherTableau.theta(np.nan),
], ids=["nan", "inf", "explicit-minus-inf", "theta-nan"])
def test_tableau_stage_matrix_must_be_finite(make):
    # A NaN stage matrix once surfaced only inside a step, as a FixedPointDivergence.
    with pytest.raises(ValueError, match="stage matrix a must be finite"):
        make()


def test_tableau_row_sums():
    assert np.allclose(KUTTA4.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    assert np.allclose(KUTTA4.a[1:, :3],
                       [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert KUTTA4.explicit
    assert not ButcherTableau(a=[[0.5]], b=[1.0]).explicit


def test_tableau_fields_are_the_stage_matrix_and_the_weights():
    assert [f.name for f in dataclasses.fields(ButcherTableau)] == ["a", "b"]


def test_tableaus_compare_and_hash_by_identity():
    # Field-wise == would compare arrays, whose truth value is ambiguous.
    same_numbers = ButcherTableau(a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.5])
    assert isinstance(hash(HEUN2), int)
    assert (HEUN2 == same_numbers) is False
    assert HEUN2 == HEUN2
    assert len({HEUN2: 1, same_numbers: 2, KUTTA4: 3}) == 3
    assert ButcherTableau.theta(0.5) is ButcherTableau.theta(0.5)


# ---------------------------------------------------------------------------
# Constant-field exactness and trivial cases
# ---------------------------------------------------------------------------

def test_lie_euler_zero_field():
    problem = constant_field_problem(SO3_ON_S2, np.zeros(3))
    assert np.allclose(lie_euler_step(problem, Y0_S2, 0.1), Y0_S2, atol=1e-15)


def test_lie_euler_equilibrium_axis():
    p0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(lie_euler_step(FRB, p0, 0.3), p0, atol=1e-15)


@pytest.mark.parametrize("name,step,kwargs", ALL_STEPS,
                         ids=[n for n, _, _ in ALL_STEPS])
def test_constant_field_exactness(name, step, kwargs, rng):
    xi = rng.normal(size=3) * 0.8
    problem = constant_field_problem(SO3_ON_S2, xi)
    h = 0.37
    expected = SO3_ON_S2.apply(SO3.exp(h * xi), Y0_S2)
    assert np.allclose(step(problem, Y0_S2, h, **kwargs), expected, atol=1e-13)


def test_heun_variants_coincide_for_constant_field(rng):
    xi = rng.normal(size=3)
    problem = constant_field_problem(SO3_ON_S2, xi)
    outs = [heun_step(problem, Y0_S2, 0.2, variant=v)
            for v in ("rkmk", "cg_left", "cg_right")]
    for o in outs[1:]:
        assert np.allclose(o, outs[0], atol=1e-14)


# ---------------------------------------------------------------------------
# Abelian reduction: bit-level agreement with classical Runge-Kutta
# ---------------------------------------------------------------------------

def _polynomial_problem():
    def field(y):
        return np.array([y[1] * y[2], -y[0] + 0.1 * y[2] ** 2, 0.5 * y[0] * y[1]])

    return FrozenFieldProblem(action=TranslationAction(3),
                              coefficient_map=field), field


def test_abelian_reduction_all_schemes(rng):
    problem, field = _polynomial_problem()
    y = rng.normal(size=3)
    h = 0.05
    classical = {
        "heun_rkmk": classical_rk_step(field, y, h, HEUN2.a, HEUN2.b),
        "heun_cg_left": classical_rk_step(field, y, h, HEUN2.a, HEUN2.b),
        "heun_cg_right": classical_rk_step(field, y, h, HEUN2.a, HEUN2.b),
        "rkmk_kutta": classical_rk_step(field, y, h, KUTTA4.a, KUTTA4.b),
        "rkmk4": classical_rk_step(field, y, h, KUTTA4.a, KUTTA4.b),
        "cf4": classical_rk_step(field, y, h, KUTTA4.a, KUTTA4.b),
        "lie_euler": y + h * field(y),
    }
    for name, step, kwargs in ALL_STEPS:
        out = step(problem, y, h, **kwargs)
        assert np.max(np.abs(out - classical[name])) < 1e-14, name


# ---------------------------------------------------------------------------
# Orders on the free rigid body
# ---------------------------------------------------------------------------

def test_rigid_body_orders():
    expected = {
        "lie_euler": (1.0, 0.2),
        "heun_rkmk": (2.0, 0.2),
        "heun_cg_left": (2.0, 0.2),
        "heun_cg_right": (2.0, 0.2),
        "rkmk_kutta": (4.0, 0.3),
        "rkmk4": (4.0, 0.3),
        "cf4": (4.0, 0.3),
    }
    for name, step, kwargs in ALL_STEPS:
        slope, _ = convergence_study(lambda: partial(step, FRB, **kwargs), FRB, Y0_S2, 2.0,
                                     H_SWEEP)
        order, tol = expected[name]
        assert abs(slope - order) <= tol, (name, slope)


def test_rkmk4_agrees_with_generic_kutta_to_h5():
    # Same tableau, different dexpinv treatment: difference is O(h^5).
    errs = []
    for h in (0.2, 0.1, 0.05):
        a = rkmk4_step(FRB, Y0_S2, h)
        b = rkmk_step(FRB, Y0_S2, h, tableau=KUTTA4, series_order=4)
        errs.append(np.linalg.norm(a - b))
    slope = fit_slope([0.2, 0.1, 0.05], errs)
    assert slope >= 4.5


def test_rkmk_implicit_tableau_second_order():
    # Implicit midpoint as a 1-stage tableau; second order, solved by Newton.
    midpoint = ButcherTableau(a=[[0.5]], b=[1.0])
    def make_step():
        return partial(rkmk_step, FRB, tableau=midpoint, series_order=4, solver=ImplicitSolver())

    slope, _ = convergence_study(make_step, FRB, Y0_S2, 1.0, H_SWEEP[:4])
    assert abs(slope - 2.0) < 0.3


def test_rkmk_implicit_tableau_without_solver_raises():
    # The check comes before any evaluation: the coefficient map is never called.
    def coefficient_map(m):
        raise AssertionError("evaluated the field")

    problem = FrozenFieldProblem(action=SO3_ON_S2, coefficient_map=coefficient_map)
    with pytest.raises(ValueError, match="needs a solver"):
        rkmk_step(problem, Y0_S2, 0.1, tableau=ButcherTableau(a=[[0.5]], b=[1.0]))


def test_rkmk_tiny_diagonal_tableau_iterates():
    # A diagonal entry below np.allclose's 1e-8 tolerance is still implicit:
    # the step iterates to a finite point near the explicit Euler one.
    tiny = ButcherTableau(a=[[1e-9]], b=[1.0])
    assert not tiny.explicit
    y1 = rkmk_step(FRB, Y0_S2, 0.05, tableau=tiny, solver=ImplicitSolver())
    assert np.isfinite(y1).all()
    euler = rkmk_step(FRB, Y0_S2, 0.05, tableau=ButcherTableau(a=[[0.0]], b=[1.0]))
    assert np.allclose(y1, euler, atol=1e-8)


def test_rkmk_implicit_divergence_reports_h():
    # A stiff stage that one Newton move cannot solve to the tolerance.
    midpoint = ButcherTableau(a=[[0.5]], b=[1.0])
    problem = FrozenFieldProblem(
        action=SO3_ON_S2,
        coefficient_map=lambda m: 8.0 * np.array([m[1], m[2], m[0]]))
    with pytest.raises(FixedPointDivergence) as err:
        rkmk_step(problem, Y0_S2, 0.225, tableau=midpoint,
                  solver=ImplicitSolver(max_iter=1))
    assert err.value.h == 0.225


def test_rkmk_implicit_nan_stage_is_divergence():
    # The first stage is f(y0) and never moves; the second is NaN off y0.
    # The NaN residual must not read as converged, though Python's
    # max(0.0, nan) is 0.0.
    tableau = ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5])
    problem = FrozenFieldProblem(
        action=SO3_ON_S2,
        coefficient_map=lambda m: (np.array([m[1], m[2], m[0]]) if np.array_equal(m, Y0_S2)
                                   else np.full(3, np.nan)))
    with pytest.raises(FixedPointDivergence):
        rkmk_step(problem, Y0_S2, 0.1, tableau=tableau, solver=ImplicitSolver())


def test_rkmk_implicit_overflowing_start_is_non_finite_state():
    # h f(y0) overflows before the solver runs: an overflow, not a divergence.
    midpoint = ButcherTableau(a=[[0.5]], b=[1.0])
    problem = constant_field_problem(SO3_ON_S2, np.full(3, 10.0))
    with pytest.raises(NonFiniteState, match="not finite"):
        rkmk_step(problem, Y0_S2, 1e308, tableau=midpoint, solver=ImplicitSolver())


@pytest.mark.parametrize("h, h_float, rtol", [
    (1, 1.0, 1e-6),
    (np.float32(0.05), 0.05, 1e-6),
    (np.float64(0.05), 0.05, 0.0),
])
def test_rkmk_step_accepts_any_real_step_type(h, h_float, rtol):
    # The all-zero first row of KUTTA4 must be recognised whatever type h has.
    expected = rkmk_step(FRB, Y0_S2, h_float, tableau=KUTTA4)
    got = rkmk_step(FRB, Y0_S2, h, tableau=KUTTA4)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=0.0)


def test_cf4_exponential_count():
    # Counting through a proxy group: the scheme needs five exponentials.
    calls = {"exp": 0}

    class CountingGroup(GroupOps):
        dim = 3

        def bracket(self, a, b):
            return SO3.bracket(a, b)

        def exp(self, xi):
            calls["exp"] += 1
            return SO3.exp(xi)

        def mul(self, a, b):
            return SO3.mul(a, b)

        def identity(self):
            return SO3.identity()

    class CountingAction(type(SO3_ON_S2)):
        group = CountingGroup()

    problem = FrozenFieldProblem(action=CountingAction(),
                                 coefficient_map=FRB.coefficient_map)
    cf4_step(problem, Y0_S2, 0.1)
    assert calls["exp"] == 5


# ---------------------------------------------------------------------------
# rkmk4_step on SO3_ON_S2: the float kernel against the generic composition
# ---------------------------------------------------------------------------

class GenericSphereAction(SphereRotationAction):
    """Not SphereRotationAction itself, so rkmk4_step composes exp and apply on arrays."""


def generic_problem(problem):
    return dataclasses.replace(problem, action=GenericSphereAction())


def test_rkmk4_sphere_kernel_matches_the_generic_composition():
    # Seeded draws of states, inertias and signed h with a stage angle
    # |h f(y)| <= |h| |y| / min I <= 3; far larger angles amplify roundoff.
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(300):
        inertia = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
        y = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0)
        norm = np.linalg.norm(y)
        h = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 3.0) * inertia.min() / norm
        problem = free_rigid_body_s2(*inertia)
        got = rkmk4_step(problem, y, h)
        expected = rkmk4_step(generic_problem(problem), y, h)
        assert got.dtype == np.float64 and got.shape == (3,)
        worst = max(worst, np.max(np.abs(got - expected)) / norm)
    assert worst <= 1e-14


def test_rkmk4_sphere_kernel_takes_only_the_exact_action_and_group():
    # A subclass of the action, or of So3Ops as its group, keeps the generic
    # path: the composition's four exponentials and four applications.
    calls = {"exp": 0, "apply": 0}

    class CountingSO3(So3Ops):
        def exp(self, xi):
            calls["exp"] += 1
            return super().exp(xi)

    class CountingAction(GenericSphereAction):
        def apply(self, g, m):
            calls["apply"] += 1
            return super().apply(g, m)

    rkmk4_step(FrozenFieldProblem(action=CountingAction(), coefficient_map=FRB.coefficient_map),
               Y0_S2, 0.1)
    assert calls == {"exp": 0, "apply": 4}
    action = SphereRotationAction()
    action.group = CountingSO3()
    rkmk4_step(FrozenFieldProblem(action=action, coefficient_map=FRB.coefficient_map),
               Y0_S2, 0.1)
    assert calls == {"exp": 4, "apply": 4}


def test_rkmk4_sphere_calls_the_coefficient_map_with_arrays():
    seen = []

    def coefficient_map(m):
        seen.append(m)
        return FRB.coefficient_map(m)

    problem = FrozenFieldProblem(action=SO3_ON_S2, coefficient_map=coefficient_map)
    y1 = rkmk4_step(problem, Y0_S2, 0.05)
    assert len(seen) == 4
    assert all(type(m) is np.ndarray and m.shape == (3,) for m in seen)
    assert type(y1) is np.ndarray and y1.dtype == np.float64


@pytest.mark.parametrize("y", [np.ones(4), np.ones((3, 1)), 1.0], ids=["4-vector", "3x1", "scalar"])
def test_rkmk4_sphere_point_must_be_a_3_vector(y):
    # The shape is checked before any arithmetic: the coefficient map is never called.
    def coefficient_map(m):
        raise AssertionError("evaluated the field")

    problem = FrozenFieldProblem(action=SO3_ON_S2, coefficient_map=coefficient_map)
    with pytest.raises(ActionMismatch, match=r"points on S\^2 are 3-vectors"):
        rkmk4_step(problem, y, 0.05)
    with pytest.raises(ValueError):  # ActionMismatch is a ValueError
        rkmk4_step(problem, y, 0.05)


def test_rkmk4_sphere_nan_state_gives_nan():
    assert np.isnan(rkmk4_step(FRB, np.array([np.nan, 0.0, 1.0]), 0.05)).all()


def test_rkmk4_sphere_overflowing_step_is_not_finite():
    # integrate stops on it with NonFiniteState, the CLI with exit code 4.
    assert not np.isfinite(rkmk4_step(FRB, Y0_S2, 1e308)).all()
    with pytest.raises(NonFiniteState, match="step 1"):
        integrate(partial(rkmk4_step, FRB), Y0_S2, 1e308, 1)


@pytest.mark.parametrize("h", [1, np.float32(0.05), np.float64(0.05), Fraction(1, 20)],
                         ids=["int", "float32", "float64", "Fraction"])
def test_rkmk4_sphere_accepts_any_real_step_type(h):
    # Every type of h scales as its float64 value, as numpy scales the arrays.
    got = rkmk4_step(FRB, Y0_S2, h)
    assert got.dtype == np.float64
    assert np.array_equal(got, rkmk4_step(FRB, Y0_S2, float(h)))
    np.testing.assert_allclose(got, rkmk4_step(generic_problem(FRB), Y0_S2, h),
                               rtol=0.0, atol=1e-14)


def test_cf4_and_rkmk4_agree_to_h4(rng):
    errs = []
    hs = (0.2, 0.1, 0.05)
    for h in hs:
        a = rkmk4_step(FRB, Y0_S2, h)
        b = cf4_step(FRB, Y0_S2, h)
        errs.append(np.linalg.norm(a - b))
    assert fit_slope(hs, errs) >= 3.5  # both are O(h^5) from the flow


# ---------------------------------------------------------------------------
# Orbit preservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,step,kwargs", ALL_STEPS,
                         ids=[n for n, _, _ in ALL_STEPS])
def test_sphere_norm_preserved(name, step, kwargs):
    y = Y0_S2
    for _ in range(100):
        y = step(FRB, y, 0.05, **kwargs)
        assert abs(np.linalg.norm(y) - 1.0) < 1e-13


def test_stiefel_orthonormality_preserved():
    flow = StiefelFlowProblem(np.diag([5.0, 4.0, 3.0, 2.0, 1.0, 0.5]), k=2)
    problem = pca_gradient_problem(flow)
    Q = random_orthonormal(6, 2, 7)
    for _ in range(50):
        Q = cf4_step(problem, Q, 0.05)
        assert np.linalg.norm(Q.T @ Q - np.eye(2)) < 1e-12


# ---------------------------------------------------------------------------
# Trajectories and convergence studies
# ---------------------------------------------------------------------------

def test_integrate_zero_steps():
    traj = integrate(partial(rkmk4_step, FRB), Y0_S2, 0.1, 0, FRB.invariants)
    assert len(traj) == 1
    assert np.array_equal(traj.final, Y0_S2)
    assert traj.invariants["norm"].shape == (1,)


def test_integrate_records_invariants():
    traj = integrate(partial(rkmk4_step, FRB), Y0_S2, 0.05, 20, FRB.invariants)
    assert len(traj) == 21
    assert np.all(np.diff(traj.times) > 0)
    assert np.max(np.abs(traj.invariants["norm"] - 1.0)) < 1e-13


def test_integrate_large_finite_state_is_not_flagged():
    # The entries sum to inf, so only the exact test can tell they are finite.
    y0 = np.array([1e308, 1e308])
    traj = integrate(lambda y, h: y, y0, 0.1, 3, (("big", lambda y: float(y[0])),))
    assert np.array_equal(traj.final, y0)
    assert np.all(traj.invariants["big"] == 1e308)


def test_convergence_study_requires_decreasing_h():
    with pytest.raises(ValueError):
        convergence_study(lambda: partial(lie_euler_step, FRB), FRB, Y0_S2, 1.0, [0.1, 0.1])


def test_duffing_linear_lie_euler_exact_any_h():
    # With b = 0 the oscillation coefficient matrix is constant, so the
    # frozen flow is the exact flow for any step size.
    problem = duffing_problem(DuffingParams(1.0, 0.0), "sl2")
    y = np.array([0.75, 0.75])
    h, n = 0.7, 12
    for _ in range(n):
        y = lie_euler_step(problem, y, h)
    t = h * n
    exact = np.array([0.75 * np.cos(t) + 0.75 * np.sin(t),
                      0.75 * np.cos(t) - 0.75 * np.sin(t)])
    assert np.allclose(y, exact, atol=1e-12)
