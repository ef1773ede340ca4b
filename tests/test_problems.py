import numpy as np
import pytest

from ligi.liealg import hat
from ligi.problems import (
    DuffingParams,
    StiefelFlowProblem,
    duffing_problem,
    free_rigid_body_s2,
    lyapunov_exponents,
    lyapunov_field,
    lyapunov_triangular_coupling,
    pca_gradient_problem,
    random_covariance,
    random_orthonormal,
    stiefel_pca_flow,
    torus_cost,
    torus_descent,
    torus_state,
)
from functools import partial

from ligi.steppers import cf4_step, integrate, lie_euler_step, rkmk4_step
from oracles import (
    central_difference,
    duffing_se2_frozen_flow,
    duffing_sl2_frozen_flow,
)


# ---------------------------------------------------------------------------
# Duffing
# ---------------------------------------------------------------------------

def test_duffing_params_validation():
    with pytest.raises(ValueError):
        DuffingParams(-1.0, 0.0)


@pytest.mark.parametrize("a,b,match", [(np.nan, 1.0, "coefficient a"),
                                       (1.0, np.nan, "coefficient b"),
                                       (1.0, -1.0, "coefficient b"),
                                       (np.inf, 1.0, "coefficient a"),
                                       (1.0, np.inf, "coefficient b"),
                                       (-np.inf, 1.0, "coefficient a")])
def test_duffing_params_reject_nan_and_negative_coefficients(a, b, match):
    # An infinite a once constructed, and its sl2 coefficient map returned
    # [[0, 1], [-inf, 0]].
    with pytest.raises(ValueError, match=match):
        DuffingParams(a, b)


def test_duffing_frames_define_same_field(rng):
    params = DuffingParams(1.0, 1.0)
    problems = [duffing_problem(params, fr) for fr in ("r2", "sl2", "se2")]
    for _ in range(1000):
        m = rng.normal(size=2) * 2.0
        ref = problems[0].reference_field(m)
        for problem in problems:
            assert np.max(np.abs(np.asarray(problem.field(m)) - ref)) < 1e-13


@pytest.mark.parametrize("t", [0.1, 0.5])
def test_duffing_frozen_flows_match_closed_forms(t):
    a = b = 1.0
    p0 = np.array([0.75, 0.75])
    sl2 = duffing_problem(DuffingParams(a, b), "sl2")
    moved = sl2.action.apply(sl2.action.group.exp(t * sl2.coefficient_map(p0)), p0)
    assert np.allclose(moved, duffing_sl2_frozen_flow(a, b, p0, t), atol=1e-12)

    se2 = duffing_problem(DuffingParams(a, b), "se2")
    moved = se2.action.apply(se2.action.group.exp(t * se2.coefficient_map(p0)), p0)
    assert np.allclose(moved, duffing_se2_frozen_flow(a, b, p0, t), atol=1e-12)


def test_duffing_energy_invariant_under_fine_integration():
    params = DuffingParams(1.0, 1.0)
    problem = duffing_problem(params, "sl2")
    traj = integrate(partial(rkmk4_step, problem), np.array([0.75, 0.75]), 0.01, 500,
                     problem.invariants)
    e = traj.invariants["energy"]
    assert np.max(np.abs(e - e[0])) < 1e-9


# ---------------------------------------------------------------------------
# Free rigid body on S^2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inertia", [(np.nan, 1.0, 1.0), (1.0, 1.0, np.nan), (0.0, 1.0, 1.0),
                                     (np.inf, 5.0, 60.0)],
                         ids=["nan-i1", "nan-i3", "zero-i1", "inf-i1"])
def test_free_rigid_body_s2_rejects_nan_and_nonpositive_inertia(inertia):
    # A NaN moment once passed "reject if I <= 0" and gave a NaN coefficient map.
    with pytest.raises(ValueError, match="moments of inertia"):
        free_rigid_body_s2(*inertia)


def test_frb_frozen_matrix_entries():
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    p0 = np.array([0.3, -0.5, 0.8])
    F = hat(problem.coefficient_map(p0))
    i1, i2, i3 = 1.0, 5.0, 60.0
    expected = np.array([
        [0.0, p0[2] / i3, -p0[1] / i2],
        [-p0[2] / i3, 0.0, p0[0] / i1],
        [p0[1] / i2, -p0[0] / i1, 0.0],
    ])
    assert np.allclose(F, expected, atol=1e-15)


def test_frb_reference_field_consistency(rng):
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    for _ in range(100):
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        assert np.max(np.abs(problem.field(m) - problem.reference_field(m))) < 1e-14


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_frb_axis_equilibria(axis):
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    for sign in (1.0, -1.0):
        p = np.zeros(3)
        p[axis] = sign
        for step in (lie_euler_step, rkmk4_step, cf4_step):
            assert np.allclose(step(problem, p, 0.2), p, atol=1e-13)


def test_frb_rkmk4_conserves_norm_and_energy():
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    y0 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])
    traj = integrate(partial(rkmk4_step, problem), y0, 0.05, 200,
                     problem.invariants)  # T = 10
    assert np.max(np.abs(traj.invariants["norm"] - 1.0)) < 1e-13
    e = traj.invariants["energy"]
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6  # O(h^4) at h = 0.05


# ---------------------------------------------------------------------------
# Torus descent
# ---------------------------------------------------------------------------

def test_torus_minimum_is_stationary():
    state = torus_state(0.0, np.pi / 2.0)
    problem_traj = torus_descent(state, 0.02, 5)
    for s in problem_traj.states:
        assert np.max(np.abs(s - state)) < 1e-14
    assert abs(torus_cost(state) - 36.0) < 1e-14


def test_torus_descent_converges_from_basin():
    traj = torus_descent(torus_state(0.3, 1.2), 0.02, 2000)
    cost = traj.invariants["cost"]
    assert abs(cost[-1] - 36.0) < 1e-6
    assert np.all(np.diff(cost) <= 1e-10)  # non-increasing
    assert np.max(np.abs(traj.invariants["norm_u"] - 1.0)) < 1e-13
    assert np.max(np.abs(traj.invariants["norm_v"] - 1.0)) < 1e-13


def test_torus_gradient_matches_finite_differences(rng):
    # The descent coefficients are minus the cost partials in the angles.
    from ligi.problems import _torus_gradient_coeffs
    for _ in range(50):
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        gamma, delta = _torus_gradient_coeffs(torus_state(theta, phi))
        fd_theta = central_difference(
            lambda t: torus_cost(torus_state(t, phi)), theta, 1.0, scale=100.0)
        fd_phi = central_difference(
            lambda t: torus_cost(torus_state(theta, t)), phi, 1.0, scale=100.0)
        assert abs(gamma - fd_theta) < 1e-6
        assert abs(delta - fd_phi) < 1e-6


# ---------------------------------------------------------------------------
# Stiefel PCA flow
# ---------------------------------------------------------------------------

def test_stiefel_flow_validation():
    with pytest.raises(ValueError):
        StiefelFlowProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        StiefelFlowProblem(np.eye(3), 4)


@pytest.mark.parametrize("A,k,match", [
    (np.full((3, 3), np.nan), 1, "finite square"),
    (np.where(np.eye(3) > 0, np.inf, 0.0), 1, "finite square"),
    (np.ones(3), 1, "finite square"),
    (np.ones((3, 2)), 1, "finite square"),
    (np.eye(3), 1.5, "integer"),
    (np.eye(3), 0, "integer"),
], ids=["nan-A", "inf-A", "1d-A", "3x2-A", "k-1.5", "k-0"])
def test_stiefel_flow_rejects_nan_and_mis_shaped_inputs(A, k, match):
    # A NaN A once passed the symmetry test (nan > 1e-12 is False).
    with pytest.raises(ValueError, match=match):
        StiefelFlowProblem(A, k)


def test_pca_gradient_matches_directional_derivative(rng):
    # d/dt phi(exp(t xi) Q) at 0 equals <grad, xi Q> with the embedded metric.
    flow = StiefelFlowProblem(random_covariance(5, 3), 2)
    problem = pca_gradient_problem(flow)
    Q = random_orthonormal(5, 2, 11)
    xi = problem.coefficient_map(Q)
    from ligi.problems import pca_objective
    deriv = central_difference(
        lambda t: pca_objective(flow.A, problem.action.group.exp(t * xi) @ Q), 0.0, 1.0)
    grad = problem.reference_field(Q)
    assert abs(deriv - float(np.sum(grad * (xi @ Q)))) < 1e-6
    # ascent direction: derivative equals the squared gradient norm
    assert deriv > 0.0 or np.linalg.norm(grad) < 1e-8


def test_pca_critical_point_is_stationary():
    A = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    flow = StiefelFlowProblem(A, 2)
    Q_star = np.eye(5)[:, :2]
    problem = pca_gradient_problem(flow)
    out = cf4_step(problem, Q_star, 0.1)
    assert np.max(np.abs(out - Q_star)) < 1e-12


def test_pca_objective_converges_to_top_eigenvalues():
    A = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    flow = StiefelFlowProblem(A, 2)
    Q, objective = stiefel_pca_flow(flow, random_orthonormal(5, 2, 42), 0.05, 600)
    assert abs(objective - 4.5) < 1e-6
    assert np.linalg.norm(Q.T @ Q - np.eye(2)) < 1e-10


def test_pca_objective_on_synthetic_spectrum():
    spectrum = [6.0, 5.0, 2.5, 1.0, 0.5, 0.1]
    A = random_covariance(6, 21, spectrum=spectrum)
    flow = StiefelFlowProblem(A, 2)
    _, objective = stiefel_pca_flow(flow, random_orthonormal(6, 2, 13), 0.04, 900)
    assert abs(objective - 0.5 * (6.0 + 5.0)) < 1e-6


def test_pca_objective_monotone_for_small_steps():
    A = random_covariance(4, 9)
    flow = StiefelFlowProblem(A, 2)
    problem = pca_gradient_problem(flow)
    h = 0.1 / np.linalg.norm(A, 2)
    traj = integrate(partial(cf4_step, problem), random_orthonormal(4, 2, 5), h, 200,
                     problem.invariants)
    obj = traj.invariants["objective"]
    assert np.all(np.diff(obj) >= -1e-12)


# ---------------------------------------------------------------------------
# Lyapunov exponents
# ---------------------------------------------------------------------------

def test_lyapunov_coupling_skewness(rng):
    A = rng.normal(size=(4, 4))
    Q = random_orthonormal(4, 2, 1)
    S, B = lyapunov_triangular_coupling(A, Q)
    assert np.array_equal(S, -S.T)
    assert np.allclose(np.tril(B, k=-1), 0.0, atol=1e-15)


def test_lyapunov_field_is_skew_and_consistent(rng):
    A = rng.normal(size=(5, 5))
    Q = random_orthonormal(5, 2, 3)
    xi = lyapunov_field(A, Q)
    assert np.max(np.abs(xi + xi.T)) < 1e-13
    S, _ = lyapunov_triangular_coupling(A, Q)
    expected = (A - Q @ Q.T @ A + Q @ S @ Q.T) @ Q
    assert np.max(np.abs(xi @ Q - expected)) < 1e-12


def test_lyapunov_canonical_start_is_exact():
    # The canonical frame is a fixed point; the averages equal the diagonal.
    A = np.diag([4.0, 2.0, 1.0, -1.0])
    Q0 = np.eye(4)[:, :2]
    lam = lyapunov_exponents(A, 2, 0.05, 20.0, Q0)
    assert np.allclose(lam, [4.0, 2.0], atol=1e-12)


def test_lyapunov_startup_bias_scales_like_one_over_T():
    A = np.diag([3.0, 1.0, -1.0])
    Q0 = random_orthonormal(3, 2, 2)
    e100 = np.abs(lyapunov_exponents(A, 2, 0.1, 100.0, Q0) - [3.0, 1.0])
    e1000 = np.abs(lyapunov_exponents(A, 2, 0.1, 1000.0, Q0) - [3.0, 1.0])
    ratio = e100 / e1000
    assert np.all(np.abs(ratio - 10.0) < 0.5)
    assert np.max(e1000) < 3e-3


def test_lyapunov_orthonormality_along_run():
    A = np.diag([3.0, 1.0, -1.0])
    Q0 = random_orthonormal(3, 2, 0)
    _, Q = lyapunov_exponents(A, 2, 0.05, 50.0, Q0, return_frame=True)
    assert np.linalg.norm(Q.T @ Q - np.eye(2)) < 1e-10


def test_lyapunov_time_dependent_path():
    # A slowly rotating system: exponents approach the constant-case values.
    A0 = np.diag([2.0, -1.0])

    def a_path(t):
        return A0 + 0.01 * np.array([[0.0, np.sin(t)], [np.sin(t), 0.0]])

    Q0 = random_orthonormal(2, 1, 4)
    lam = lyapunov_exponents(a_path, 1, 0.02, 100.0, Q0)
    assert abs(lam[0] - 2.0) < 0.05


def test_lyapunov_nondiagonal_oracle(rng):
    # Constant nonsymmetric A with known real eigenvalues.
    V = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    A = V @ np.diag([2.0, 0.5, -1.0]) @ np.linalg.inv(V)
    lam = lyapunov_exponents(A, 2, 0.05, 300.0, random_orthonormal(3, 2, 8))
    assert np.max(np.abs(lam - [2.0, 0.5])) < 2e-2


LYAPUNOV_A, LYAPUNOV_Q0 = np.diag([3.0, 1.0, -1.0]), np.eye(3)[:, :2]


@pytest.mark.parametrize("run, match", [
    (partial(lyapunov_exponents, LYAPUNOV_A, 2, 0.1, 0.01, LYAPUNOV_Q0), "at least one step"),
    (partial(lyapunov_exponents, LYAPUNOV_A, 2, 0.1, -1.0, LYAPUNOV_Q0), "at least one step"),
    (partial(lyapunov_exponents, LYAPUNOV_A, 2, 0.1, np.inf, LYAPUNOV_Q0), "T must be finite"),
    (partial(lyapunov_exponents, LYAPUNOV_A, 2, np.inf, 1.0, LYAPUNOV_Q0), "h must be"),
    (partial(lyapunov_exponents, LYAPUNOV_A, 2, 0.0, 1.0, LYAPUNOV_Q0), "h must be"),
    (partial(lyapunov_exponents, LYAPUNOV_A, 2, np.nan, 1.0, LYAPUNOV_Q0), "h must be"),
    (partial(integrate, lambda y, h: y, np.zeros(2), 0.1, -3), "n_steps must be"),
], ids=["zero_steps", "negative_T", "infinite_T", "infinite_h", "zero_h", "nan_h",
        "negative_n_steps"])
def test_bad_run_length_raises_value_error(run, match):
    # Unchecked, no steps average to NaN exponents and a negative n_steps
    # gives a trajectory with fewer times than states.
    with pytest.raises(ValueError, match=match):
        run()


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def test_random_covariance_spectrum():
    A = random_covariance(4, 0, spectrum=[4.0, 3.0, 2.0, 1.0])
    assert np.linalg.norm(A - A.T) < 1e-14
    assert np.allclose(np.sort(np.linalg.eigvalsh(A)), [1.0, 2.0, 3.0, 4.0],
                       atol=1e-12)


def test_random_covariance_deterministic():
    assert np.array_equal(random_covariance(5, 12), random_covariance(5, 12))


def test_random_orthonormal_properties():
    Q = random_orthonormal(6, 3, 1)
    assert Q.shape == (6, 3)
    assert np.linalg.norm(Q.T @ Q - np.eye(3)) < 1e-13
    assert np.array_equal(Q, random_orthonormal(6, 3, 1))
