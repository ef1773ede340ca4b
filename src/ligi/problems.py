"""Benchmark problems: Duffing oscillator frames, the free rigid body on the
sphere, torus gradient descent, Stiefel gradient flows and Lyapunov-exponent
estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .actions import (
    SE2_ON_R2,
    SL2_ON_R2,
    SO3_ON_S2,
    TORUS,
    FrozenFieldProblem,
    TranslationAction,
    stiefel_action,
)
from .steppers import Trajectory, cf4_step, integrate, lie_euler_step


# ---------------------------------------------------------------------------
# Duffing oscillator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DuffingParams:
    """Stiffness coefficients of x'' = -a x - b x^3."""

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # a NaN fails too
                raise ValueError(f"Duffing coefficient {name} must be nonnegative and finite,"
                                 f" got {value!r}")


def duffing_problem(params: DuffingParams, frame="sl2") -> FrozenFieldProblem:
    """The Duffing system under one of three frames.

    * "r2":  translations; integrators reduce to their classical forms.
    * "sl2": coefficient matrix [[0, 1], [-(a + b x^2), 0]], linear action.
    * "se2": rotation-translation frame with coefficients (1, -b x^3) on the
      (oscillation, vertical-shift) generators, in homogeneous 3x3 form.
    """
    a, b = params.a, params.b

    def reference(m):
        x, y = m
        return np.array([y, -a * x - b * x ** 3])

    def energy(m):
        x, y = m
        return 0.5 * y * y + 0.5 * a * x * x + 0.25 * b * x ** 4

    def f_sl2(m):
        x = m[0]
        return np.array([[0.0, 1.0], [-(a + b * x * x), 0.0]])

    def f_se2(m):
        x = m[0]
        return np.array([
            [0.0, 1.0, 0.0],
            [-a, 0.0, -b * x ** 3],
            [0.0, 0.0, 0.0],
        ])

    frames = {"r2": (TranslationAction(2), reference), "sl2": (SL2_ON_R2, f_sl2),
              "se2": (SE2_ON_R2, f_se2)}
    try:
        action, coefficient_map = frames[frame]
    except (KeyError, TypeError):  # an unhashable frame is unknown too
        raise ValueError(f"unknown Duffing frame {frame!r}") from None
    return FrozenFieldProblem(action=action, coefficient_map=coefficient_map,
                              invariants=(("energy", energy),), reference_field=reference)


# ---------------------------------------------------------------------------
# Free rigid body on the momentum sphere
# ---------------------------------------------------------------------------

def free_rigid_body_s2(i1, i2, i3) -> FrozenFieldProblem:
    """Euler equations for the body angular momentum on S^2.

    Coefficient map f(m) = -m / I; the frozen matrix hat(f(p)) reproduces the
    linear system whose flow advances the momentum by a rotation.
    """
    inertia = np.array([i1, i2, i3], dtype=float)
    if inertia.shape != (3,) or not (np.all(inertia > 0.0) and np.isfinite(inertia).all()):
        raise ValueError("moments of inertia must be 3 positive finite numbers, "
                         f"got {inertia.tolist()}")

    def f(m):
        return -np.asarray(m, float) / inertia

    def reference(m):
        x, y, z = m
        return np.array([
            (1.0 / inertia[2] - 1.0 / inertia[1]) * y * z,
            (1.0 / inertia[0] - 1.0 / inertia[2]) * x * z,
            (1.0 / inertia[1] - 1.0 / inertia[0]) * x * y,
        ])

    invariants = (
        ("norm", lambda m: float(np.linalg.norm(m))),
        ("energy", lambda m: 0.5 * float(np.asarray(m, float) ** 2 @ (1.0 / inertia))),
    )
    return FrozenFieldProblem(action=SO3_ON_S2, coefficient_map=f,
                              invariants=invariants, reference_field=reference)


# ---------------------------------------------------------------------------
# Gradient descent on the torus
# ---------------------------------------------------------------------------

def torus_state(theta, phi):
    """Torus point as two unit 2-vectors (columns of planar rotations)."""
    return np.array([[np.cos(theta), np.sin(theta)],
                     [np.cos(phi), np.sin(phi)]])


def torus_cost(state):
    """Squared distance of the embedded point's height from the plane y = 8."""
    u, v = state
    return float(((1.0 + u[0]) * v[1] - 8.0) ** 2)


def _torus_gradient_coeffs(state):
    # gamma = -C sin(theta) sin(phi), delta = C (1 + cos(theta)) cos(phi),
    # C = 2 ((1 + cos(theta)) sin(phi) - 8), in embedded coordinates.
    u, v = state
    C = 2.0 * ((1.0 + u[0]) * v[1] - 8.0)
    gamma = -C * u[1] * v[1]
    delta = C * (1.0 + u[0]) * v[0]
    return gamma, delta


def torus_descent_problem() -> FrozenFieldProblem:
    """Negative-gradient flow of the torus cost under SO(2) x SO(2)."""

    def f(state):
        gamma, delta = _torus_gradient_coeffs(state)
        return np.array([-gamma, -delta])

    invariants = (
        ("cost", torus_cost),
        ("norm_u", lambda s: float(np.linalg.norm(s[0]))),
        ("norm_v", lambda s: float(np.linalg.norm(s[1]))),
    )
    return FrozenFieldProblem(action=TORUS, coefficient_map=f, invariants=invariants)


def torus_descent(start, h, n_steps) -> Trajectory:
    """Integrate the descent flow from a torus point with Lie-Euler steps."""
    problem = torus_descent_problem()
    return integrate(partial(lie_euler_step, problem), start, h, n_steps, problem.invariants)


# ---------------------------------------------------------------------------
# Stiefel flows: PCA objective and Lyapunov exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StiefelFlowProblem:
    """The PCA gradient flow on St(n, k), ascending trace(Q^T A Q)/2 for a symmetric A."""

    A: np.ndarray
    k: int

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", A)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
            raise ValueError(f"A must be a finite square matrix, got shape {A.shape}")
        if not (isinstance(self.k, (int, np.integer)) and 1 <= self.k <= A.shape[0]):
            raise ValueError(f"k must be an integer in 1..{A.shape[0]}, got {self.k!r}")
        if np.linalg.norm(A - A.T) > 1e-12:
            raise ValueError("the PCA objective needs a symmetric matrix")

    @property
    def n(self):
        return self.A.shape[0]


def pca_objective(A, Q):
    return 0.5 * float(np.trace(Q.T @ (A @ Q)))


def pca_gradient_problem(problem: StiefelFlowProblem) -> FrozenFieldProblem:
    """Ascent flow of the PCA objective as a frozen-coefficient problem.

    The tangent gradient A Q - Q (Q^T A Q) is generated by the skew element
    A Q Q^T - Q Q^T A of so(n).
    """
    A = problem.A

    def f(Q):
        P = Q @ Q.T
        return A @ P - P @ A

    invariants = (
        ("objective", lambda Q: pca_objective(A, Q)),
        ("orth", lambda Q: float(np.linalg.norm(Q.T @ Q - np.eye(problem.k)))),
    )
    return FrozenFieldProblem(action=stiefel_action(problem.n),
                              coefficient_map=f, invariants=invariants,
                              reference_field=lambda Q: A @ Q - Q @ (Q.T @ (A @ Q)))


def stiefel_pca_flow(problem: StiefelFlowProblem, q0, h, n_steps):
    """Integrate the PCA gradient ascent with CF4 steps; returns (Q, objective)."""
    traj = integrate(partial(cf4_step, pca_gradient_problem(problem)),
                     np.asarray(q0, float), h, n_steps)
    return traj.final, pca_objective(problem.A, traj.final)


def lyapunov_triangular_coupling(A, Q):
    """S and B of the orthogonal-iteration field: S strictly-skew from Q^T A Q,
    B = Q^T A Q - S upper triangular."""
    C = Q.T @ (A @ Q)
    lower = np.tril(C, k=-1)
    S = lower - lower.T
    return S, C - S


def lyapunov_field(A, Q):
    """Skew so(n) element generating dQ/dt = (A - Q Q^T A + Q S Q^T) Q."""
    S, _ = lyapunov_triangular_coupling(A, Q)
    P = Q @ Q.T
    n = A.shape[0]
    residual = (np.eye(n) - P) @ (A @ Q)  # normal component of the tangent field
    return Q @ S @ Q.T + residual @ Q.T - Q @ residual.T


def lyapunov_exponents(a_path: Union[np.ndarray, Callable], k, h, T, q0,
                       return_frame=False):
    """Leading Lyapunov exponents by CF4 integration on St(n, k).

    a_path is a constant matrix or a map t -> matrix (sampled at the step
    midpoints and frozen within each step).  The exponents are trapezoidal
    time averages of the diagonal of B = Q^T A Q - S, starting at t = 0.
    With return_frame the terminal frame is returned alongside.  Raises
    ValueError unless h is positive and finite and T gives at least one
    step, and NonFiniteState when a frame is not finite.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite (h={h!r})")
    if not (math.isfinite(T / h) and T / h > 0.5):  # round(T / h) >= 1
        raise ValueError(f"T must be finite and give at least one step (T={T!r}, h={h!r})")

    def sample(t):
        return np.asarray(a_path(t) if callable(a_path) else a_path, float)

    action = stiefel_action(np.shape(q0)[0])

    def frame_step(state, h):  # state (m, Q): the frame Q at t = m h
        m, Q = state
        A = sample((m + 0.5) * h)
        problem = FrozenFieldProblem(action=action,
                                     coefficient_map=lambda Q_: lyapunov_field(A, Q_))
        return m + 1, cf4_step(problem, Q, h)

    n_steps = int(round(T / h))
    traj = integrate(frame_step, (0, np.asarray(q0, dtype=float)), h, n_steps)
    diag = np.array([np.diag(lyapunov_triangular_coupling(sample(m * h), Q)[1])[:k]
                     for m, Q in traj.states])
    # The trapezoid over [0, n h] divided by n h; np.trapezoid needs numpy >= 2.
    exponents = (diag[1:] + diag[:-1]).sum(axis=0) / (2 * n_steps)
    return (exponents, traj.final[1]) if return_frame else exponents


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def random_covariance(n, seed, spectrum=None):
    """Random symmetric positive matrix with the given (or decaying) spectrum."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.asarray(spectrum, float) if spectrum is not None \
        else np.linspace(n, 1, n)
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def random_orthonormal(n, k, seed):
    """Random point on St(n, k) from a seeded Gaussian QR."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, k)))
    return Q * np.sign(np.diag(R))
