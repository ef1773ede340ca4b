"""Symplectic integrators on the trivialised cotangent bundle G x| g*.

States are pairs (g, mu).  A Hamiltonian H(g, mu) induces the coefficient
map f = (dH/dmu, -R_g^* dH/dg).  symplectic_step is the one implementation of
the s-stage symplectic family, for any steppers.ButcherTableau (a, b) with
every b_i != 0: exponentials of the stage variables and dual dexp transports
of the momentum, symplectic by its variational derivation.  Each residual
takes its stages from one group.symplectic_stages call (a float kernel on
SO(3) for s = 1).  theta_step names the s = 1 member, the tableau
ButcherTableau.theta(theta) = [[theta]], [1].  Its comparator, the
Runge-Kutta-Munthe-Kaas theta method, is steppers.rkmk_step with that same
tableau on G x| g* acting on itself; this module only builds that problem.
Also here: the heavy-top Hamiltonian, and cotangent_step, the one-step map
of either theta scheme for steppers.integrate.  Each step solves its stage
equations with the ImplicitSolver passed as solver, a fresh one by default:
the package's one implicit solver, whose Newton solve also serves
rkmk_step's implicit tableaus and whose fixed_point serves
discrete_gradient.dg_step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .actions import FrozenFieldProblem, LeftMultiplicationAction
from .errors import FixedPointDivergence
from .liealg import SO3, GroupOps, max_abs, max_abs_diff, weighted_sum
from .semidirect import CotangentOps
from .steppers import ButcherTableau, rkmk_step, screen_start

E3 = np.array([0.0, 0.0, 1.0])

# The max-norm residual (Newton) or move (fixed point) at which ImplicitSolver stops.
SOLVER_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian on G x g* presented through its trivialised data.

    force_map returns the pair (dH/dmu, -R_g^* dH/dg); the second component
    can be checked against central differences of the Hamiltonian along
    left-translated curves (see tests).
    """

    group: GroupOps
    hamiltonian: Callable
    force_map: Callable

    def energy(self, state):
        g, mu = state
        return float(self.hamiltonian(g, mu))

    @property
    def invariants(self):
        return (("energy", self.energy),)

    @cached_property
    def cotangent_problem(self):
        """The system on G x| g* acting on itself, coefficient map (dH/dmu, -R_g^* dH/dg)."""
        ct, force_map = CotangentOps(self.group), self.force_map
        return FrozenFieldProblem(action=LeftMultiplicationAction(ct, "cotangent_left"),
                                  coefficient_map=lambda y: ct.join(*force_map(*y)),
                                  invariants=self.invariants)


class ImplicitSolver:
    """Newton iteration with a reusable finite-difference Jacobian, and a plain
    fixed-point iteration, both to SOLVER_TOL within max_iter moves.

    solve (Newton) keeps the factorised Jacobian and the last solution between
    calls, so successive steps of a trajectory converge in a couple of
    iterations.  fixed_point iterates an update map with no warm start.
    """

    def __init__(self, max_iter=200):
        self.max_iter = max_iter
        self._lu = None
        self._z = None

    def _jacobian(self, residual, z, r, h, norm):
        n = len(z)
        J = np.empty((n, n))
        for j, zj in enumerate(z.tolist()):
            d = 1e-7 * max(1.0, abs(zj))
            zp = z.copy()
            zp[j] = zj + d
            J[:, j] = (residual(zp) - r) / d
        # One screen per build stands in for scipy's finiteness checks on
        # every factorisation and solve: r is finite whenever it is solved for.
        if not np.isfinite(J).all():
            raise FixedPointDivergence(
                "finite-difference Jacobian is not finite", h=h, residual=norm)
        self._lu = lu_factor(J, check_finite=False)

    def solve(self, residual, z0, h=None):
        """Newton on residual(z) = 0, warm-started from the last solution."""
        z0 = np.asarray(z0, dtype=float)
        # Restarts go back to z0: a start that is not finite is an overflow, not a divergence.
        screen_start(z0, h)
        z = (self._z if (self._z is not None and len(self._z) == len(z0)) else z0).copy()
        r = residual(z)
        norm_prev = math.inf
        rebuilds = 0
        for _ in range(self.max_iter):
            norm = max_abs(r.tolist())
            if not math.isfinite(norm):
                # A stale Jacobian sent the iterate astray; restart clean.
                z = z0.copy()
                r = residual(z)
                norm = max_abs(r.tolist())
                self._lu = None
            if norm < SOLVER_TOL:
                self._z = z
                return z
            if self._lu is None or (norm > 0.25 * norm_prev and rebuilds < 3):
                self._jacobian(residual, z, r, h, norm)
                rebuilds += 1
                norm_prev = math.inf  # judge progress against the fresh Jacobian
            else:
                norm_prev = norm
            z = z - lu_solve(self._lu, r, check_finite=False)
            r = residual(z)
        raise FixedPointDivergence(
            "Newton iteration did not converge", h=h, residual=max_abs(r.tolist()))

    # dg steps iterate here, not in solve, whose calls feed the traced per-solve counts.
    def fixed_point(self, update, z0, h, what):
        """Iterate z <- update(z) until one move is below SOLVER_TOL in the max norm.

        Returns the last iterate.  Otherwise, after max_iter moves, raises
        FixedPointDivergence with the message what, the step size h and the
        last move as its residual (inf when max_iter allows no move); a NaN
        move never reads as converged.
        """
        z, delta = z0, math.inf
        for _ in range(self.max_iter):
            new = update(z)
            delta = max_abs_diff(new, z)
            z = new
            if delta < SOLVER_TOL:
                return z
        raise FixedPointDivergence(what, h=h, residual=delta)


# ---------------------------------------------------------------------------
# The symplectic family
# ---------------------------------------------------------------------------

def symplectic_step(tableau: ButcherTableau, system: HamiltonianSystem, state, h,
                    solver=None):
    """One step of the s-stage symplectic family of a tableau (a, b) with every b_i != 0.

    Solves the stage system of group.symplectic_stages,

        (xi_i, nbar_i) = h f(G_i, M_i),     i = 1..s,

    for z = (xi_1, nbar_1, ..., xi_s, nbar_s), then updates by
    (exp Y, coAd(exp(-Y), mu0 + sum_i b_i n_i)) . (g0, mu0) with
    Y = sum_i b_i xi_i.  The update takes the momentum sum from the last
    residual evaluation when the solver returns that iterate, as Newton does,
    and recomputes it otherwise.  A zero weight raises ValueError before
    anything is evaluated.  Measured orders: 1 at theta = 0, 2 at
    theta = 1/2 and 2 for the two-stage Gauss tableau (classical 4; 4 on an
    abelian group, where the family is Gauss-Legendre).
    """
    group, f = system.group, system.force_map
    d, s = group.dim, tableau.stages
    b = tableau.b.tolist()
    if 0.0 in b:
        raise ValueError(f"the symplectic family needs every stage weight nonzero, got b = {b}")
    g0, mu0 = state
    last = {}  # the bytes of the last residual's iterate, and its momentum sum

    def residual(z):
        pairs, mu = group.symplectic_stages(tableau, z, g0, mu0)
        last["z"], last["mu"] = z.tobytes(), mu
        forces = []
        for G, M in pairs:
            forces += f(G, M)
        # z - h (f1, f2, ...) is (xi_i - h f1_i, nbar_i - h f2_i), block by block.
        return z - h * np.concatenate(forces, dtype=float)

    z0 = h * np.concatenate([*f(g0, mu0)] * s, dtype=float)
    solver = solver or ImplicitSolver()
    z = solver.solve(residual, z0, h=h)
    if last.get("z") != z.tobytes():
        last["mu"] = group.symplectic_stages(tableau, z, g0, mu0)[1]
    # (exp Y, coAd(exp(-Y), sum_i b_i n_i)) . (g0, mu0), with the coAd taken once.
    E = group.exp(weighted_sum([(slice(2 * d * j, 2 * d * j + d), w)
                                for j, w in tableau.b_terms], z))
    return group.mul(E, g0), group.coAd(group.inv(E), last["mu"])


def theta_step(theta, system: HamiltonianSystem, state, h, solver=None):
    """The s = 1 member of the family, a_11 = theta."""
    return symplectic_step(ButcherTableau.theta(theta), system, state, h, solver)


# Truncation order of the RKMK theta stage's dexpinv series.
RKMK_THETA_SERIES_ORDER = 2


def rkmk_theta_step(theta, system: HamiltonianSystem, state, h, solver=None):
    """Runge-Kutta-Munthe-Kaas theta method on the semidirect group.

    steppers.rkmk_step with the tableau [[theta]], [1] on the system's
    cotangent_problem: the stage k = dexpinv_{h theta k}(f(exp(h theta k) . y0)),
    with the dexpinv series truncated at RKMK_THETA_SERIES_ORDER, and the
    update exp(h k) . y0.  Not symplectic; serves as the comparator.  A fresh
    ImplicitSolver is built only for an implicit tableau (theta != 0).
    """
    tableau = ButcherTableau.theta(theta)
    if solver is None and not tableau.explicit:
        solver = ImplicitSolver()
    return rkmk_step(system.cotangent_problem, state, h, tableau=tableau,
                     series_order=RKMK_THETA_SERIES_ORDER, solver=solver)


def cotangent_step(system: HamiltonianSystem, scheme, theta=0.5):
    """The one-step map step(state, h) of "symplectic_theta" or "rkmk_theta".

    The map owns one solver, shared by all of its steps, so Newton reuses its
    Jacobian and warm start along a run: build one map per run.
    """
    steps = {"symplectic_theta": theta_step, "rkmk_theta": rkmk_theta_step}
    if scheme not in steps:
        raise ValueError(f"unknown cotangent scheme {scheme!r}; choose from {sorted(steps)}")
    return partial(steps[scheme], theta, system, solver=ImplicitSolver())


# ---------------------------------------------------------------------------
# Heavy top
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeavyTopParams:
    """Spinning rigid body with a fixed point in a constant vertical field.

    gravity scales the potential; 0 gives the free top.  g0 must be a rotation:
    |g0^T g0 - I| <= 1e-12 entrywise and det g0 > 0.
    """

    inertia: np.ndarray
    mu0: np.ndarray
    u0: np.ndarray = field(default_factory=lambda: E3.copy())
    g0: np.ndarray = field(default_factory=lambda: np.eye(3))
    gravity: float = 1.0

    def __post_init__(self):
        for name, shape in (("inertia", (3,)), ("mu0", (3,)), ("u0", (3,)), ("g0", (3, 3))):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            object.__setattr__(self, name, value)
        # Each test is written to fail on a NaN.
        if not (np.all(self.inertia > 0.0) and np.isfinite(self.inertia).all()):
            raise ValueError("inertia entries must be positive and finite, "
                             f"got {self.inertia.tolist()}")
        if not abs(np.linalg.norm(self.u0) - 1.0) <= 1e-12:
            raise ValueError("u0 must be a unit vector")
        for name in ("mu0", "g0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        g0 = self.g0
        if not (np.max(np.abs(g0.T @ g0 - np.eye(3))) <= 1e-12 and np.linalg.det(g0) > 0.0):
            raise ValueError(f"g0 must be a rotation (g0^T g0 = I to 1e-12, det g0 = +1), "
                             f"got {g0.tolist()}")
        if not math.isfinite(self.gravity):  # 0 is the free top
            raise ValueError(f"gravity must be finite, got {self.gravity!r}")

    @classmethod
    def benchmark(cls):
        """The standard configuration: inertia 1e3*diag(1,5,6), mu0 = 10*I*(1,1,1)."""
        inertia = 1e3 * np.array([1.0, 5.0, 6.0])
        return cls(inertia=inertia, mu0=10.0 * inertia * np.ones(3))

    @property
    def state0(self):
        return self.g0.copy(), self.mu0.copy()


def heavy_top(params: HeavyTopParams) -> HamiltonianSystem:
    """H(g, mu) = 1/2 <mu, I^{-1} mu> + gravity * e3 . (g u0) on SO(3) x so(3)*."""
    inv_inertia = 1.0 / params.inertia
    gravity, u0 = params.gravity, params.u0
    i0, i1, i2 = inv_inertia.tolist()
    w0, w1, w2 = (gravity * u0).tolist()  # the force scales u0 once, not every result

    def hamiltonian(g, mu):
        return 0.5 * float(mu @ (inv_inertia * mu)) + gravity * float(E3 @ (g @ u0))

    def force_map(g, mu):
        """(I^-1 mu, e3 x v) with v = g (gravity u0), on Python floats.

        e3 x v keeps cross3's terms, zero products included, so a NaN or an
        infinity in v spreads as it does there.
        """
        m0, m1, m2 = np.asarray(mu, dtype=float).tolist()
        (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = np.asarray(g, dtype=float).tolist()
        v0 = g00 * w0 + g01 * w1 + g02 * w2
        v1 = g10 * w0 + g11 * w1 + g12 * w2
        v2 = g20 * w0 + g21 * w1 + g22 * w2
        return (np.array([i0 * m0, i1 * m1, i2 * m2]),
                np.array([0.0 * v2 - v1, v0 - 0.0 * v2, 0.0 * v1 - 0.0 * v0]))

    return HamiltonianSystem(group=SO3, hamiltonian=hamiltonian, force_map=force_map)
