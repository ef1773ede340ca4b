"""Symplectic integrators on the trivialised cotangent bundle G x| g*.

States are pairs (g, mu).  A Hamiltonian H(g, mu) induces the coefficient
map f = (dH/dmu, -R_g^* dH/dg); the schemes here advance the state through
exponentials on the semidirect product and dual dexp transports of the
momentum, and are symplectic by their variational derivation.  The theta
instances (s = 1) and a Runge-Kutta-Munthe-Kaas theta comparator are
provided, together with the heavy-top benchmark Hamiltonian; cotangent_step
builds the one-step map of either theta scheme for steppers.integrate.  Each
step solves its stage equations with the ImplicitSolver passed as solver, a
fresh Newton solver by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import FixedPointDivergence
from .liealg import SO3, GroupOps, cross3, dexpinv_series, fixed_point, max_abs
from .semidirect import CotangentOps

E3 = np.array([0.0, 0.0, 1.0])


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

    def cotangent(self) -> CotangentOps:
        return CotangentOps(self.group)

    def energy(self, state):
        g, mu = state
        return float(self.hamiltonian(g, mu))

    @property
    def invariants(self):
        return (("energy", self.energy),)


@dataclass(frozen=True)
class StageCoefficients:
    """Coefficients (a, b) of the symplectic family; needs sum(b) = 1, b_i != 0."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if abs(b.sum() - 1.0) > 1e-14:
            raise ValueError("stage weights must sum to 1")
        if np.any(b == 0.0):
            raise ValueError("stage weights must be nonzero")

    @classmethod
    def theta(cls, theta):
        return cls(a=[[float(theta)]], b=[1.0])

    @property
    def stages(self):
        return len(self.b)


class ImplicitSolver:
    """Newton iteration with a reusable finite-difference Jacobian.

    The factorised Jacobian and the last solution are kept between calls, so
    successive steps of a trajectory converge in a couple of iterations.  A
    plain fixed-point mode is available for cross-checking; both converge to
    the same root within tolerance.
    """

    def __init__(self, method="newton", tol=1e-12, max_iter=200):
        if method not in ("newton", "fixed_point"):
            raise ValueError(f"unknown solver method {method!r}")
        self.method = method
        self.tol = tol
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
        z0 = np.asarray(z0, dtype=float)
        z = self._z if (self._z is not None and len(self._z) == len(z0)) else z0
        z = z.copy()
        if self.method == "fixed_point":
            self._z = fixed_point(lambda z: z - residual(z), z, self.tol, self.max_iter,
                                  h, "fixed-point iteration did not converge")
            return self._z

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
            if norm < self.tol:
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


# ---------------------------------------------------------------------------
# The symplectic family and its theta specialisation
# ---------------------------------------------------------------------------

def symplectic_step(coeffs: StageCoefficients, system: HamiltonianSystem, state, h,
                    solver=None):
    """One step of the s-stage symplectic family.

    Solves the coupled stage system

        (xi_i, nbar_i) = h f(G_i, M_i),      n_i = coAd(exp(X_i), nbar_i),
        X_i = sum_j a_ij xi_j,               Y = sum_i b_i xi_i,
        G_i = exp(X_i) . g0,
        M_i = dd(-Y) mu0 + sum_j (b_j dd(-Y) - (b_j a_ji / b_i) dd(-X_j)) n_j,

    with dd(s) the dual dexp transport, then updates through the semidirect
    exponential of (Y, dual-dexpinv_Y sum_i b_i n_i).
    """
    group = system.group
    ct = system.cotangent()
    d = group.dim
    s = coeffs.stages
    a, b = coeffs.a, coeffs.b
    g0, mu0 = state
    f = system.force_map

    def unpack(z):
        xi = [z[2 * d * i: 2 * d * i + d] for i in range(s)]
        nbar = [z[2 * d * i + d: 2 * d * (i + 1)] for i in range(s)]
        return xi, nbar

    def transported(xi, nbar):
        X = [sum(a[i, j] * xi[j] for j in range(s)) for i in range(s)]
        Y = sum(b[i] * xi[i] for i in range(s))
        n = [group.coAd(group.exp(X[i]), nbar[i]) for i in range(s)]
        return X, Y, n

    def residual(z):
        xi, nbar = unpack(z)
        X, Y, n = transported(xi, nbar)
        mu_base = group.dual_dexp(-Y, mu0)
        trans_Y = [group.dual_dexp(-Y, n[j]) for j in range(s)]
        trans_X = [group.dual_dexp(-X[j], n[j]) for j in range(s)]
        out = np.empty(2 * d * s)
        for i in range(s):
            M = mu_base + sum(
                b[j] * trans_Y[j] - (b[j] * a[j, i] / b[i]) * trans_X[j]
                for j in range(s))
            G = group.mul(group.exp(X[i]), g0)
            f1, f2 = f(G, M)
            out[2 * d * i: 2 * d * i + d] = xi[i] - h * np.asarray(f1, float)
            out[2 * d * i + d: 2 * d * (i + 1)] = nbar[i] - h * np.asarray(f2, float)
        return out

    f1, f2 = f(g0, mu0)
    z0 = np.tile(np.concatenate([h * np.asarray(f1, float),
                                 h * np.asarray(f2, float)]), s)
    solver = solver or ImplicitSolver()
    z = solver.solve(residual, z0, h=h)

    xi, nbar = unpack(z)
    X, Y, n = transported(xi, nbar)
    n_sum = sum(b[i] * n[i] for i in range(s))
    update = ct.exp(ct.join(Y, group.dual_dexpinv(Y, n_sum)))
    return ct.mul(update, state)


def theta_step(theta, system: HamiltonianSystem, state, h, solver=None):
    """The s = 1 member with a_11 = theta, written in its simplified form.

    Solves (xi, nbar) = h f(exp(theta xi) . g0,
                            dd(-xi) mu0 + (1-theta) dd(-(1-theta) xi) nbar)
    and updates by (exp(xi), coAd(exp(-(1-theta) xi), nbar)) . (g0, mu0).
    """
    group = system.group
    ct = system.cotangent()
    d = group.dim
    g0, mu0 = state
    f = system.force_map
    c = 1.0 - theta

    def residual(z):
        xi, nbar = z[:d], z[d:]
        G = group.mul(group.exp(theta * xi), g0)
        M = group.dual_dexp(-xi, mu0) + c * group.dual_dexp(-c * xi, nbar)
        # z - h (f1, f2) is (xi - h f1, nbar - h f2), entry by entry.
        return z - h * np.concatenate(f(G, M), dtype=float)

    z0 = h * np.concatenate(f(g0, mu0), dtype=float)
    solver = solver or ImplicitSolver()
    z = solver.solve(residual, z0, h=h)

    xi, nbar = z[:d], z[d:]
    update = (group.exp(xi), group.coAd(group.exp(-c * xi), nbar))
    return ct.mul(update, state)


# Truncation order of the RKMK theta stage's dexpinv series.
RKMK_THETA_SERIES_ORDER = 2


def rkmk_theta_step(theta, system: HamiltonianSystem, state, h, solver=None):
    """Runge-Kutta-Munthe-Kaas theta method on the semidirect group.

    The stage lives in the semidirect algebra, k = dexpinv_{h theta k}
    (f(exp(h theta k) . y0)) with the dexpinv series truncated at
    RKMK_THETA_SERIES_ORDER, and the update is exp(h k) . y0.  Not
    symplectic; serves as the comparator.
    """
    ct = system.cotangent()
    f = system.force_map

    def f_joined(y):
        g, mu = y
        f1, f2 = f(g, mu)
        return ct.join(f1, f2)

    if theta == 0.0:
        k = f_joined(state)
    else:
        h_theta = h * theta

        def residual(k):
            u = h_theta * k
            val = f_joined(ct.mul(ct.exp(u), state))
            return k - dexpinv_series(ct, u, val, RKMK_THETA_SERIES_ORDER)

        solver = solver or ImplicitSolver()
        k = solver.solve(residual, f_joined(state), h=h)
    return ct.mul(ct.exp(h * k), state)


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

    gravity scales the potential; 0 gives the free top.
    """

    inertia: np.ndarray
    mu0: np.ndarray
    u0: np.ndarray = field(default_factory=lambda: E3.copy())
    g0: np.ndarray = field(default_factory=lambda: np.eye(3))
    gravity: float = 1.0

    def __post_init__(self):
        inertia = np.asarray(self.inertia, dtype=float)
        u0 = np.asarray(self.u0, dtype=float)
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=float))
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "g0", np.asarray(self.g0, dtype=float))
        if np.any(inertia <= 0.0):
            raise ValueError("inertia entries must be positive")
        if abs(np.linalg.norm(u0) - 1.0) > 1e-12:
            raise ValueError("u0 must be a unit vector")

    @classmethod
    def benchmark(cls, gravity=1.0):
        """The standard configuration: inertia 1e3*diag(1,5,6), mu0 = 10*I*(1,1,1)."""
        inertia = 1e3 * np.array([1.0, 5.0, 6.0])
        return cls(inertia=inertia, mu0=10.0 * inertia * np.ones(3), gravity=gravity)

    @property
    def state0(self):
        return self.g0.copy(), self.mu0.copy()


def heavy_top(params: HeavyTopParams) -> HamiltonianSystem:
    """H(g, mu) = 1/2 <mu, I^{-1} mu> + gravity * e3 . (g u0) on SO(3) x so(3)*."""
    inv_inertia = 1.0 / params.inertia
    u0 = params.u0
    gravity = params.gravity

    def hamiltonian(g, mu):
        return 0.5 * float(mu @ (inv_inertia * mu)) + gravity * float(E3 @ (g @ u0))

    def force_map(g, mu):
        return inv_inertia * mu, gravity * cross3(E3, g @ u0)

    return HamiltonianSystem(group=SO3, hamiltonian=hamiltonian, force_map=force_map)
