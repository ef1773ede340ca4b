"""Energy-preserving integrators on Lie groups via discrete differentials.

A first integral H of a right-trivialised field F(x) = R_x* f(x) is
preserved exactly by stepping along

    x' = exp(h * W(x, x') dbar_H(x, x')) . x

where dbar_H is a trivialised discrete differential (a map G x G -> g*
satisfying H(x') - H(x) = <dbar_H, log(x' x^{-1})>) and W is a skew matrix
consistent with the two-form grad H ^ F / |grad H|^2.  Skewness of W makes
the telescoping sum of energy increments vanish identically.

The module works on groups whose algebra coordinates are flat vectors
(SO(3) and the unit quaternions here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CoincidentPoints, CriticalPoint
from .liealg import GroupOps, S3, cross3, euler_rodrigues
from .steppers import screen_start
from .symplectic import ImplicitSolver

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class InvariantSystem:
    """A vector field on a Lie group together with a conserved quantity.

    Attributes:
        group: group operations; algebra elements must be flat vectors.
        energy: the first integral H.
        field: right-trivialised field, x' = R_x* field(x).
        energy_differential: optional closed form of the trivialised
            differential R_x* dH_x; finite differences are used otherwise.
    """

    group: GroupOps
    energy: Callable
    field: Callable
    energy_differential: Optional[Callable] = None


def trivialized_differential(group: GroupOps, energy: Callable, x,
                             closed_form: Optional[Callable] = None):
    """R_x^* dH_x in dual coordinates.

    Uses the supplied closed form when given, otherwise scale-aware central
    differences of H along left-translated one-parameter curves.
    """
    if closed_form is not None:
        return np.asarray(closed_form(x), dtype=float)
    h0 = float(energy(x))
    step = (3.0 * _EPS * max(1.0, abs(h0))) ** (1.0 / 3.0)
    out = np.empty(group.dim)
    for i, e in enumerate(group.basis()):
        plus = energy(group.mul(group.exp(step * e), x))
        minus = energy(group.mul(group.exp(-step * e), x))
        out[i] = (plus - minus) / (2.0 * step)
    return out


def _differential(system: InvariantSystem, x):
    return trivialized_differential(system.group, system.energy, x,
                                    closed_form=system.energy_differential)


def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def tdd_avf(system: InvariantSystem, x, x1, quad_nodes=4):
    """Averaged trivialised differential along the log geodesic.

    Integrates R_l* dH_l over l(s) = exp(s log(x1 x^{-1})) . x with
    Gauss-Legendre quadrature; satisfies the discrete identity up to the
    quadrature error.
    """
    group = system.group
    eta = group.log(group.mul(x1, group.inv(x)))
    nodes, weights = gauss_legendre_01(quad_nodes)
    out = np.zeros(group.dim)
    for s, w in zip(nodes, weights):
        point = group.mul(group.exp(s * eta), x)
        out += w * _differential(system, point)
    return out


def _gonzalez_correct(system, energy_x, x1, eta, eta2, base):
    """Close the discrete identity by a correction along eta.

    energy_x is H(x) and eta2 is eta . eta, both as floats.
    """
    gap = float(system.energy(x1)) - energy_x - float(base @ eta)
    return base + (gap / eta2) * eta


def tdd_gonzalez(system: InvariantSystem, x, x1):
    """Midpoint discrete differential; the defining identity holds exactly.

    dbar_H = R_m* dH_m + (H(x1) - H(x) - <R_m* dH_m, eta>) eta / |eta|^2
    with eta = log(x1 x^{-1}) and m the geodesic midpoint exp(eta/2) . x.
    Symmetric in (x, x1) by the midpoint choice.

    Raises:
        CoincidentPoints: when eta vanishes; use trivialized_differential.
    """
    group = system.group
    eta = group.log(group.mul(x1, group.inv(x)))
    eta2 = float(eta @ eta)
    if eta2 < 1e-10 ** 2:
        raise CoincidentPoints("x and x' coincide; eta is numerically zero")
    mid = group.mul(group.exp(0.5 * eta), x)
    base = _differential(system, mid)
    return _gonzalez_correct(system, float(system.energy(x)), x1, eta, eta2, base)


def two_form_matrix(system: InvariantSystem, x, gamma=None):
    """Skew matrix W with W @ dbar recovering the field: W = (xi g^T - g xi^T)/|g|^2.

    xi is the trivialised field and g the trivialised gradient at x; applying
    W to the trivialised differential gives back xi because <g, xi> = 0.

    Raises:
        CriticalPoint: when the gradient norm falls below 1e-12.
    """
    xi = np.asarray(system.field(x), dtype=float)
    if gamma is None:
        gamma = _differential(system, x)
    g2 = float(gamma @ gamma)
    if g2 < 1e-12 ** 2:
        raise CriticalPoint("gradient vanishes; two-form undefined")
    # The entries of (outer(xi, gamma) - outer(gamma, xi)) / g2, on floats.
    xs, gs = xi.tolist(), gamma.tolist()
    return np.array([(a * gj - b * xj) / g2 for a, b in zip(xs, gs)
                     for xj, gj in zip(xs, gs)]).reshape(len(xs), len(xs))


def dg_step(system: InvariantSystem, x, h, tdd="gonzalez", midpoint_form=True,
            quad_nodes=4, solver=None):
    """One energy-preserving step x' = exp(h W dbar_H(x, x')) . x.

    The implicit relation is iterated by solver.fixed_point (a fresh
    ImplicitSolver by default) from a Lie-Euler predictor.  With the Gonzalez
    differential the energy is conserved to solver tolerance; with the
    averaged one, to quadrature accuracy.  midpoint_form evaluates W at the
    geodesic midpoint, which makes the step symmetric.  A predictor left NaN by
    an exponent h f(x) whose squared norm overflows raises NonFiniteState.
    """
    if tdd not in ("gonzalez", "avf"):
        raise ValueError(f"unknown discrete differential {tdd!r}")
    group = system.group
    x_inv = group.inv(x)
    energy_x = float(system.energy(x)) if tdd == "gonzalez" else None

    def update(x1):
        eta = group.log(group.mul(x1, x_inv))
        eta2 = float(eta @ eta)
        coincident = eta2 < 1e-10 ** 2
        mid = x if coincident else group.mul(group.exp(0.5 * eta), x)
        w_point = mid if midpoint_form else x
        # One midpoint differential serves both the Gonzalez closure and,
        # in midpoint form, the gradient slot of the two-form.
        base = _differential(system, mid) if (tdd == "gonzalez" or midpoint_form) \
            else None
        if tdd == "avf":
            dbar = tdd_avf(system, x, x1, quad_nodes)
        elif coincident:
            dbar = base
        else:
            dbar = _gonzalez_correct(system, energy_x, x1, eta, eta2, base)
        gamma = base if midpoint_form else None
        W = two_form_matrix(system, w_point, gamma=gamma)
        return group.mul(group.exp(h * (W @ dbar)), x)

    v = h * np.asarray(system.field(x), float)
    x1 = group.mul(group.exp(v), x)
    if not math.isfinite(float(v @ v)):  # where the so(3) and s^3 exponentials give NaN
        screen_start(x1, h)
    return (solver or ImplicitSolver()).fixed_point(update, x1, h,
                                                    "energy-preserving step did not converge")


# ---------------------------------------------------------------------------
# Free rigid body in quaternion form
# ---------------------------------------------------------------------------

def free_rigid_body_quat(inertia, m0) -> InvariantSystem:
    """Attitude equations of a free rigid body on the unit quaternions.

    The field is q' = f(q) . q with f(q) the pure quaternion whose vector
    part is E(q) I^{-1} E(q)^T m0 / 2, and the conserved energy is the
    kinetic energy of the body momentum m(q) = E(q)^T m0.
    """
    inertia = np.asarray(inertia, dtype=float)
    if np.any(inertia <= 0.0):
        raise ValueError("inertia entries must be positive")
    inv_inertia = 1.0 / inertia
    m0 = np.asarray(m0, dtype=float)

    def spatial_velocity(q):
        E = euler_rodrigues(q)
        return E @ (inv_inertia * (E.T @ m0))

    def field(q):
        return 0.5 * spatial_velocity(q)

    def energy(q):
        E = euler_rodrigues(q)
        m = E.T @ m0
        return 0.5 * float(m @ (inv_inertia * m))

    def energy_differential(q):
        return 2.0 * cross3(spatial_velocity(q), m0)

    return InvariantSystem(group=S3, energy=energy, field=field,
                           energy_differential=energy_differential)


def body_momentum(q, m0):
    """Momentum in body coordinates, E(q)^T m0; stays on the sphere |m0|."""
    return euler_rodrigues(q).T @ np.asarray(m0, dtype=float)
