"""Energy-preserving integrators on Lie groups via discrete differentials.

A first integral H of a right-trivialised field F(x) = R_x* f(x) is
preserved exactly by stepping along

    x' = exp(h * W(x, x') dbar_H(x, x')) . x

where dbar_H is a trivialised discrete differential (a map G x G -> g*
satisfying H(x') - H(x) = <dbar_H, log(x' x^{-1})>) and W is a skew matrix
consistent with the two-form grad H ^ F / |grad H|^2.  Skewness of W makes
the telescoping sum of energy increments vanish identically.

The module works on groups whose algebra coordinates are flat vectors, of
any dimension.  dg_step has one update for every group and both
differentials, and it shares its midpoint and quadrature helpers with
tdd_gonzalez and tdd_avf.  _arithmetic, the one place that looks at the
group, gives them log(x1 x^{-1}), exp(s v) . x and base + k eta: on
4-tuples of floats for QuatOps itself, on arrays for every other group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import CoincidentPoints, CriticalPoint
from .liealg import GroupOps, QuatOps, S3, _quat_exp, _quat_log, _quat_mul, rodrigues_entries
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

    The callbacks take a point as an array, or on S^3 (QuatOps) as a 4-tuple
    of floats.
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
    for i, e in enumerate(np.eye(group.dim)):
        plus = energy(group.mul(group.exp(step * e), x))
        minus = energy(group.mul(group.exp(-step * e), x))
        out[i] = (plus - minus) / (2.0 * step)
    return out


def _differential(system: InvariantSystem, x):
    return trivialized_differential(system.group, system.energy, x,
                                    closed_form=system.energy_differential)


@lru_cache(maxsize=16, typed=True)
def gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights on [0, 1], computed once per n; read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _arithmetic(group, x):
    """(x, rel_log, flow, correct): the group arithmetic about the base point x.

    rel_log(x1) = log(x1 x^{-1}), flow(s, v) = exp(s v) . x and
    correct(base, k, eta) = base + k eta.  On QuatOps itself, points are
    4-tuples and algebra vectors 3-sequences of floats, through liealg's tuple
    bodies; every other group composes its own operations on arrays, for any
    algebra dimension.  Both give the same bits.
    """
    if type(group) is not QuatOps:
        x_inv = group.inv(x)
        return (x, lambda x1: group.log(group.mul(x1, x_inv)),
                lambda s, v: group.mul(group.exp(s * np.asarray(v, dtype=float)), x),
                lambda base, k, eta: base + k * eta)
    x = tuple(np.asarray(x, dtype=float).tolist())
    w, a, b, c = x
    x_inv = (w, -a, -b, -c)

    def rel_log(x1):
        if type(x1) is not tuple:
            x1 = tuple(np.asarray(x1, dtype=float).tolist())
        return _quat_log(_quat_mul(x1, x_inv))

    def flow(s, v):
        s = float(s)  # numpy scales by s as a float64
        v0, v1, v2 = v
        return _quat_mul(_quat_exp((s * v0, s * v1, s * v2)), x)

    def correct(base, k, eta):
        b0, b1, b2 = base.tolist()
        e0, e1, e2 = eta
        return np.array([b0 + k * e0, b1 + k * e1, b2 + k * e2])

    return x, rel_log, flow, correct


def _average(system, eta, flow, quad_nodes):
    """The Gauss-Legendre average of R_l* dH_l over l(s) = flow(s, eta), s in [0, 1]."""
    out = np.zeros(system.group.dim)
    for s, w in zip(*gauss_legendre_01(quad_nodes)):
        out += w * _differential(system, flow(s, eta))
    return out


def tdd_avf(system: InvariantSystem, x, x1, quad_nodes=4):
    """Averaged trivialised differential along the log geodesic.

    Integrates R_l* dH_l over l(s) = exp(s log(x1 x^{-1})) . x with
    Gauss-Legendre quadrature; satisfies the discrete identity up to the
    quadrature error.
    """
    _, rel_log, flow, _ = _arithmetic(system.group, x)
    return _average(system, rel_log(x1), flow, quad_nodes)


def _gonzalez(system, x1, eta, energy_x, flow, correct):
    """(mid, base, dbar) of tdd_gonzalez for eta = log(x1 x^{-1}) and energy_x = H(x).

    mid = flow(0.5, eta) and base = R_mid* dH_mid; energy_x None leaves dbar
    None.  Raises CoincidentPoints where |eta| < 1e-10.
    """
    e = np.asarray(eta, dtype=float)
    eta2 = float(e.dot(e))
    if eta2 < 1e-10 ** 2:
        raise CoincidentPoints("x and x' coincide; eta is numerically zero")
    mid = flow(0.5, eta)
    base = _differential(system, mid)
    if energy_x is None:
        return mid, base, None
    k = (float(system.energy(x1)) - energy_x - float(base.dot(e))) / eta2
    return mid, base, correct(base, k, eta)


def tdd_gonzalez(system: InvariantSystem, x, x1):
    """Midpoint discrete differential; the defining identity holds exactly.

    dbar_H = R_m* dH_m + (H(x1) - H(x) - <R_m* dH_m, eta>) eta / |eta|^2
    with eta = log(x1 x^{-1}) and m the geodesic midpoint exp(eta/2) . x.
    Symmetric in (x, x1) by the midpoint choice.

    Raises:
        CoincidentPoints: when eta vanishes; use trivialized_differential.
    """
    x, rel_log, flow, correct = _arithmetic(system.group, x)
    return _gonzalez(system, x1, rel_log(x1), float(system.energy(x)), flow, correct)[2]


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
    g2 = float(gamma.dot(gamma))
    if g2 < 1e-12 ** 2:
        raise CriticalPoint("gradient vanishes; two-form undefined")
    # The entries of (outer(xi, gamma) - outer(gamma, xi)) / g2, on floats.
    pairs = list(zip(xi.tolist(), gamma.tolist()))
    return np.array([(a * gj - b * xj) / g2 for a, b in pairs
                     for xj, gj in pairs]).reshape(len(pairs), len(pairs))


def dg_step(system: InvariantSystem, x, h, tdd="gonzalez", solver=None):
    """One energy-preserving step x' = exp(h W dbar_H(x, x')) . x.

    W and the Gonzalez base share one differential at the geodesic midpoint
    exp(eta/2) . x, eta = log(x' x^{-1}), which makes the step symmetric;
    tdd="avf" takes dbar from tdd_avf at its 4 nodes.  solver.fixed_point (a
    fresh ImplicitSolver by default) iterates from a Lie-Euler predictor.  The
    energy is conserved to solver tolerance with the Gonzalez differential and
    to quadrature accuracy with the averaged one.  A predictor left NaN by an
    exponent h f(x) whose squared norm overflows raises NonFiniteState.

    The update is the same for every group and both differentials; only its
    group arithmetic, from _arithmetic, runs on floats on S^3.  The dots
    eta . eta and base . eta and the product W dbar stay numpy's on every
    group: its BLAS sums in an order a Python sum does not reproduce (one such
    sum moved the states by 6.4e-14 over 3000 steps).
    """
    if tdd not in ("gonzalez", "avf"):
        raise ValueError(f"unknown discrete differential {tdd!r}")
    x, rel_log, flow, correct = _arithmetic(system.group, x)
    energy_x = float(system.energy(x)) if tdd == "gonzalez" else None
    v = h * np.asarray(system.field(x), float)
    x1 = flow(1.0, v.tolist())
    if not math.isfinite(float(v.dot(v))):  # where the so(3) and s^3 exponentials give NaN
        screen_start(x1, h)

    def update(x1):
        eta = rel_log(x1)
        try:
            mid, base, dbar = _gonzalez(system, x1, eta, energy_x, flow, correct)
        except CoincidentPoints:
            mid = x
            dbar = base = _differential(system, x)
        # W before the quadrature nodes, so the field at mid follows its differential.
        W = two_form_matrix(system, mid, gamma=base)
        if tdd == "avf":
            dbar = _average(system, eta, flow, 4)
        return flow(h, W.dot(dbar).tolist())

    z = (solver or ImplicitSolver()).fixed_point(update, x1, h,
                                                 "energy-preserving step did not converge")
    return np.array(z)


# ---------------------------------------------------------------------------
# Free rigid body in quaternion form
# ---------------------------------------------------------------------------

def _body_frame(q, m0):
    """E(q) as nine row-major floats, and the body momentum E(q)^T m0 as three.

    q is read with one tolist() and m0 is a sequence of three floats; E(q) is
    euler_rodrigues(q) on Python floats, where numpy's fixed cost per call is
    several times that of the few dozen flops.
    """
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    e = rodrigues_entries(x, y, z, 2.0 * w, 2.0)
    e00, e01, e02, e10, e11, e12, e20, e21, e22 = e
    a0, a1, a2 = m0
    return e, (e00 * a0 + e10 * a1 + e20 * a2,
               e01 * a0 + e11 * a1 + e21 * a2,
               e02 * a0 + e12 * a1 + e22 * a2)


def free_rigid_body_quat(inertia, m0) -> InvariantSystem:
    """Attitude equations of a free rigid body on the unit quaternions.

    The field is q' = f(q) . q with f(q) the pure quaternion whose vector
    part is E(q) I^{-1} E(q)^T m0 / 2, and the conserved energy is the
    kinetic energy of the body momentum m(q) = E(q)^T m0.  The three
    callbacks run on Python floats through _body_frame.
    """
    inertia, m0 = np.asarray(inertia, dtype=float), np.asarray(m0, dtype=float)
    # Each test is written to fail on a NaN.
    if inertia.shape != (3,) or not (np.all(inertia > 0.0) and np.isfinite(inertia).all()):
        raise ValueError(f"inertia must be 3 positive finite entries, got {inertia.tolist()}")
    if m0.shape != (3,) or not np.isfinite(m0).all():
        raise ValueError(f"m0 must be 3 finite entries, got {m0.tolist()}")
    j0, j1, j2 = (1.0 / inertia).tolist()
    m0 = m0.tolist()
    n0, n1, n2 = m0
    last = [(object(), None)]  # the last tuple point and its velocity

    def spatial_velocity(q):
        """E(q) I^{-1} E(q)^T m0, as three floats.

        A tuple point is immutable, so the velocity of the last one is kept
        for its next call: dg_step's S^3 update asks for the differential and
        the field at each midpoint.
        """
        point, w = last[0]
        if q is point:
            return w
        (e00, e01, e02, e10, e11, e12, e20, e21, e22), (p0, p1, p2) = _body_frame(q, m0)
        u0, u1, u2 = j0 * p0, j1 * p1, j2 * p2
        w = (e00 * u0 + e01 * u1 + e02 * u2,
             e10 * u0 + e11 * u1 + e12 * u2,
             e20 * u0 + e21 * u1 + e22 * u2)
        if type(q) is tuple:
            last[0] = q, w
        return w

    def field(q):
        w0, w1, w2 = spatial_velocity(q)
        return np.array([0.5 * w0, 0.5 * w1, 0.5 * w2])

    def energy(q):
        p0, p1, p2 = _body_frame(q, m0)[1]
        return 0.5 * (p0 * (j0 * p0) + p1 * (j1 * p1) + p2 * (j2 * p2))

    def energy_differential(q):
        # 2 cross(w, m0)
        w0, w1, w2 = spatial_velocity(q)
        return np.array([2.0 * (w1 * n2 - w2 * n1), 2.0 * (w2 * n0 - w0 * n2),
                         2.0 * (w0 * n1 - w1 * n0)])

    return InvariantSystem(group=S3, energy=energy, field=field,
                           energy_differential=energy_differential)


def body_momentum(q, m0):
    """Momentum in body coordinates, E(q)^T m0; stays on the sphere |m0|."""
    return np.array(_body_frame(q, np.asarray(m0, dtype=float).tolist())[1])
