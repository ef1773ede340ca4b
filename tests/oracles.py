"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (truncated series, classical
Runge-Kutta at tiny steps, closed-form flows) and shares no code path with
the package, except theta_step_reference, theta_step_stage_form and
rkmk_theta_step_reference: second forms of the symplectic and RKMK theta
steps, which take their group operations and Newton solver from the package
so that only the form of the stage equations differs (theta_step_stage_form
keeps the package's form and differs only in evaluating exp(theta xi) at
theta = 0 too).  write_csv_rows is the one-row-at-a-time form of the
CLI's CSV writer.  FixedPointSolver solves a residual by the package solver's
fixed-point loop instead of its Newton iteration.  frb_quat_matvec_forms and
quat_log_matvec are the numpy mat-vec forms of the quaternion rigid body's
callbacks (on the package's euler_rodrigues) and of the quaternion log, which
the package computes on Python floats.  Ad is group conjugation on the
package's group bundles, and semidirect_Ad its lift to G x| g*, composed from
the base group's coad, coAd and inv.
"""

import math
from types import SimpleNamespace

import numpy as np

from ligi.liealg import MatrixOps, QuatOps, So3Ops, dexpinv_series, euler_rodrigues
from ligi.semidirect import CotangentOps
from ligi.symplectic import RKMK_THETA_SERIES_ORDER, ImplicitSolver


def taylor_expm(A, terms=30):
    """Matrix exponential by scaling-and-squaring of a truncated Taylor sum."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = np.linalg.norm(A)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 3)
    B = A / (2.0 ** squarings)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def taylor_expm_stack(As, terms=30, squarings=10):
    """Vectorised Taylor exponential for a stack of small matrices."""
    As = np.asarray(As, dtype=float)
    n = As.shape[-1]
    B = As / (2.0 ** squarings)
    out = np.broadcast_to(np.eye(n), As.shape).copy()
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def axis_rotation(axis, angle):
    """Closed-form rotation about a coordinate axis."""
    c, s = np.cos(angle), np.sin(angle)
    if axis == 0:
        return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    if axis == 1:
        return np.array([[c, 0, s], [0, 1.0, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def classical_rk_step(f, y, h, a, b):
    """One step of a classical (explicit or implicit) Runge-Kutta method."""
    a = np.atleast_2d(np.asarray(a, float))
    b = np.asarray(b, float)
    s = len(b)
    ks = []
    for i in range(s):
        yi = y + h * sum(a[i, j] * ks[j] for j in range(len(ks)) if a[i, j] != 0.0)
        ks.append(np.asarray(f(yi), float))
    return y + h * sum(b[i] * ks[i] for i in range(s))


def rk4_solve(f, y0, T, n_steps):
    """Classical RK4 on a flat vector ODE; brute-force reference flow."""
    y = np.asarray(y0, dtype=float)
    h = T / n_steps
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def duffing_sl2_frozen_flow(a, b, p0, t):
    """Exact flow of the oscillator frozen at p0: frequency sqrt(a + b x0^2)."""
    x0, y0 = p0
    w = np.sqrt(a + b * x0 ** 2)
    return np.array([
        x0 * np.cos(w * t) + y0 / w * np.sin(w * t),
        y0 * np.cos(w * t) - w * x0 * np.sin(w * t),
    ])


def duffing_se2_frozen_flow(a, b, p0, t):
    """Exact flow of the rotation-translation freeze: alpha = sqrt(a)."""
    x0, y0 = p0
    al = np.sqrt(a)
    forcing = b * x0 ** 3
    return np.array([
        x0 * np.cos(al * t) + y0 / al * np.sin(al * t)
        + forcing * (np.cos(al * t) - 1.0) / al ** 2,
        y0 * np.cos(al * t) - al * x0 * np.sin(al * t)
        - forcing * np.sin(al * t) / al,
    ])


def central_difference(fn, x, direction, scale=1.0):
    """Scale-aware central difference of a scalar function along a direction."""
    step = (3.0 * np.finfo(float).eps * max(1.0, abs(scale))) ** (1.0 / 3.0)
    return (fn(x + step * direction) - fn(x - step * direction)) / (2.0 * step)


def fit_slope(h_values, errors, floor=1e-13):
    """Least-squares order estimate, ignoring values at the round-off floor."""
    h_values = np.asarray(h_values, float)
    errors = np.asarray(errors, float)
    keep = errors > floor
    if keep.sum() < 2:
        raise ValueError("not enough error values above the round-off floor")
    return float(np.polyfit(np.log(h_values[keep]), np.log(errors[keep]), 1)[0])


def random_rotation(rng, max_angle=2.5):
    """Haar-ish random rotation with angle bounded away from pi."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def state_distance(a, b):
    """Scale-aware distance between two (g, mu) states.

    The momentum difference is measured relative to its magnitude so the
    metric stays meaningful when ||mu|| is large.
    """
    g1, mu1 = a
    g2, mu2 = b
    scale = max(1.0, float(np.linalg.norm(mu1)))
    return float(
        np.linalg.norm(np.asarray(g1) - np.asarray(g2))
        + np.linalg.norm(mu1 - mu2) / scale
    )


class FixedPointSolver:
    """Solves residual(z) = 0 by iterating z <- z - residual(z), as a
    stand-in for the Newton solver of the symplectic steps."""

    def __init__(self, max_iter):
        self.solver = ImplicitSolver(max_iter=max_iter)

    def solve(self, residual, z0, h=None):
        return self.solver.fixed_point(lambda z: z - residual(z), np.asarray(z0, float), h,
                                       "fixed-point iteration did not converge")


def theta_step_reference(theta, system, state, h):
    """The s = 1 symplectic step in its hand-simplified form.

    With X = theta xi and Y = xi collinear, the momentum argument of the
    stage equation collapses to two dual dexp transports:

        (xi, nbar) = h f(exp(theta xi) . g0,
                         dd(-xi) mu0 + (1-theta) dd(-(1-theta) xi) nbar),

    and the update is (exp(xi), coAd(exp(-(1-theta) xi), nbar)) . (g0, mu0).
    Solved with a fresh Newton solver from the explicit Euler start, as the
    package's step is.
    """
    group = system.group
    d = group.dim
    g0, mu0 = state
    f = system.force_map
    c = 1.0 - theta

    def residual(z):
        xi, nbar = z[:d], z[d:]
        G = group.mul(group.exp(theta * xi), g0)
        M = group.dual_dexp(-xi, mu0) + c * group.dual_dexp(-c * xi, nbar)
        return z - h * np.concatenate(f(G, M), dtype=float)

    z = ImplicitSolver().solve(residual, h * np.concatenate(f(g0, mu0), dtype=float), h=h)
    xi, nbar = z[:d], z[d:]
    E = group.exp(xi)
    return (group.mul(E, g0),
            group.coAd(group.exp(-c * xi), nbar) + group.coAd(group.inv(E), mu0))


def theta_step_stage_form(theta, system, state, h):
    """The s = 1 symplectic step in the package's stage form, exp(theta xi) at every theta.

    The same floating-point operations as symplectic_step on the tableau
    [[theta]], [1]; at theta = 0 this form still evaluates exp(0), coAd(exp(0),
    nbar) and exp(0) . g0, which the package's all-zero row skips.  Solved with
    a fresh Newton solver from the explicit Euler start.
    """
    group = system.group
    d = group.dim
    g0, mu0 = state
    f = system.force_map

    def stage(z):
        xi, nbar = z[:d], z[d:]
        E = group.exp(theta * xi)
        return xi, nbar, E, mu0 + group.coAd(E, nbar)

    def residual(z):
        xi, nbar, E, mu = stage(z)
        M = group.dual_dexp(-xi, mu)
        if theta != 0.0:
            M = M + -theta * group.dual_dexp(theta * xi, nbar)
        return z - h * np.concatenate(f(group.mul(E, g0), M), dtype=float)

    z = ImplicitSolver().solve(residual, h * np.concatenate(f(g0, mu0), dtype=float), h=h)
    xi, _, _, mu = stage(z)
    E = group.exp(xi)
    return group.mul(E, g0), group.coAd(group.inv(E), mu)


def rkmk_theta_step_reference(theta, system, state, h):
    """The RKMK theta step written out on the semidirect group.

    The stage k = dexpinv_{h theta k}(f(exp(h theta k) . y0)), with the
    dexpinv series truncated at RKMK_THETA_SERIES_ORDER, and the update
    exp(h k) . y0.  Solved with a fresh Newton solver from k = f(y0), as the
    package's step is; theta = 0 takes k = f(y0).
    """
    ct = CotangentOps(system.group)

    def f_joined(y):
        return ct.join(*system.force_map(*y))

    if theta == 0.0:
        k = f_joined(state)
    else:
        h_theta = h * theta

        def residual(k):
            u = h_theta * k
            val = f_joined(ct.mul(ct.exp(u), state))
            return k - dexpinv_series(ct, u, val, RKMK_THETA_SERIES_ORDER)

        k = ImplicitSolver().solve(residual, f_joined(state), h=h)
    return ct.mul(ct.exp(h * k), state)


def write_csv_rows(traj, labels, stream):
    """The CSV writer row by row: t, the flattened state, the invariants, "%.17g" each."""
    names = list(traj.invariants)
    stream.write(",".join(["t"] + list(labels) + names) + "\n")
    for i, t in enumerate(traj.times):
        state = traj.states[i]
        parts = state if isinstance(state, tuple) else (state,)
        row = [t] + [v for part in parts for v in np.ravel(np.asarray(part, float))] \
            + [traj.invariants[name][i] for name in names]
        stream.write(",".join(f"{v:.17g}" for v in row) + "\n")


def frb_quat_matvec_forms(inertia, m0):
    """energy, field, energy_differential and body_momentum of the quaternion free
    rigid body as numpy mat-vecs on E = euler_rodrigues(q)."""
    inv_inertia = 1.0 / np.asarray(inertia, dtype=float)
    m0 = np.asarray(m0, dtype=float)

    def body_momentum(q):
        return euler_rodrigues(q).T @ m0

    def spatial_velocity(q):
        E = euler_rodrigues(q)
        return E @ (inv_inertia * (E.T @ m0))

    def energy(q):
        m = body_momentum(q)
        return 0.5 * float(m @ (inv_inertia * m))

    return SimpleNamespace(
        energy=energy, field=lambda q: 0.5 * spatial_velocity(q),
        energy_differential=lambda q: 2.0 * np.cross(spatial_velocity(q), m0),
        body_momentum=body_momentum, spatial_velocity=spatial_velocity)


def quat_log_matvec(q):
    """The principal quaternion log by numpy's norm, without the antipode check."""
    q = np.asarray(q, dtype=float)
    v = q[1:]
    nv = np.linalg.norm(v)
    if nv < 1e-9:
        return v / q[0]
    return (math.atan2(nv, q[0]) / nv) * v


def Ad(ops, g, xi):
    """Conjugation g xi g^{-1} on a liealg group bundle, in its algebra coordinates.

    SO(3) rotates the 3-vector, S^3 rotates it by euler_rodrigues(g), a matrix
    group conjugates by numpy's inverse, and the abelian groups fix xi.
    """
    xi = np.asarray(xi, dtype=float)
    if isinstance(ops, QuatOps):
        return euler_rodrigues(g) @ xi
    if isinstance(ops, So3Ops):
        return np.asarray(g) @ xi
    if isinstance(ops, MatrixOps):
        return g @ xi @ np.linalg.inv(g)
    return xi


def semidirect_Ad(ct, a, x):
    """Conjugation a x a^{-1} on G x| g* (a semidirect.CotangentOps ct) at a = (g, mu).

    (Ad_g xi, coAd(g^{-1}, nu + coad(xi, coAd(g, mu)))) for x = (xi, nu).
    """
    g, mu = a
    base = ct.base
    xi, nu = ct.split(x)
    lifted = nu + base.coad(xi, base.coAd(g, mu))
    return ct.join(Ad(base, g, xi), base.coAd(base.inv(g), lifted))
