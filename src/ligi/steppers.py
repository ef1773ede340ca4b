"""Stepping schemes built on group actions.

All steppers advance a point by composing exact flows of frozen vector
fields, so any invariant of the group orbits (norms, orthonormality) is
preserved by construction.  On the translation action every scheme reduces
to its classical Runge-Kutta counterpart.

rkmk4_step runs on Python floats when the action is SphereRotationAction
itself with So3Ops as its group (SO3_ON_S2): the stage vectors are 3-tuples,
and exp(u) . y is Rodrigues applied to the point, y + c1 u x y +
c2 u x (u x y), without the rotation matrix.  It rounds differently from the
matrix-vector product; every other action, a subclass of SphereRotationAction
among them, composes its group's exp, bracket and apply on arrays.

The steps do not screen their inputs: a NaN in the state gives NaN in the
result (rkmk4_step on the sphere maps [nan, 0, 1] to [nan, nan, nan]), and
an exponential that overflows gives NaN entries.  Only integrate, and
through it the CLI, checks each new state and invariant, and stops the run
with NonFiniteState (naming the step, also when the step's solver raised it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .actions import FrozenFieldProblem, SphereRotationAction, _sphere_point
from .errors import DomainError, NonFiniteState
from .liealg import So3Ops, _cross, _rotation_coeffs, weighted_sum


def nonzero_terms(row):
    """The (j, w) pairs of the nonzero weights w = row[j]."""
    return tuple((j, w) for j, w in enumerate(row) if w != 0.0)


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Runge-Kutta coefficients (a, b): a finite s x s stage matrix and s weights summing to 1.

    One type parametrises rkmk_step and the symplectic family of
    symplectic.symplectic_step, which also needs every b_i != 0 and checks
    that itself.  a and b are read-only copies, so theta() can share its
    instances, and tableaus compare and hash by identity.  The nonzero weights
    are kept once as Python floats: rows[i] holds the (j, a_ij) pairs of row i
    of a, and b_terms the (i, b_i) pairs; explicit reads the rows.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float, ndmin=2)
        b = np.array(self.b, dtype=float, ndmin=1)
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != (len(b), len(b)):
            raise ValueError(f"stage matrix a must have shape {(len(b), len(b))}"
                             f" for {len(b)} stage weights, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"stage matrix a must be finite, got {a.tolist()!r}")
        if not abs(b.sum() - 1.0) <= 1e-14:  # a NaN weight fails too
            raise ValueError(f"tableau weights must sum to 1, got {b.sum()!r}")
        object.__setattr__(self, "rows", tuple(map(nonzero_terms, a.tolist())))
        object.__setattr__(self, "b_terms", nonzero_terms(b.tolist()))
        # a_ij == 0 exactly for j >= i: a tiny diagonal is still implicit.
        object.__setattr__(self, "explicit",
                           all(j < i for i, row in enumerate(self.rows) for j, _ in row))

    @classmethod
    @lru_cache(maxsize=16)
    def theta(cls, theta):
        """The one-stage tableau [[theta]], [1], one shared instance per theta."""
        return cls(a=[[float(theta)]], b=[1.0])

    @property
    def stages(self):
        return len(self.b)


KUTTA4 = ButcherTableau(
    a=[[0.0, 0.0, 0.0, 0.0],
       [0.5, 0.0, 0.0, 0.0],
       [0.0, 0.5, 0.0, 0.0],
       [0.0, 0.0, 1.0, 0.0]],
    b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
)

HEUN2 = ButcherTableau(a=[[0.0, 0.0], [1.0, 0.0]], b=[0.5, 0.5])


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def lie_euler_step(problem: FrozenFieldProblem, y, h):
    """Flow of the field frozen at y for time h."""
    act = problem.action
    return act.apply(act.group.exp(h * problem.coefficient_map(y)), y)


def heun_step(problem: FrozenFieldProblem, y, h, variant="rkmk"):
    """Second-order Heun scheme in one of its three group interpretations.

    variant selects the update from the stage values k1 = f(y),
    k2 = f(exp(h k1) . y):

    * "rkmk":     exp(h/2 (k1 + k2)) . y
    * "cg_left":  exp(h/2 k1) . exp(h/2 k2) . y
    * "cg_right": exp(h/2 k2) . exp(h/2 k1) . y
    """
    act = problem.action
    group = act.group
    f = problem.coefficient_map
    k1 = f(y)
    k2 = f(act.apply(group.exp(h * k1), y))
    if variant == "rkmk":
        return act.apply(group.exp(0.5 * h * (k1 + k2)), y)
    if variant == "cg_left":
        return act.apply(group.exp(0.5 * h * k1), act.apply(group.exp(0.5 * h * k2), y))
    if variant == "cg_right":
        return act.apply(group.exp(0.5 * h * k2), act.apply(group.exp(0.5 * h * k1), y))
    raise ValueError(f"unknown Heun variant {variant!r}")


def rkmk_step(problem: FrozenFieldProblem, y, h, tableau: ButcherTableau = KUTTA4,
              series_order=4, solver=None):
    """Runge-Kutta method run in the Lie algebra with dexpinv corrections.

    Stage equations k_i = dexpinv_{u_i}(f(exp(u_i) . y)), u_i = sum_j (h a_ij) k_j,
    update y1 = exp(h sum_i b_i k_i) . y.  An implicit tableau needs a solver,
    an ImplicitSolver or any object with its solve: solver.solve(residual, z0,
    h=h) finds the stacked stages z = (k_1, ..., k_s) where the residual
    z - k(z) vanishes, from the start (f(y), ..., f(y)); a start whose h f(y)
    overflows raises NonFiniteState.
    """
    act = problem.action
    group = act.group
    f = problem.coefficient_map
    s = tableau.stages
    # h a_ij in float64: an np.float32 h would round the stage weights to float32.
    h_rows = [[(j, float(h) * w) for j, w in row] for row in tableau.rows]

    def stage(ks, i):
        if not h_rows[i]:  # all-zero row: u = 0 whatever the type of h
            return f(y)
        u = weighted_sum(h_rows[i], ks)
        return group.dexpinv(u, f(act.apply(group.exp(u), y)), series_order)

    if tableau.explicit:
        ks = []
        for i in range(s):
            ks.append(stage(ks, i))
    else:
        if solver is None:
            raise ValueError("an implicit tableau needs a solver, e.g. solver=ImplicitSolver()")
        k0 = np.asarray(f(y), dtype=float)
        screen_start(float(h) * k0, h)  # the stages enter the exponentials scaled by h
        stacked = (s, *k0.shape)  # z is the flat form of the stages k_1, ..., k_s

        def stacked_stages(z):
            if s == 1 and k0.ndim == 1:  # z is the one stage: no reshape, no concatenation
                return stage((z,), 0)
            ks = z.reshape(stacked)
            return np.concatenate([stage(ks, i) for i in range(s)], axis=None)

        z0 = np.concatenate([k0] * s, axis=None)
        ks = solver.solve(lambda z: z - stacked_stages(z), z0, h=h).reshape(stacked)

    return act.apply(group.exp(h * weighted_sum(tableau.b_terms, ks)), y)


def rkmk4_step(problem: FrozenFieldProblem, y, h):
    """Fourth-order scheme with dexpinv replaced by its optimal Lie polynomials."""
    y, field, flow, bracket, combine = _rkmk4_arithmetic(problem, y, h)
    k1 = field(y)
    k2 = field(flow(combine((0.5, k1))))
    k3 = field(flow(combine((0.5, k2), (-0.125, bracket(k1, k2)))))
    k4 = field(flow(k3))
    return flow(combine((1.0, k1), (2.0, k2), (2.0, k3), (1.0, k4),
                        (-0.5, bracket(k1, k4)), over=6.0))


def _rkmk4_arithmetic(problem, y, h):
    """(y, field, flow, bracket, combine): the arithmetic of rkmk4_step about the point y.

    field(m) = h f(m), flow(u) = exp(u) . y as an array, the algebra's bracket,
    and combine((w1, v1), (w2, v2), ..., over=d) = (w1 v1 + w2 v2 + ...) / d.
    On SO3_ON_S2 the algebra vectors are 3-tuples of floats (f still sees
    arrays), and a y that is not a 3-vector raises ActionMismatch.
    """
    act = problem.action
    f = problem.coefficient_map
    if type(act) is not SphereRotationAction or type(act.group) is not So3Ops:
        group = act.group
        return (y, lambda m: h * np.asarray(f(m), float),
                lambda u: act.apply(group.exp(u), y), group.bracket, _combine_arrays)
    y = _sphere_point(y)
    y0, y1, y2 = point = y.tolist()
    h = float(h)  # numpy scales by any real h as a float64

    def field(m):
        a, b, c = np.asarray(f(m), float).tolist()
        return h * a, h * b, h * c

    def flow(u):  # y + c1 u x y + c2 u x (u x y)
        u0, u1, u2 = u
        c1, c2 = _rotation_coeffs(u0 * u0 + u1 * u1 + u2 * u2)
        w0, w1, w2 = w = _cross(u, point)
        v0, v1, v2 = _cross(u, w)
        return np.array([y0 + c1 * w0 + c2 * v0, y1 + c1 * w1 + c2 * v1,
                         y2 + c1 * w2 + c2 * v2])

    return y, field, flow, _cross, _combine_floats


def _combine_floats(*terms, over=1.0):
    """(w1 v1 + w2 v2 + ...) / over on 3-tuples of floats, as numpy rounds it on arrays."""
    (w, (a, b, c)), *rest = terms
    a, b, c = w * a, w * b, w * c
    for w, (p, q, r) in rest:
        a, b, c = a + w * p, b + w * q, c + w * r
    return a / over, b / over, c / over


def _combine_arrays(*terms, over=1.0):
    """(w1 v1 + w2 v2 + ...) / over on arrays; a unit weight or divisor is no operation."""
    weights, vectors = zip(*terms)
    out = weighted_sum(list(enumerate(weights)), vectors)
    return out if over == 1.0 else out / over


def cf4_step(problem: FrozenFieldProblem, y, h):
    """Commutator-free fourth-order scheme (five exponentials per step)."""
    act = problem.action
    group = act.group
    f = problem.coefficient_map
    k1 = h * np.asarray(f(y), float)
    y2 = act.apply(group.exp(0.5 * k1), y)
    k2 = h * np.asarray(f(y2), float)
    k3 = h * np.asarray(f(act.apply(group.exp(0.5 * k2), y)), float)
    k4 = h * np.asarray(f(act.apply(group.exp(k3 - 0.5 * k1), y2)), float)
    y_half = act.apply(group.exp((3.0 * k1 + 2.0 * k2 + 2.0 * k3 - k4) / 12.0), y)
    return act.apply(group.exp((-k1 + 2.0 * k2 + 2.0 * k3 + 3.0 * k4) / 12.0), y_half)


# ---------------------------------------------------------------------------
# Trajectories, drift reports and convergence studies
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Time-stamped states plus invariant diagnostics."""

    times: np.ndarray
    states: list
    invariants: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    @property
    def final(self):
        return self.states[-1]


def _finite(y):
    """Whether every entry of a state (an array or a tuple of arrays) is finite.

    A finite sum of the entries screens them; on the few entries of a state a
    Python sum costs a fifth of a numpy one.  A sum can overflow on finite
    entries, so a tripped screen falls back to the exact test.
    """
    if isinstance(y, tuple):
        return all(map(_finite, y))
    a = np.asarray(y)
    return math.isfinite(sum(a.ravel().tolist())) or bool(np.isfinite(a).all())


def screen_start(z0, h):
    """Raise NonFiniteState when an implicit iteration starts at a value that is not finite."""
    if not _finite(z0):
        raise NonFiniteState(f"started its iteration at a point that is not finite (h={h!r})")


def integrate(step: Callable, y0, h, n_steps, invariants=()) -> Trajectory:
    """Run a one-step map step(y, h) -> y, recording states and invariants.

    invariants is a sequence of (name, function of the state) pairs; each is
    recorded at every time, in the order given.  Raises ValueError for a
    negative n_steps, and NonFiniteState as soon as a new state or invariant
    value is not finite.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0 (n_steps={n_steps!r})")
    times = np.arange(n_steps + 1) * float(h)
    states, y = [y0], y0
    rows = [[fn(y0) for _, fn in invariants]]
    for n in range(1, n_steps + 1):
        try:
            y = step(y, h)
        except NonFiniteState as exc:  # an overflow inside the step, seen by its solver
            raise NonFiniteState(f"step {n} (t={float(times[n])!r}) {exc}") from exc
        states.append(y)
        rows.append([fn(y) for _, fn in invariants])
        if not (_finite(y) and all(map(math.isfinite, rows[-1]))):
            raise NonFiniteState(
                f"step {n} (t={float(times[n])!r}) gave a value that is not finite")
    columns = np.array(rows).T
    return Trajectory(times, states, dict(zip((name for name, _ in invariants), columns)))


DRIFT_THRESHOLD = 1e-3


def drift_report(traj: Trajectory):
    """Per-invariant deviation statistics and a drift classification.

    An invariant drifts when |slope| * T / |value_0| exceeds 1e-3, with the
    slope from a least-squares linear fit over the whole run.  Raises
    DomainError when every t^2 underflows to 0, where np.polyfit divides by 0.
    """
    report = {}
    T = float(traj.times[-1])
    if not float(traj.times @ traj.times) > 0.0:
        raise DomainError(f"the drift fit is undefined: every t^2 underflows to 0 (T={T!r})")
    for name, values in traj.invariants.items():
        v0 = float(values[0])
        scale = max(abs(v0), np.finfo(float).tiny)
        slope = float(np.polyfit(traj.times, values, 1)[0])
        rate = abs(slope) * T / scale
        report[name] = {
            "value0": v0,
            "max_rel_deviation": float(np.max(np.abs(values - v0)) / scale),
            "slope": slope,
            "rel_drift_rate": rate,
            "classification": "drift" if rate > DRIFT_THRESHOLD else "no-drift",
        }
    return report


def state_distance(a, b):
    """Euclidean distance between two states of the same layout."""
    if isinstance(a, tuple):
        return float(np.sqrt(sum(state_distance(x, y) ** 2 for x, y in zip(a, b))))
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


# convergence_study's reference step is the smallest step over this.
REFERENCE_REFINEMENT = 20


def convergence_study(make_step: Callable, problem: FrozenFieldProblem, y0, T, h_list):
    """Empirical order of a scheme against a fine reference trajectory.

    make_step() gives a fresh one-step map step(y, h) for each step size, so no
    run inherits another's solver state.  The reference is rkmk4_step on problem
    at h_min / REFERENCE_REFINEMENT.  Returns (slope, errors): the least-squares
    slope of log error against log h and the terminal-state error at each h.
    """
    h_list = list(h_list)
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")
    h_ref = h_list[-1] / REFERENCE_REFINEMENT
    n_ref = int(round(T / h_ref))
    y_ref = integrate(partial(rkmk4_step, problem), y0, T / n_ref, n_ref).final

    errors = []
    for h in h_list:
        n = int(round(T / h))
        y = integrate(make_step(), y0, T / n, n).final
        errors.append(state_distance(y, y_ref))
    slope = float(np.polyfit(np.log(h_list), np.log(errors), 1)[0])
    return slope, errors
