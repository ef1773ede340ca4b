"""Transitive group actions and the frozen-coefficient problem abstraction.

An ODE on a manifold M is presented as a coefficient map f: M -> g together
with an action of G on M; the vector field is m -> generator(f(m), m), and
every integrator in the package advances the state through exact flows
action.apply(exp(.), m) of the frozen fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ActionMismatch
from .liealg import (
    GroupOps,
    S3,
    SL2,
    SO3,
    MatrixOps,
    TorusOps,
    TranslationOps,
    cross3,
    son_ops,
)


class GroupAction:
    """Left action of a Lie group on a manifold, with exact generators."""

    name = "action"
    group: GroupOps = None

    def apply(self, g, m):
        raise NotImplementedError

    def generator(self, xi, m):
        """Tangent vector of the one-parameter orbit t -> exp(t xi) . m at 0."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class SphereRotationAction(GroupAction):
    """SO(3) acting on the unit sphere by matrix-vector multiplication."""

    name = "so3_on_s2"
    group = SO3

    def apply(self, g, m):
        m = np.asarray(m, float)
        if m.shape != (3,):
            raise ActionMismatch("points on S^2 are 3-vectors")
        return g @ m

    def generator(self, xi, m):
        return cross3(xi, m)


class MatrixLinearAction(GroupAction):
    """A matrix group acting linearly on column vectors or on n x k frames."""

    def __init__(self, group: GroupOps, name):
        self.group = group
        self.name = name

    def apply(self, g, m):
        return g @ np.asarray(m, float)

    def generator(self, xi, m):
        return np.asarray(xi, float) @ np.asarray(m, float)


class AffineAction(GroupAction):
    """The affine group of R^n acting by x -> A x + b: the homogeneous matrices
    [[A, b], [0, 1]] of GL(n+1), MatrixOps(n + 1); apply and generator read n rows."""

    def __init__(self, n):
        self.group = MatrixOps(n + 1)
        self.n = n
        self.name = f"affine_on_r{n}"

    def _lift(self, m):
        m = np.asarray(m, float)
        if m.shape != (self.n,):
            raise ActionMismatch(f"points are {self.n}-vectors")
        return np.append(m, 1.0)

    def apply(self, g, m):
        return (g @ self._lift(m))[: self.n]

    def generator(self, xi, m):
        return (np.asarray(xi, float) @ self._lift(m))[: self.n]


class TranslationAction(GroupAction):
    """(R^n, +) acting on itself; integrators reduce to their classical forms."""

    def __init__(self, n):
        self.group = TranslationOps(n)
        self.n = n
        self.name = f"translation_r{n}"

    def apply(self, g, m):
        return np.asarray(m, float) + g

    def generator(self, xi, m):
        return np.asarray(xi, float)


class LeftMultiplicationAction(GroupAction):
    """A group acting on itself by left multiplication.

    The coefficient map is then the right-trivialised vector field:
    generator(xi, m) = d/dt exp(t xi) . m at t = 0.
    """

    def __init__(self, group: GroupOps, name):
        self.group = group
        self.name = name

    def apply(self, g, m):
        return self.group.mul(g, m)

    def generator(self, xi, m):
        # Derivative of left translation along the one-parameter subgroup: the
        # quaternion product on S^3, xi @ m on a matrix group, none on G x| g*.
        if self.group is S3:
            return quat_mul_tangent(np.asarray(xi, float), m)
        if not isinstance(self.group, MatrixOps):
            raise ActionMismatch(f"left multiplication on {type(self.group).__name__} has no"
                                 " generator: only S^3 and matrix groups have one")
        return np.asarray(xi, float) @ np.asarray(m, float)


def quat_mul_tangent(w, q):
    """Product (0, w) . q in R^4 without renormalisation (a tangent vector)."""
    q = np.asarray(q, float)
    out = np.empty(4)
    out[0] = -w @ q[1:]
    out[1:] = q[0] * w + cross3(w, q[1:])
    return out


class TorusAction(GroupAction):
    """SO(2) x SO(2) acting componentwise on pairs of unit 2-vectors.

    Points are arrays of shape (2, 2): rows are the two circle components.
    apply multiplies row k by g[k] on Python floats.
    """

    name = "torus"
    group = TorusOps()

    def apply(self, g, m):
        m = np.asarray(m, float)
        if m.shape != (2, 2):
            raise ActionMismatch("torus points are (2, 2) arrays")
        (u0, u1), (v0, v1) = m.tolist()
        (a, b, c, d), (e, f, p, q) = np.asarray(g, float).reshape(2, 4).tolist()
        return np.array([a * u0 + b * u1, c * u0 + d * u1,
                         e * v0 + f * v1, p * v0 + q * v1]).reshape(2, 2)

    def generator(self, xi, m):
        m = np.asarray(m, float)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        return np.stack([xi[0] * (rot @ m[0]), xi[1] * (rot @ m[1])])


SO3_ON_S2 = SphereRotationAction()
SL2_ON_R2 = MatrixLinearAction(SL2, "sl2_on_r2")
SE2_ON_R2 = AffineAction(2)
TORUS = TorusAction()
QUAT_LEFT = LeftMultiplicationAction(S3, "s3_left")


def stiefel_action(n):
    """SO(n) acting on the Stiefel manifold St(n, k) by left multiplication."""
    return MatrixLinearAction(son_ops(n), f"so{n}_on_stiefel")


@dataclass(frozen=True)
class FrozenFieldProblem:
    """An ODE written as a coefficient map into a Lie algebra plus an action.

    Attributes:
        action: the group action supplying flows and generators.
        coefficient_map: f with vector field F(m) = generator(f(m), m).
        invariants: named first integrals, recorded along trajectories.
        reference_field: optional independent form of F, for consistency
            checks of the coefficient map.
    """

    action: GroupAction
    coefficient_map: Callable
    invariants: tuple = ()
    reference_field: Optional[Callable] = None

    def field(self, m):
        """The problem vector field at m."""
        return self.action.generator(self.coefficient_map(m), m)

    def frozen_field(self, p):
        """The field with coefficients frozen at p (a map over all of M)."""
        xi = self.coefficient_map(p)
        return lambda m: self.action.generator(xi, m)
