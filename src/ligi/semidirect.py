"""The semidirect product G x| g* acting on the trivialised cotangent bundle.

Group elements are pairs (g, mu) with g in the base group and mu in the dual
of its algebra; the product is

    (g1, mu1) (g2, mu2) = (g1 g2, mu1 + coAd(g1^{-1}, mu2)).

Algebra elements are stored as flat arrays concatenating the base algebra
coordinates xi with the dual coordinates nu; an element of another shape
raises AlgebraMismatch, and so does a base whose algebra elements are
matrices (MatrixOps).  CotangentOps composes its bracket, exponential,
product and dexp series from the base group's own operations.  The
exponential's fibre component is the t = 1 solution of
mu' = nu - coad(xi, mu), mu(0) = 0, which in closed form is (dexp_{-xi})^* nu.

The float kernels of this module give those compositions bit for bit on
SO(3): the series, the exponential and the product.  CotangentOps chooses
them once, from the base's exact type, as discrete_gradient._arithmetic
does, so a subclass of So3Ops, and every other base (S^3 among them), takes
the composition.  Each kernel reads its flat vectors with one tolist() and
builds one array per result; an argument of another shape takes the
composition, which raises AlgebraMismatch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlgebraMismatch
from .liealg import (_BERNOULLI_OVER_FACT, _INV_FACT_SHIFTED, SERIES_ORDER, GroupOps, MatrixOps,
                     So3Ops, _ad_quadratic, _ad_series, _dexp_coeffs, _flat_arrays,
                     _rotation_coeffs, _series_terms, rodrigues_entries)


def _bracket_entries(a, b):
    """The bracket on SO(3) of the stacked 6-float lists a, b, as a list.

    bracket(xi1, xi2) is xi1 x xi2 and coad(xi, mu) is mu x xi: the
    composition, bit for bit.
    """
    x1, y1, z1, p1, q1, r1 = a
    x2, y2, z2, p2, q2, r2 = b
    return [
        y1 * z2 - z1 * y2,
        z1 * x2 - x1 * z2,
        x1 * y2 - y1 * x2,
        (q1 * z2 - r1 * y2) - (q2 * z1 - r2 * y1),
        (r1 * x2 - p1 * z2) - (r2 * x1 - p2 * z1),
        (p1 * y2 - q1 * x2) - (p2 * y1 - q2 * x1),
    ]


class CotangentOps(GroupOps):
    """Group operations on G x| g* built over a base group's operations."""

    def __init__(self, base: GroupOps):
        if isinstance(base, MatrixOps):
            raise AlgebraMismatch(f"G x| g* stacks flat algebra vectors; the {base.kind}"
                                  f"({base.n}) algebra has {base.n}x{base.n} matrices")
        self.base = base
        self.dim = 2 * base.dim
        self._so3 = type(base) is So3Ops  # the float kernels: series, exp and mul

    # element packing ------------------------------------------------------
    def split(self, x):
        """(xi, nu) of a stacked element."""
        x = np.asarray(x, dtype=float)
        return x[: self.base.dim], x[self.base.dim:]

    def join(self, xi, nu):
        return np.concatenate((xi, nu), dtype=float)

    def _stacked(self, *elements):
        return _flat_arrays(self.dim, "stacked (xi, nu) elements", elements)

    # algebra ----------------------------------------------------------------
    def bracket(self, a, b):
        """(ad_xi1 xi2, coad(xi2, nu1) - coad(xi1, nu2))."""
        a, b = self._stacked(a, b)
        base, n = self.base, self.base.dim
        xi1, nu1, xi2, nu2 = a[:n], a[n:], b[:n], b[n:]
        return np.concatenate(
            (base.bracket(xi1, xi2), base.coad(xi2, nu1) - base.coad(xi1, nu2)), dtype=float)

    def dexp(self, sigma, v, order=SERIES_ORDER):
        return self._series(sigma, v, _INV_FACT_SHIFTED, order)

    def dexpinv(self, sigma, v, order=SERIES_ORDER):
        return self._series(sigma, v, _BERNOULLI_OVER_FACT, order)

    def _series(self, sigma, v, coeffs, order):
        """_ad_series of the bracket; the float kernel runs _bracket_entries and
        the out + c w updates in _ad_series' order."""
        if self._so3:
            sigma = np.asarray(sigma, dtype=float)
            v = np.asarray(v, dtype=float)
            if sigma.shape == (6,) and v.shape == (6,):
                terms = _series_terms(coeffs, order)
                sigma, w = sigma.tolist(), v.tolist()
                o0, o1, o2, o3, o4, o5 = w
                for c in terms:
                    w = _bracket_entries(sigma, w)
                    if c != 0.0:
                        w0, w1, w2, w3, w4, w5 = w
                        o0, o1, o2, o3, o4, o5 = (o0 + c * w0, o1 + c * w1, o2 + c * w2,
                                                  o3 + c * w3, o4 + c * w4, o5 + c * w5)
                return np.array([o0, o1, o2, o3, o4, o5])
        sigma, v = self._stacked(sigma, v)
        return _ad_series(self.bracket, sigma, v, coeffs, order)

    # group ------------------------------------------------------------------
    def exp(self, x):
        """(exp xi, dual_dexp(-xi, nu)).

        The SO(3) kernel takes the rotation and the fibre from one |xi|^2:
        dual_dexp at -xi is the so(3) form at xi, since both signs flip.
        """
        if self._so3:
            x = np.asarray(x, dtype=float)
            if x.shape == (6,):
                x, y, z, v0, v1, v2 = x.tolist()
                theta2 = x * x + y * y + z * z
                c1, c2 = _rotation_coeffs(theta2)
                a, b = _dexp_coeffs(math.sqrt(theta2))
                return (np.array(rodrigues_entries(x, y, z, c1, c2)).reshape(3, 3),
                        np.array(_ad_quadratic(x, y, z, v0, v1, v2, a, b)))
        x, = self._stacked(x)
        base = self.base
        xi = x[:base.dim]
        return base.exp(xi), base.dual_dexp(-xi, x[base.dim:])

    def mul(self, a, b):
        """(g1, mu1) (g2, mu2) = (g1 g2, mu1 + coAd(g1^{-1}, mu2)).

        The SO(3) kernel is numpy's g1 @ g2 and mu2 @ g1^T, without the mul,
        inv and coAd calls.
        """
        (g1, mu1), (g2, mu2) = a, b
        if self._so3:
            mu1 = np.asarray(mu1, dtype=float)
            mu2 = np.asarray(mu2, dtype=float)
            if mu1.shape == (3,) and mu2.shape == (3,):
                return g1 @ g2, mu1 + mu2 @ np.asarray(g1).T
        base = self.base
        mu1, mu2 = _flat_arrays(base.dim, "momenta", (mu1, mu2))
        return base.mul(g1, g2), mu1 + base.coAd(base.inv(g1), mu2)

    def inv(self, a):
        g, mu = a
        return self.base.inv(g), -self.base.coAd(g, mu)

    def identity(self):
        return self.base.identity(), np.zeros(self.base.dim)
