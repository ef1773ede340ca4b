"""The semidirect product G x| g* acting on the trivialised cotangent bundle.

Group elements are pairs (g, mu) with g in the base group and mu in the dual
of its algebra; the product is

    (g1, mu1) (g2, mu2) = (g1 g2, mu1 + coAd(g1^{-1}, mu2)).

Algebra elements are stored as flat arrays concatenating the base algebra
coordinates xi with the dual coordinates nu.  CotangentOps forwards its
bracket, exponential, product and dexp series to the base group's semidirect
forms (see liealg.GroupOps); SO(3) runs all but the bracket on floats.
The exponential's fibre component is the t = 1 solution of
mu' = nu - coad(xi, mu), mu(0) = 0, which in closed form is (dexp_{-xi})^* nu.
"""

from __future__ import annotations

import numpy as np

from .liealg import SERIES_ORDER, GroupOps


class CotangentOps(GroupOps):
    """Group operations on G x| g* built over a base group's operations."""

    def __init__(self, base: GroupOps):
        self.base = base
        self.dim = 2 * base.dim

    # element packing ------------------------------------------------------
    def split(self, x):
        """(xi, nu) of a stacked element.  The base groups' semidirect forms
        (liealg) unpack this same stacking; a change to it changes both."""
        x = np.asarray(x, dtype=float)
        return x[: self.base.dim], x[self.base.dim:]

    def join(self, xi, nu):
        return np.concatenate((xi, nu), dtype=float)

    # algebra ----------------------------------------------------------------
    def bracket(self, a, b):
        """(ad_xi1 xi2, coad(xi2, nu1) - coad(xi1, nu2)), by the base group's composition."""
        return self.base.semidirect_bracket(a, b)

    def dexp(self, sigma, v, order=SERIES_ORDER):
        return self.base.semidirect_dexp(sigma, v, order)

    def dexpinv(self, sigma, v, order=SERIES_ORDER):
        return self.base.semidirect_dexpinv(sigma, v, order)

    # group ------------------------------------------------------------------
    def exp(self, x):
        return self.base.semidirect_exp(x)

    def mul(self, a, b):
        return self.base.semidirect_mul(a, b)

    def inv(self, a):
        g, mu = a
        return self.base.inv(g), -self.base.coAd(g, mu)

    def identity(self):
        return self.base.identity(), np.zeros(self.base.dim)
