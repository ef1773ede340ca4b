"""Lie algebra and Lie group primitives.

The module holds the closed exponentials of SO(3), S^3, 2x2 matrices and
the torus, and the logarithms of SO(3) and S^3; the commutator series of
dexp, dexpinv and the dual of dexp on a generic algebra; and the GroupOps
bundles that package them, with one AbelianOps base for (R^n, +) and the
torus, where the dexp family is the identity.

Conventions used throughout the package:

* so(3) algebra elements are coordinate 3-vectors ``v``; ``hat(v)`` is the
  corresponding skew matrix and group elements are 3x3 rotation matrices.
* Unit quaternions are arrays ``(q0, q1, q2, q3)``.  The algebra of pure
  quaternions is identified with R^3 through the vector part, scaled so that
  ``quat_exp(w)`` covers the rotation ``expm_so3(hat(2 w))``; the bracket in
  these coordinates is ``2 cross(w1, w2)``.
* Dual (momentum) values carry the same coordinates as the algebra and pair
  with it by the Euclidean dot product (Frobenius for matrix algebras).
* The affine group of R^n is the subgroup of GL(n+1) of homogeneous
  matrices, MatrixOps(n + 1) (see actions.AffineAction).

The GroupOps bundles also carry the stage system of the symplectic family,
composed from each group's own operations, with a float kernel on SO(3).
Everything here is a pure function of immutable arrays; nothing mutates its
arguments.

Importing this module loads no part of scipy: the Bernoulli coefficients of
dexpinv come from their exact rationals, and scipy.linalg loads at the first
matrix exponential without a closed form (MatrixOps beyond 2x2 and so(3),
such as so(5) or gl(3)).  The S^3, S^2, torus and sl(2) presets never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import AlgebraMismatch, AngleNearPi, DexpinvOutOfRange, LogNearAntipode

# Norm below which closed forms switch to truncated Taylor series.
SMALL_ANGLE = 1e-4

# Default truncation order for commutator series on generic algebras.
SERIES_ORDER = 12

MAX_SERIES_ORDER = 24
# Series coefficients as Python floats, k = 0..MAX_SERIES_ORDER: 1 / (k+1)!
# for dexp, and Bernoulli numbers over factorials, B_k / k!, with the
# B_1 = -1/2 convention, for dexpinv.
_INV_FACT_SHIFTED = [1.0 / math.factorial(k + 1) for k in range(MAX_SERIES_ORDER + 1)]


def _bernoulli_over_factorial(n):
    """B_k / k! for k = 0..n, each rounded once from its exact rational value.

    x / (e^x - 1) = sum_k (B_k / k!) x^k is the reciprocal of
    (e^x - 1) / x = sum_k x^k / (k+1)!, so a_0 = 1 and
    a_m = -sum_{j<m} a_j / (m+1-j)!, which gives B_1 = -1/2.
    """
    exact = [Fraction(1)]
    for m in range(1, n + 1):
        exact.append(-sum(a / math.factorial(m + 1 - j) for j, a in enumerate(exact)))
    return [float(a) for a in exact]


_BERNOULLI_OVER_FACT = _bernoulli_over_factorial(MAX_SERIES_ORDER)


def max_abs(values):
    """max |v| over a flat list of floats, as np.max(np.abs(values)) gives it.

    On a few entries the Python reduction costs a fifth of numpy's.  Python's
    max can pass over a NaN, so a finite sum screens the entries first; a NaN,
    an infinity or an overflowing sum falls back to numpy, which returns the
    NaN or the infinity.
    """
    if math.isfinite(sum(values)):
        return max(map(abs, values))
    return float(np.max(np.abs(values)))


def max_abs_diff(a, b):
    """Largest coordinate difference of a and b; NaN when any coordinate is NaN.

    a and b are arrays, or lists of equal-shape arrays, of one layout, or
    tuples of floats, which are read as they are.
    """
    if type(a) is not tuple:
        a = np.asarray(a, float).ravel().tolist()
        b = np.asarray(b, float).ravel().tolist()
    return max_abs([p - q for p, q in zip(a, b)])


def weighted_sum(terms, vectors, out=None):
    """out + sum of w vectors[j] over the (j, w) in terms; a unit weight adds vectors[j]."""
    for j, w in terms:
        v = vectors[j] if w == 1.0 else w * vectors[j]
        out = v if out is None else out + v
    return out


# ---------------------------------------------------------------------------
# so(3) and SO(3)
# ---------------------------------------------------------------------------
#
# The so(3) and S^3 closed forms below run on Python floats: on 3- and
# 4-vectors numpy's fixed cost per call is many times that of the few dozen
# flops, and these forms sit under every Newton residual and every
# discrete-gradient iteration.  Each reads its arguments with one tolist()
# and builds one array for its result (3x3 results from a flat list, which
# numpy builds in half the time of a nested one).


def cross3(a, b):
    """Cross product of 3-vectors without np.cross dispatch overhead."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def hat(v):
    """Map a 3-vector to the skew matrix with hat(v) @ x == cross(v, x)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([0.0, -z, y, z, 0.0, -x, -y, x, 0.0]).reshape(3, 3)


def vee(A):
    """Inverse of :func:`hat`."""
    A = np.asarray(A, dtype=float)
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def rodrigues_entries(x, y, z, c1, c2):
    """I + c1 hat(v) + c2 hat(v)^2 for v = (x, y, z), as nine row-major floats."""
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = c2 * (x * y), c2 * (x * z), c2 * (y * z)
    sx, sy, sz = c1 * x, c1 * y, c1 * z
    return (
        1.0 - c2 * (yy + zz), xy - sz, xz + sy,
        xy + sz, 1.0 - c2 * (xx + zz), yz - sx,
        xz - sy, yz + sx, 1.0 - c2 * (xx + yy),
    )


def _rotation_coeffs(theta2):
    """Coefficients (sin t / t, (1 - cos t) / t^2) with a series branch.

    An infinite angle gives NaN coefficients.
    """
    if theta2 < SMALL_ANGLE ** 2:
        c1 = 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0)
        c2 = 0.5 - theta2 / 24.0 * (1.0 - theta2 / 30.0)
    else:
        theta = math.sqrt(theta2)
        try:
            c1 = math.sin(theta) / theta
            c2 = (1.0 - math.cos(theta)) / theta2
        except ValueError:  # math.sin(inf)
            return math.nan, math.nan
    return c1, c2


def rotation_from_vector(v):
    """Rotation about axis v by angle |v| (closed form on so(3))."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    c1, c2 = _rotation_coeffs(x * x + y * y + z * z)
    return np.array(rodrigues_entries(x, y, z, c1, c2)).reshape(3, 3)


def expm_so3(A):
    """Exponential of a skew 3x3 matrix by the closed Rodrigues form.

    I + (sin a / a) A + ((1 - cos a) / a^2) A^2 with a^2 = ||A||_F^2 / 2.
    """
    return rotation_from_vector(vee(A))


def logm_so3(R):
    """Principal logarithm of a rotation matrix, as a skew matrix.

    Raises:
        AngleNearPi: when trace(R) <= -1 + 1e-6, i.e. the rotation angle is
            within about 1e-3 of pi and the log is ill-conditioned.
    """
    R = np.asarray(R, dtype=float)
    tr = float(np.trace(R))
    if tr <= -1.0 + 1e-6:
        raise AngleNearPi(f"rotation angle too close to pi (trace={tr!r})")
    cos_theta = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
    theta = math.acos(cos_theta)
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        coeff = 0.5 * (1.0 + t2 / 6.0 * (1.0 + 7.0 * t2 / 60.0))
    else:
        coeff = theta / (2.0 * math.sin(theta))
    return coeff * (R - R.T)


def _dexp_coeffs(theta):
    """Coefficients a, b with dexp_v = I + a ad_v + b ad_v^2 on so(3).

    An infinite angle gives NaN coefficients.
    """
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        a = 0.5 - t2 / 24.0 * (1.0 - t2 / 30.0)
        b = 1.0 / 6.0 - t2 / 120.0 * (1.0 - t2 / 42.0)
    else:
        t2 = theta * theta
        # 1 - cos t = 2 sin^2(t/2) without the cancellation that costs
        # 1e-12 relative accuracy just above SMALL_ANGLE.
        try:
            s = math.sin(0.5 * theta) / theta
            a = 2.0 * s * s
            b = (theta - math.sin(theta)) / (t2 * theta)
        except ValueError:  # math.sin(inf)
            return math.nan, math.nan
    return a, b


def _dexpinv_coeffs(theta):
    """Coefficients -1/2, c with dexpinv_v = I - ad_v / 2 + c ad_v^2 on so(3).

    c(t) = (1 - (t/2) cot(t/2)) / t^2, finite on [0, 2 pi).  An infinite
    angle gives a NaN c, as an overflow; a finite one past 2 pi is a domain error.
    """
    if theta >= 2.0 * math.pi:
        if theta == math.inf:
            return -0.5, math.nan
        raise DexpinvOutOfRange(f"dexpinv closed form needs |ad_v| < 2*pi, got {theta!r}")
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return -0.5, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    half = 0.5 * theta
    return -0.5, (1.0 - half / math.tan(half)) / (theta * theta)


def _ad_quadratic(x, y, z, v0, v1, v2, a, b):
    """v + a cross(s, v) + b cross(s, cross(s, v)) for s = (x, y, z), v = (v0, v1, v2).

    The so(3) dexp family: each member is I + a ad_s + b ad_s^2 with the
    coefficients (a, b) of |s|.  Its dual is the transpose, which flips the
    odd term, so it is the same map at -s.  Returns three floats, from which
    each caller builds its array.
    """
    w0 = y * v2 - z * v1
    w1 = z * v0 - x * v2
    w2 = x * v1 - y * v0
    return (v0 + a * w0 + b * (y * w2 - z * w1),
            v1 + a * w1 + b * (z * w0 - x * w2),
            v2 + a * w2 + b * (x * w1 - y * w0))


# ---------------------------------------------------------------------------
# Unit quaternions
# ---------------------------------------------------------------------------

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# quat_mul, quat_exp and quat_log are each one tolist() and one array around a
# private body on 4-tuples (3-tuples for the algebra), which the S^3
# discrete-gradient step calls directly on its float iterates.


def _unit_quat(w, x, y, z):
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


def _quat_mul(p, q):
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return _unit_quat(
        p0 * q0 - (p1 * q1 + p2 * q2 + p3 * q3),
        p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2),
        p0 * q2 + q0 * p2 + (p3 * q1 - p1 * q3),
        p0 * q3 + q0 * p3 + (p1 * q2 - p2 * q1),
    )


def quat_mul(p, q):
    """Quaternion product, renormalised to unit length."""
    return np.array(_quat_mul(np.asarray(p, dtype=float).tolist(),
                              np.asarray(q, dtype=float).tolist()))


def quat_conj(q):
    """Conjugate (= inverse for unit quaternions)."""
    q0, q1, q2, q3 = np.asarray(q, dtype=float).tolist()
    return np.array([q0, -q1, -q2, -q3])


def _quat_exp(w):
    x, y, z = w
    theta2 = x * x + y * y + z * z
    if theta2 < SMALL_ANGLE ** 2:
        s = 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0)
        c = 1.0 - theta2 / 2.0 * (1.0 - theta2 / 12.0)
    else:
        theta = math.sqrt(theta2)
        try:
            s = math.sin(theta) / theta
            c = math.cos(theta)
        except ValueError:  # math.sin(inf)
            return (math.nan,) * 4
    return _unit_quat(c, s * x, s * y, s * z)


def quat_exp(w):
    """Exponential of a pure quaternion given by its vector part.

    quat_exp(w) = (cos|w|, sin|w| w/|w|); it covers the rotation
    expm_so3(hat(2 w)).  An infinite |w| gives a NaN quaternion.
    """
    return np.array(_quat_exp(np.asarray(w, dtype=float).tolist()))


def _quat_log(q):
    q0, x, y, z = q
    if q0 <= -1.0 + 1e-9:
        raise LogNearAntipode(f"quaternion too close to -identity (q0={q0!r})")
    nv = math.sqrt(x * x + y * y + z * z)
    if nv < 1e-9:
        # q0 ~ +1 here; the antipode was excluded above.
        return (x / q0, y / q0, z / q0)
    k = math.atan2(nv, q0) / nv
    return (k * x, k * y, k * z)


def quat_log(q):
    """Principal logarithm of a unit quaternion, as a vector in R^3.

    Raises:
        LogNearAntipode: when q0 <= -1 + 1e-9.
    """
    return np.array(_quat_log(np.asarray(q, dtype=float).tolist()))


def euler_rodrigues(q):
    """Double cover S^3 -> SO(3): I + 2 q0 hat(q) + 2 hat(q)^2."""
    q0, x, y, z = np.asarray(q, dtype=float).tolist()
    return np.array(rodrigues_entries(x, y, z, 2.0 * q0, 2.0)).reshape(3, 3)


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------

def expm_2x2(A):
    """Exponential of a 2x2 matrix in closed form, on Python floats.

    With m = tr(A) / 2, the traceless part B = A - m I has B^2 = -q I for
    q = det B, so exp(A) = e^m (c I + s B) with c = cos(sqrt q) and
    s = sin(sqrt q) / sqrt q for q > 0, cosh and sinh of sqrt(-q) for q < 0,
    and their common series in q near q = 0.  An overflow of e^m, cosh or
    sinh, or an infinite sqrt q, gives NaN entries.
    """
    (a, b), (c, d) = np.asarray(A, dtype=float).tolist()
    p = 0.5 * (a - d)  # B = [[p, b], [c, -p]]
    q = -(p * p + b * c)
    try:
        if abs(q) < SMALL_ANGLE ** 2:
            cq = 1.0 - q / 2.0 * (1.0 - q / 12.0)
            sq = 1.0 - q / 6.0 * (1.0 - q / 20.0)
        elif q > 0.0:
            r = math.sqrt(q)
            cq, sq = math.cos(r), math.sin(r) / r
        else:
            r = math.sqrt(-q)
            cq, sq = math.cosh(r), math.sinh(r) / r
        e = math.exp(0.5 * (a + d))
    except (OverflowError, ValueError):  # e^1000 overflows; math.cos(inf)
        return np.full((2, 2), math.nan)
    ec, es = e * cq, e * sq
    return np.array([ec + es * p, es * b, es * c, ec - es * p]).reshape(2, 2)


# ---------------------------------------------------------------------------
# Commutator series: dexp, dexpinv and the dual of dexp on a generic algebra
# ---------------------------------------------------------------------------

def _series_terms(coeffs, order):
    """coeffs[1:order + 1], the coefficients of the terms k = 1..order."""
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"series order must be in 0..{MAX_SERIES_ORDER}, got {order!r}")
    return coeffs[1:order + 1]


def _ad_series(ad, sigma, v, coeffs, order):
    """sum_{k<=order} coeffs[k] ad(sigma, .)^k v, with coeffs[0] = 1.

    ad is a bracket or a coadjoint map; zero coefficients add no term.
    """
    terms = _series_terms(coeffs, order)
    w = np.asarray(v, dtype=float)
    out = w
    for c in terms:
        w = ad(sigma, w)
        if c != 0.0:
            out = out + c * w
    return out


def dexp_series(ops, sigma, v, order):
    """Truncated dexp_sigma(v) = sum_{k<=order} ad_sigma^k v / (k+1)!."""
    return _ad_series(ops.bracket, sigma, v, _INV_FACT_SHIFTED, order)


def dexpinv_series(ops, sigma, v, order):
    """Truncated inverse of dexp: coefficients are Bernoulli numbers B_k/k!."""
    return _ad_series(ops.bracket, sigma, v, _BERNOULLI_OVER_FACT, order)


def dual_dexp_series(ops, sigma, mu, order):
    """(dexp_sigma)^* mu: the dexp series with ad replaced by its dual."""
    return _ad_series(ops.coad, sigma, mu, _INV_FACT_SHIFTED, order)


# ---------------------------------------------------------------------------
# Group operation bundles
# ---------------------------------------------------------------------------

class GroupOps:
    """Operations of a Lie group and its algebra on plain array elements.

    Subclasses fix the element representations and provide bracket, exp and
    the coadjoint maps coad and coAd; the dexp family defaults to truncated
    commutator series.  symplectic_stages is the stage system of
    symplectic.symplectic_step for any tableau, composed from exp, mul, coAd
    and dual_dexp.  Subclasses override these with closed forms or float
    kernels where those exist.
    """

    dim = None  # algebra dimension

    # algebra ------------------------------------------------------------
    def bracket(self, a, b):
        raise NotImplementedError

    def coad(self, xi, mu):
        """ad* map: <coad(xi, mu), eta> = <mu, bracket(xi, eta)>."""
        raise NotImplementedError

    # group --------------------------------------------------------------
    def exp(self, xi):
        raise NotImplementedError

    def log(self, g):
        raise NotImplementedError

    def mul(self, g1, g2):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def coAd(self, g, mu):
        """Ad* map: <coAd(g, mu), xi> = <mu, g xi g^{-1}>, with xi as the algebra's matrix."""
        raise NotImplementedError

    # dexp family ----------------------------------------------------------
    def dexp(self, sigma, v, order=SERIES_ORDER):
        return dexp_series(self, sigma, v, order)

    def dexpinv(self, sigma, v, order=SERIES_ORDER):
        return dexpinv_series(self, sigma, v, order)

    def dual_dexp(self, sigma, mu, order=SERIES_ORDER):
        return dual_dexp_series(self, sigma, mu, order)

    # the stage system of the symplectic family ------------------------------
    def symplectic_stages(self, tableau, z, g0, mu0):
        """The stages [(G_1, M_1), ...] and mu0 + sum_j b_j n_j of a tableau (a, b) at z.

        z stacks (xi_1, nbar_1, ..., xi_s, nbar_s) into one flat array of
        length 2 s dim, and mu0 has shape (dim,); other shapes raise
        AlgebraMismatch.  With dd the dual dexp,

            X_i = sum_j a_ij xi_j,      G_i = exp(X_i) g0,
            n_i = coAd(exp(X_i), nbar_i),       Y = sum_i b_i xi_i,
            M_i = dd(-Y)(mu0 + sum_j b_j n_j) - sum_j (b_j a_ji / b_i) dd(X_j) nbar_j,

        (dd(X_j) nbar_j is dd(-X_j) n_j, since dd(-X) coAd(exp X) = dd(X)).
        An all-zero row has X_j = 0, so G_j = g0 and n_j = nbar_j: no exp(0).
        """
        d, s, b = self.dim, tableau.stages, tableau.b.tolist()
        z, = _flat_arrays(2 * s * d, "stacked (xi_i, nbar_i) stage variables", (z,))
        mu0, = _flat_arrays(d, "momenta", (mu0,))
        xi_at = [slice(2 * d * i, 2 * d * i + d) for i in range(s)]
        G, n, D = [], [], {}
        couplings = [[] for _ in range(s)]  # -b_j a_ji / b_i for each nonzero a_ji
        for j, row in enumerate(tableau.rows):
            for i, w in row:
                couplings[i].append((j, -b[j] * w / b[i]))
            nbar = z[2 * d * j + d:2 * d * (j + 1)]
            if row:
                X = weighted_sum([(xi_at[k], w) for k, w in row], z)
                E = self.exp(X)
                G.append(self.mul(E, g0))
                n.append(self.coAd(E, nbar))
                D[j] = self.dual_dexp(X, nbar)
            else:
                G.append(g0)
                n.append(nbar)
        mu = weighted_sum(tableau.b_terms, n, mu0)
        base = self.dual_dexp(-weighted_sum([(xi_at[j], w) for j, w in tableau.b_terms], z), mu)
        return [(g, weighted_sum(row, D, base)) for g, row in zip(G, couplings)], mu


def _flat_arrays(n, what, values):
    """The values as float arrays of shape (n,); AlgebraMismatch names another shape."""
    arrays = [np.asarray(x, dtype=float) for x in values]
    for x in arrays:
        if x.shape != (n,):
            raise AlgebraMismatch(f"{what} need shape {(n,)}, got {x.shape}")
    return arrays


def _check_same_shape(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise AlgebraMismatch(f"shapes {a.shape} and {b.shape} differ")
    return a, b


class So3Ops(GroupOps):
    """SO(3) with algebra elements as 3-vectors and rotations as 3x3 arrays."""

    dim = 3
    _ad_scale = 1.0  # ad_sigma = hat(_ad_scale * sigma)
    _dexpinv_bound = "2*pi"  # 2 pi / _ad_scale, as the domain error gives it

    def bracket(self, a, b):
        a, b = _check_same_shape(a, b)
        return cross3(a, b)

    def coad(self, xi, mu):
        return cross3(mu, xi)

    def exp(self, xi):
        return rotation_from_vector(xi)

    def log(self, g):
        return vee(logm_so3(g))

    def mul(self, g1, g2):
        return g1 @ g2

    def inv(self, g):
        return np.asarray(g).T

    def identity(self):
        return np.eye(3)

    def coAd(self, g, mu):
        # mu @ g is g.T @ mu bit for bit, without the transposed view.
        return np.asarray(mu, float) @ np.asarray(g)

    # dexp family: closed forms, so order is ignored ---------------------
    def _closed_form(self, sigma, v, coeffs, sign):
        """_ad_quadratic at sign * ad_sigma, with ad_sigma = hat(_ad_scale sigma).

        sign -1 gives the dual.  Scaling by +-1 or +-2 is exact, so S^3 gets
        the so(3) forms at 2 sigma bit for bit.
        """
        x, y, z = np.asarray(sigma, dtype=float).tolist()
        s = sign * self._ad_scale
        sx, sy, sz = s * x, s * y, s * z
        v0, v1, v2 = np.asarray(v, dtype=float).tolist()
        try:
            a, b = coeffs(math.sqrt(sx * sx + sy * sy + sz * sz))
        except DexpinvOutOfRange:
            norm = math.sqrt(x * x + y * y + z * z)
            raise DexpinvOutOfRange(f"dexpinv closed form needs |sigma| < "
                                    f"{self._dexpinv_bound}, got {norm!r}") from None
        return np.array(_ad_quadratic(sx, sy, sz, v0, v1, v2, a, b))

    def dexp(self, sigma, v, order=None):
        return self._closed_form(sigma, v, _dexp_coeffs, 1.0)

    def dexpinv(self, sigma, v, order=None):
        """Valid for |ad_sigma| < 2 pi; DexpinvOutOfRange past it."""
        return self._closed_form(sigma, v, _dexpinv_coeffs, 1.0)

    def dual_dexp(self, sigma, mu, order=None):
        return self._closed_form(sigma, mu, _dexp_coeffs, -1.0)

    def symplectic_stages(self, tableau, z, g0, mu0):
        """The composition for b = [1], a = [[theta]], z in R^6 and mu0 in R^3, on floats.

        G = exp(theta xi) g0, mu = mu0 + coAd(exp(theta xi), nbar) and
        M = dd(-xi) mu - theta dd(theta xi) nbar, bit for bit, with one
        |theta xi|^2 for exp and dd(theta xi).  G = E g0 and coAd(E, nbar) =
        nbar E stay numpy products, whose rounding (fused multiply-adds)
        Python floats need not reproduce.  Other input takes the generic form.
        """
        z, mu0 = np.asarray(z, dtype=float), np.asarray(mu0, dtype=float)
        if tableau.b.tolist() != [1.0] or z.shape != (6,) or mu0.shape != (3,):
            return super().symplectic_stages(tableau, z, g0, mu0)
        theta = tableau.rows[0][0][1] if tableau.rows[0] else 0.0  # an empty row is theta = 0
        x, y, w, n0, n1, n2 = z.tolist()
        p0, p1, p2 = mu0.tolist()
        if theta == 0.0:
            G, m0, m1, m2 = g0, p0 + n0, p1 + n1, p2 + n2
        else:
            tx, ty, tw = theta * x, theta * y, theta * w
            t2 = tx * tx + ty * ty + tw * tw
            c1, c2 = _rotation_coeffs(t2)
            E = np.array(rodrigues_entries(tx, ty, tw, c1, c2)).reshape(3, 3)
            G = E @ g0
            q0, q1, q2 = (z[3:] @ E).tolist()
            m0, m1, m2 = p0 + q0, p1 + q1, p2 + q2
            a, b = _dexp_coeffs(math.sqrt(t2))
            d0, d1, d2 = _ad_quadratic(-tx, -ty, -tw, n0, n1, n2, a, b)
        a, b = _dexp_coeffs(math.sqrt(x * x + y * y + w * w))
        e0, e1, e2 = _ad_quadratic(x, y, w, m0, m1, m2, a, b)
        if theta != 0.0:
            e0, e1, e2 = e0 - theta * d0, e1 - theta * d1, e2 - theta * d2
        return [(G, np.array([e0, e1, e2]))], np.array([m0, m1, m2])


class QuatOps(So3Ops):
    """Unit quaternions S^3 with the pure-quaternion algebra as 3-vectors.

    The identification with R^3 is such that exp covers the double rotation,
    so ad_w = hat(2 w): the group side is its own, and the closed so(3) dexp
    family is inherited with argument 2 sigma.  The symplectic stages, which
    build group elements, are the generic ones.
    """

    _ad_scale = 2.0
    _dexpinv_bound = "pi"
    symplectic_stages = GroupOps.symplectic_stages

    def bracket(self, a, b):
        a, b = _check_same_shape(a, b)
        return 2.0 * cross3(a, b)

    def coad(self, xi, mu):
        return 2.0 * cross3(mu, xi)

    def exp(self, xi):
        return quat_exp(xi)

    def log(self, g):
        return quat_log(g)

    def mul(self, g1, g2):
        return quat_mul(g1, g2)

    def inv(self, g):
        return quat_conj(g)

    def identity(self):
        return QUAT_IDENTITY.copy()

    def coAd(self, g, mu):
        return euler_rodrigues(g).T @ np.asarray(mu, float)


class MatrixOps(GroupOps):
    """Matrix Lie group with algebra and group elements as n x n arrays.

    kind selects the flavour: "so" (skew algebra, orthogonal group),
    "sl" (traceless algebra) or "gl".
    """

    def __init__(self, n, kind="gl"):
        if kind not in ("so", "sl", "gl"):
            raise ValueError(f"unknown matrix algebra kind {kind!r}")
        self.n = n
        self.kind = kind
        self.dim = {"so": n * (n - 1) // 2, "sl": n * n - 1, "gl": n * n}[kind]

    def bracket(self, a, b):
        a, b = _check_same_shape(a, b)
        if a.ndim != 2 or a.shape[0] != self.n:
            raise AlgebraMismatch(f"expected {self.n}x{self.n} matrices")
        return a @ b - b @ a

    def coad(self, xi, mu):
        xi = np.asarray(xi, float)
        mu = np.asarray(mu, float)
        return xi.T @ mu - mu @ xi.T

    def exp(self, xi):
        if self.n == 2:
            return expm_2x2(xi)
        xi = np.asarray(xi, float)
        if self.kind == "so" and self.n == 3:
            return expm_so3(xi)
        # scipy.linalg loads on the first exponential without a closed form;
        # expm stays an attribute lookup, so a wrapper set on the module is called.
        import scipy.linalg
        return scipy.linalg.expm(xi)

    def mul(self, g1, g2):
        return g1 @ g2

    def inv(self, g):
        g = np.asarray(g, float)
        if self.kind == "so":
            return g.T
        return np.linalg.inv(g)

    def identity(self):
        return np.eye(self.n)

    def coAd(self, g, mu):
        g = np.asarray(g, float)
        return g.T @ np.asarray(mu, float) @ self.inv(g).T


class AbelianOps(GroupOps):
    """An abelian group, where ad and ad* vanish and Ad* is the identity.

    Every term of the dexp series past the first is zero, so dexp, dexpinv
    and dual_dexp are a float copy of v, after the series' order check and
    the bracket's shape check.  The series turned a -0.0 entry into +0.0;
    the copy keeps it.  Subclasses provide the group side: exp, mul, inv,
    identity and, where they have one, log.
    """

    def bracket(self, a, b):
        a, b = _check_same_shape(a, b)
        return np.zeros_like(a)

    def coad(self, xi, mu):
        return np.zeros_like(np.asarray(mu, float))

    def coAd(self, g, mu):
        return np.asarray(mu, float)

    def dexp(self, sigma, v, order=SERIES_ORDER):
        _series_terms(_INV_FACT_SHIFTED, order)
        sigma, v = _check_same_shape(sigma, v)
        return v.copy()

    dexpinv = dual_dexp = dexp


class TranslationOps(AbelianOps):
    """(R^n, +): the abelian group underlying classical integrators."""

    def __init__(self, n):
        self.n = n
        self.dim = n

    def exp(self, xi):
        return np.asarray(xi, dtype=float)

    def log(self, g):
        return np.asarray(g, dtype=float)

    def mul(self, g1, g2):
        return g1 + g2

    def inv(self, g):
        return -np.asarray(g, float)

    def identity(self):
        return np.zeros(self.n)


class TorusOps(AbelianOps):
    """SO(2) x SO(2): group elements are stacked pairs of 2x2 rotations.

    Algebra coordinates are the pair of angles (a, b).  exp builds the
    rotations [[cos a, -sin a], [sin a, cos a]] on Python floats; an infinite
    angle gives NaN entries.
    """

    dim = 2

    def exp(self, xi):
        a, b = np.asarray(xi, dtype=float).tolist()
        try:
            ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
        except ValueError:  # math.cos(inf)
            return np.full((2, 2, 2), math.nan)
        return np.array([ca, -sa, sa, ca, cb, -sb, sb, cb]).reshape(2, 2, 2)

    def mul(self, g1, g2):
        return np.stack([g1[0] @ g2[0], g1[1] @ g2[1]])

    def inv(self, g):
        return np.stack([g[0].T, g[1].T])

    def identity(self):
        return np.stack([np.eye(2), np.eye(2)])


SO3 = So3Ops()
S3 = QuatOps()
SL2 = MatrixOps(2, kind="sl")


def son_ops(n):
    """SO(n) operation bundle (matrix representation)."""
    return MatrixOps(n, kind="so")
