from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ligi.errors import AlgebraMismatch
from ligi.liealg import S3, SL2, SO3, MatrixOps, TorusOps, TranslationOps, son_ops
from ligi.semidirect import CotangentOps
from oracles import random_rotation, rk4_solve, semidirect_Ad

CT = CotangentOps(SO3)


def random_element(rng, scale=1.0):
    return CT.join(rng.normal(size=3) * scale, rng.normal(size=3) * scale)


def random_group_element(rng, base=SO3):
    g = random_rotation(rng) if base is SO3 else base.exp(rng.normal(size=base.dim))
    return g, rng.normal(size=base.dim)


def test_identity_law(rng):
    g = random_group_element(rng)
    e = CT.identity()
    left = CT.mul(e, g)
    assert np.allclose(left[0], g[0], atol=1e-15)
    assert np.allclose(left[1], g[1], atol=1e-15)


def test_inverse_by_product(rng):
    # Candidate inverse (g^{-1}, -coAd(g, mu)) verified through the product.
    for _ in range(50):
        a = random_group_element(rng)
        prod = CT.mul(a, CT.inv(a))
        assert np.linalg.norm(prod[0] - np.eye(3)) < 1e-12
        assert np.linalg.norm(prod[1]) < 1e-12


def test_associativity(rng):
    # SO(3) takes the float product; the abelian groups take the composition.
    for base in (SO3, TranslationOps(2), TorusOps()):
        ct = CotangentOps(base)
        for _ in range(50):
            a, b, c = (random_group_element(rng, base) for _ in range(3))
            lhs = ct.mul(ct.mul(a, b), c)
            rhs = ct.mul(a, ct.mul(b, c))
            assert np.linalg.norm(lhs[0] - rhs[0]) < 1e-12
            assert np.linalg.norm(lhs[1] - rhs[1]) < 1e-12


def test_exp_abelian_fibre(rng):
    nu = rng.normal(size=3)
    g, mu = CT.exp(CT.join(np.zeros(3), nu))
    assert np.array_equal(g, np.eye(3))
    assert np.allclose(mu, nu, atol=1e-15)


def test_exp_base_subgroup(rng):
    xi = rng.normal(size=3)
    g, mu = CT.exp(CT.join(xi, np.zeros(3)))
    assert np.allclose(g, SO3.exp(xi), atol=1e-15)
    assert np.allclose(mu, 0.0, atol=1e-15)


def test_exp_one_parameter_property(rng):
    for _ in range(20):
        x = random_element(rng, 0.7)
        s, t = rng.uniform(0.1, 0.9, size=2)
        combined = CT.exp((s + t) * x)
        split = CT.mul(CT.exp(s * x), CT.exp(t * x))
        assert np.linalg.norm(combined[0] - split[0]) < 1e-10
        assert np.linalg.norm(combined[1] - split[1]) < 1e-10


def test_exp_fibre_matches_ode_oracle(rng):
    # The momentum component of exp solves mu' = nu - coad(xi, mu), mu(0) = 0.
    for _ in range(10):
        x = random_element(rng)
        xi, nu = CT.split(x)
        mu = rk4_solve(lambda m: nu - SO3.coad(xi, m), np.zeros(3), 1.0, 2000)
        assert np.linalg.norm(CT.exp(x)[1] - mu) < 1e-8


def test_bracket_matches_conjugation_derivative(rng):
    for _ in range(20):
        x = random_element(rng)
        y = random_element(rng)
        t = 1e-6
        fd = (semidirect_Ad(CT, CT.exp(t * x), y)
              - semidirect_Ad(CT, CT.exp(-t * x), y)) / (2.0 * t)
        assert np.max(np.abs(fd - CT.bracket(x, y))) < 1e-8


def test_bracket_jacobi(rng):
    for _ in range(20):
        a, b, c = (random_element(rng) for _ in range(3))
        total = (CT.bracket(a, CT.bracket(b, c))
                 + CT.bracket(b, CT.bracket(c, a))
                 + CT.bracket(c, CT.bracket(a, b)))
        assert np.max(np.abs(total)) < 1e-12


@pytest.mark.parametrize("base", [son_ops(5), SL2, MatrixOps(3, "so")],
                         ids=["so5", "SL2", "so3_matrix"])
def test_matrix_algebra_base_is_refused(base):
    # n x n algebra elements cannot stack into a flat (xi, nu).
    with pytest.raises(AlgebraMismatch, match="stacks flat algebra vectors"):
        CotangentOps(base)


def test_quaternion_base_group(rng):
    ct = CotangentOps(S3)
    x = ct.join(rng.normal(size=3) * 0.4, rng.normal(size=3))
    a = ct.exp(0.5 * x)
    prod = ct.mul(a, ct.inv(a))
    assert np.allclose(prod[0], [1.0, 0, 0, 0], atol=1e-12)
    assert np.linalg.norm(prod[1]) < 1e-12


# CotangentOps' float kernels on SO(3) and S^3 against its compositions from
# the base's own operations.  The bracket has no kernel: its check pins
# CotangentOps.bracket to the composition.
BASES = {"SO3": SO3, "S3": S3}
SERIES = ("dexp", "dexpinv")
entries = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([np.nan, 1e200, -1e200, 0.0, -0.0]))
sixes = st.lists(entries, min_size=6, max_size=6)


@cache
def generic(base):
    """CotangentOps over a subclass of base's type, which takes no float kernel."""
    return CotangentOps(type(f"Generic{type(base).__name__}", (type(base),), {})())


def same(got, expected):
    return np.array_equal(got, expected, equal_nan=True)


@given(base=st.sampled_from(sorted(BASES)), a=sixes, b=sixes, as_list=st.booleans(),
       xi_scale=st.sampled_from([1.0, 1e-5]), order=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_float_semidirect_bracket_equals_generic_composition(base, a, b, as_list, xi_scale,
                                                             order):
    # Bit for bit, NaN or inf out where the composition gives them, never an exception.
    # xi_scale puts |xi| on both sides of SMALL_ANGLE, where the coefficients switch form.
    base = BASES[base]
    ct, reference = CotangentOps(base), generic(base)
    a = [xi_scale * v for v in a[:3]] + a[3:]
    x, y = (a, b) if as_list else (np.array(a), np.array(b))
    with np.errstate(all="ignore"):
        got = ct.bracket(x, y)
        assert got.shape == (6,) and got.dtype == float
        assert same(got, reference.bracket(x, y))
        for name in SERIES:
            assert same(getattr(ct, name)(x, y, order), getattr(reference, name)(x, y, order))
        A, B = ct.exp(x), ct.exp(y)
        for got, expected in zip((*A, *B), (*reference.exp(x), *reference.exp(y))):
            assert same(got, expected)
        if as_list:
            A, B = (A[0], A[1].tolist()), (B[0], B[1].tolist())
        for got, expected in zip(ct.mul(A, B), reference.mul(A, B)):
            assert same(got, expected)


def semidirect_forms(base):
    """{form: (generic composition, CotangentOps call)} on two arguments.

    exp takes the first argument that is not a 6-vector, and the product takes
    the two as the momenta of two elements at the identity.
    """
    e = base.identity()

    def exp_arg(a, b):
        return a if a.shape != (6,) else b

    def forms(ct):
        return {
            "bracket": ct.bracket,
            "exp": lambda a, b: ct.exp(exp_arg(a, b)),
            "mul": lambda a, b: ct.mul((e, a), (e, b)),
            **{name: lambda a, b, name=name: getattr(ct, name)(a, b, 2) for name in SERIES},
        }

    reference, kernel = forms(generic(base)), forms(CotangentOps(base))
    return {form: (reference[form], kernel[form]) for form in kernel}


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("shape_a,shape_b", [((2,), (6,)), ((3,), (6,)), ((5,), (6,)),
                                             ((7,), (6,)), ((6,), (4,)), ((6, 1), (6, 1)),
                                             ((6, 1), (6,)), ((2, 3), (2, 3)), ((), (6,))])
def test_mis_sized_semidirect_bracket_raises_as_generic(base, shape_a, shape_b):
    # The bracket, the exponential, the product and the series, each as its generic form.
    a, b = np.ones(shape_a), np.full(shape_b, 2.0)
    for form, (reference, kernel) in semidirect_forms(BASES[base]).items():
        with pytest.raises(AlgebraMismatch) as reference_error:
            reference(a, b)
        with pytest.raises(AlgebraMismatch) as kernel_error:
            kernel(a, b)
        assert type(kernel_error.value) is type(reference_error.value), form
        assert str(kernel_error.value) == str(reference_error.value), form
