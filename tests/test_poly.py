"""Sparse polynomial arithmetic: ring laws and the exponent maps."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dopm.context import Context
from dopm.diffops import DiffOp
from dopm.poly import Poly


@st.composite
def polys(draw, nvars=2, mod=5, max_exp=4, max_terms=4):
    n = draw(st.integers(0, max_terms))
    coeffs = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        coeffs[e] = draw(st.integers(-10, 10))
    return Poly(coeffs, nvars, mod)


@given(polys(), polys(), polys())
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f - f == Poly.zero(2, 5)


@given(polys())
def test_one_and_zero(f):
    assert f * Poly.one(2, 5) == f
    assert f + Poly.zero(2, 5) == f
    assert f * Poly.zero(2, 5) == Poly.zero(2, 5)


@given(polys(), st.integers(1, 3))
def test_exponent_dilation_round_trip(f, s):
    g = f.scale_exponents(s)
    assert g.divide_exponents(s) == f
    assert max(map(sum, g.coeffs), default=0) == \
        s * max(map(sum, f.coeffs), default=0)


def test_divide_exponents_rejects_ragged():
    f = Poly({(3,): 1}, 1, 5)
    with pytest.raises(ValueError):
        f.divide_exponents(2)


def test_derivative_leibniz():
    f = Poly({(2, 1): 3, (0, 2): 1}, 2, 7)
    g = Poly({(1, 1): 2, (3, 0): 4}, 2, 7)
    for i in (0, 1):
        assert (f * g).derivative(i) == \
            f.derivative(i) * g + f * g.derivative(i)


def test_mixed_family_arithmetic_is_a_bug():
    f = Poly({(1,): 1}, 1, 5, var="t")
    g = Poly({(1,): 1}, 1, 5, var="t'")
    with pytest.raises(AssertionError):
        f + g


def test_reduce_and_lift():
    f = Poly({(1,): 7, (0,): 12}, 1, None)
    assert f.reduce(5) == Poly({(1,): 2, (0,): 2}, 1, 5)
    g = Poly({(2,): 3}, 1, 5)
    lifted = Poly(dict(g.coeffs), 1, None, g.var)
    assert lifted.mod is None and lifted.reduce(5) == g


def test_only_a_poly_or_an_int_multiplies_a_poly():
    # an operator on the right is not a scalar: Python raises TypeError
    # instead of scaling f by it coefficient by coefficient
    ctx = Context(3, 0)
    f = Poly({(1,): 1, (0,): 2}, 1, 3)
    assert f * 2 == 2 * f == f.scale(2)
    for other in (DiffOp.dpartial(ctx, (1,)), Fraction(1, 2), 0.5, "t1"):
        with pytest.raises(TypeError):
            f * other
    for other in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            other * f
