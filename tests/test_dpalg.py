"""The divided-power algebra against exact rational arithmetic.

tau^{s} stands for tau^s / q_s!, so every identity below can be checked
with fractions; the brace multiplication law and the divided powers both
get that treatment.
"""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dopm
from dopm.context import Context
from dopm.dpalg import DPElem, gamma_dp, pair_op, taylor
from dopm.diffops import DiffOp
from dopm.poly import Poly
from dopm.scalars import brace_mi_mod, dp_power_factor, frac_mod, mi_sum

CTXS = [Context(2, 0), Context(3, 0), Context(2, 1), Context(3, 1)]


@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}m{c.m}")
def test_basis_multiplication_is_the_brace_law(ctx):
    top = ctx.pm1 * ctx.theta_trunc
    for a in range(top + 1):
        for b in range(top + 1 - a):
            lhs = DPElem.basis(ctx, (a,), ctx.p) * DPElem.basis(ctx, (b,),
                                                                ctx.p)
            c = brace_mi_mod((a,), (b,), ctx.p, ctx.m, ctx.p)
            assert lhs == DPElem.basis(ctx, (a + b,), ctx.p).scale(c)


@st.composite
def dp_elems(draw, ctx, max_terms=3, ideal=False, dilated=False):
    # dilated: tau-support in p^m * (positive indices) — the sub-ideal
    # carrying honest divided powers, the domain of every gamma below
    step = ctx.pm if dilated else 1
    top = ctx.pm1 * ctx.theta_trunc
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        s = tuple(step * draw(st.integers(1 if ideal else 0,
                                          top // step))
                  for _ in range(ctx.r))
        e = tuple(draw(st.integers(0, 3)) for _ in range(ctx.r))
        f = Poly.monomial(e, draw(st.integers(1, ctx.p - 1)) if ctx.p > 2
                          else 1, ctx.r, ctx.p)
        coeffs[s] = coeffs.get(s, Poly.zero(ctx.r, ctx.p)) + f
    return DPElem(ctx, coeffs, ctx.p)


@given(st.data())
@settings(max_examples=40)
def test_mul_is_associative_and_commutative(data):
    ctx = data.draw(st.sampled_from(CTXS))
    x = data.draw(dp_elems(ctx))
    y = data.draw(dp_elems(ctx))
    z = data.draw(dp_elems(ctx))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


# -- the Taylor embedding -----------------------------------------------------

@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}m{c.m}")
@pytest.mark.parametrize("mod_exp", [1, 2])
def test_taylor_coefficients_on_monomials(ctx, mod_exp):
    # coeff of tau^{s} in t^h(t + tau) is q_s! C(h, s) t^(h-s)
    mod = ctx.p ** mod_exp
    for h in range(ctx.pm1 * ctx.theta_trunc + 1):
        w = taylor(ctx, Poly.monomial((h,), 1, ctx.r, mod), mod)
        for s in range(h + 1):
            c = factorial(s // ctx.pm) * comb(h, s) % mod
            want = Poly.monomial((h - s,), c, ctx.r, mod) if c else None
            assert w.coeffs.get((s,)) == want
        assert w.constant_term() == Poly.monomial((h,), 1, ctx.r, mod)


@given(st.data())
@settings(max_examples=30)
def test_taylor_is_multiplicative(data):
    ctx = data.draw(st.sampled_from(CTXS))
    f = Poly({(data.draw(st.integers(0, 3)),): data.draw(st.integers(1, 6)),
              (data.draw(st.integers(0, 3)),): 1}, ctx.r, ctx.p)
    g = Poly({(data.draw(st.integers(0, 3)),): data.draw(st.integers(1, 6))},
             ctx.r, ctx.p)
    assert taylor(ctx, f * g, ctx.p) == \
        taylor(ctx, f, ctx.p) * taylor(ctx, g, ctx.p)


@given(st.data())
@settings(max_examples=40)
def test_pairing_duality(data):
    # <P, taylor(f)> = P(f) for basis operators and small polynomials
    ctx = data.draw(st.sampled_from(CTXS))
    k = data.draw(st.integers(0, ctx.pm1 * ctx.theta_trunc))
    f = Poly({(data.draw(st.integers(0, 6)),): data.draw(st.integers(1, 6)),
              (data.draw(st.integers(0, 6)),): 1}, ctx.r, ctx.p)
    op = DiffOp.dpartial(ctx, (k,))
    assert pair_op(op, taylor(ctx, f, ctx.p)) == op.apply(f)


# -- divided powers via the rational model ------------------------------------

def test_gamma_on_the_curvature_monomial():
    # gamma_k(tau^{q}) = dpPowerFactor(k) tau^{k q}, q = p^(m+1)
    for ctx, top in [(Context(2, 0), 4), (Context(3, 0), 3),
                     (Context(2, 1), 3), (Context(3, 1), 3)]:
        q = ctx.pm1
        for k in range(top + 1):
            got = gamma_dp(DPElem.basis(ctx, (q,), ctx.p), k)
            want = DPElem.basis(ctx, (k * q,), ctx.p).scale(
                dp_power_factor(k, ctx.p) % ctx.p)
            assert got == want


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_gamma_product_law(data):
    # gamma_a(w) gamma_b(w) = C(a+b, a) gamma_{a+b}(w)
    ctx = data.draw(st.sampled_from(CTXS))
    w = data.draw(dp_elems(ctx, ideal=True, dilated=True))
    a = data.draw(st.integers(0, 3))
    b = data.draw(st.integers(0, 3))
    lhs = gamma_dp(w, a) * gamma_dp(w, b)
    rhs = gamma_dp(w, a + b).scale(comb(a + b, a) % ctx.p)
    assert lhs == rhs


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_gamma_is_lift_independent(data):
    ctx = data.draw(st.sampled_from(CTXS))
    w = data.draw(dp_elems(ctx, ideal=True, dilated=True))
    k = data.draw(st.integers(1, 4))
    shift = data.draw(st.integers(1, 5))
    plain = gamma_dp(w, k)
    other = gamma_dp(w, k, lift=lambda s, e, c: c + ctx.p * shift * sum(s))
    assert plain == other


def test_gamma_needs_zero_constant_term():
    ctx = Context(2, 0)
    with pytest.raises(ValueError):
        gamma_dp(DPElem.basis(ctx, (0,), 2), 2)


def test_gamma_refuses_the_undilated_part_at_higher_level():
    # gamma_2(tau^{1}) = tau^2/2 = tau^{2}/2 at (2, 1): genuinely not
    # p-integral, so it must fail loudly rather than reduce garbage
    ctx = Context(2, 1)
    with pytest.raises(ArithmeticError):
        gamma_dp(DPElem.basis(ctx, (1,), 2), 2)


def test_gamma_refuses_the_undilated_part_under_python_O():
    # python -O strips assert statements: the p-integrality check is a raise
    src = str(pathlib.Path(dopm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from dopm.context import Context\n"
            "from dopm.dpalg import DPElem, gamma_dp\n"
            "try:\n"
            "    gamma_dp(DPElem.basis(Context(2, 1), (1,), 2), 2)\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert res.returncode == 0


def test_gamma_exact_values_at_p3():
    # w = 2 t^2 tau + t tau^{2} + tau^{3}: the standard divided Frobenius;
    # gamma_2 picks up 2 t^3 (t tau^3, over Q) at tau^{3} -> 6 = 0 mod 3,
    # gamma_3 gives (2t^2)^3 tau^3 / 3! = 8 t^6 tau^{3}
    ctx = Context(3, 0)
    w = DPElem(ctx, {(1,): Poly.monomial((2,), 2, 1, 3),
                     (2,): Poly.monomial((1,), 1, 1, 3),
                     (3,): Poly.one(1, 3)}, 3)
    g3 = gamma_dp(w, 3)
    assert g3.coeffs[(3,)] == Poly.monomial((6,), 2, 1, 3)
    g2 = gamma_dp(w, 2)
    assert (3,) not in g2.coeffs
    assert g2.coeffs[(2,)] == Poly.monomial((4,), 1, 1, 3)


def test_terms_above_trunc_are_dropped():
    # gamma_dp(w, k, top=T) is the exact power with its tau-degrees above
    # T removed (tau-degrees only ever add); products and Taylor images
    # keep every term
    ctx = Context(3, 0, r=2)
    # tau_1^{3} + t_2 tau_1^{1} tau_2^{2} + 2 t_1^2 tau_2^{1}
    w = DPElem(ctx, {(3, 0): Poly.one(2, 3),
                     (1, 2): Poly.monomial((0, 1), 1, 2, 3),
                     (0, 1): Poly.monomial((2, 0), 2, 2, 3)}, 3)
    for k in range(1, 5):
        for mod in (0, None):
            full = gamma_dp(w, k, mod=mod)
            assert max(mi_sum(s) for s in full.coeffs) > k
            for top in range(k, 3 * k + 1):
                assert gamma_dp(w, k, mod=mod, top=top).coeffs == \
                    {s: f for s, f in full.coeffs.items() if mi_sum(s) <= top}
    top = ctx.pm1 * ctx.theta_trunc
    assert (DPElem.basis(ctx, (top, 0), 3) * DPElem.basis(ctx, (0, top), 3)
            ).coeffs == {(top, top): Poly.one(2, 3)}
    assert (11, 0) in taylor(ctx, Poly({(11, 0): 1}, 2), None).coeffs
