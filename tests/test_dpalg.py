"""The divided-power algebra against exact rational arithmetic.

tau^{s} stands for tau^s / q_s!, so every identity below can be checked
with fractions; the brace multiplication law and the divided powers both
get that treatment.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopm.context import Context
from dopm.dpalg import DPElem, comult_basis, gamma_dp, pair_op, taylor
from dopm.diffops import DiffOp
from dopm.poly import Poly
from dopm.scalars import brace_mi_mod, dp_power_factor, frac_mod, mi_sum

CTXS = [Context(2, 0), Context(3, 0), Context(2, 1), Context(3, 1)]


@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}m{c.m}")
def test_basis_multiplication_is_the_brace_law(ctx):
    for a in range(ctx.tau_trunc + 1):
        for b in range(ctx.tau_trunc + 1 - a):
            lhs = DPElem.basis(ctx, (a,), ctx.p) * DPElem.basis(ctx, (b,),
                                                                ctx.p)
            c = brace_mi_mod((a,), (b,), ctx.p, ctx.m, ctx.p)
            assert lhs == DPElem.basis(ctx, (a + b,), ctx.p).scale(c)


@st.composite
def dp_elems(draw, ctx, max_terms=3, ideal=False, dilated=False):
    # dilated: tau-support in p^m * (positive indices) — the sub-ideal
    # carrying honest divided powers, the domain of every gamma below
    step = ctx.pm if dilated else 1
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        s = tuple(step * draw(st.integers(1 if ideal else 0,
                                          ctx.tau_trunc // step))
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
    for h in range(ctx.tau_trunc + 1):
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
    k = data.draw(st.integers(0, ctx.tau_trunc))
    f = Poly({(data.draw(st.integers(0, 6)),): data.draw(st.integers(1, 6)),
              (data.draw(st.integers(0, 6)),): 1}, ctx.r, ctx.p)
    op = DiffOp.dpartial(ctx, (k,))
    assert pair_op(op, taylor(ctx, f, ctx.p)) == op.apply(f)


def test_comultiplication_is_coassociative():
    # both ways of splitting tau^{n} into three legs agree
    for ctx in [Context(2, 1), Context(3, 1)]:
        mod = ctx.p ** 2
        for n in range(10):
            lhs, rhs = {}, {}
            for i, jk, c in comult_basis(ctx, (n,), mod):
                for j, k, d in comult_basis(ctx, jk, mod):
                    key = (i, j, k)
                    lhs[key] = (lhs.get(key, 0) + c * d) % mod
            for ij, k, c in comult_basis(ctx, (n,), mod):
                for i, j, d in comult_basis(ctx, ij, mod):
                    key = (i, j, k)
                    rhs[key] = (rhs.get(key, 0) + c * d) % mod
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs
            terms = {(i, j): c for i, j, c in comult_basis(ctx, (n,), mod)}
            assert terms[((0,), (n,))] == 1 == terms[((n,), (0,))]


# -- divided powers via the rational model ------------------------------------

def test_gamma_on_the_curvature_monomial():
    # gamma_k(tau^{q}) = dpPowerFactor(k) tau^{k q}, q = p^(m+1)
    for ctx in [Context(2, 0, theta_trunc=4), Context(3, 0),
                Context(2, 1), Context(3, 1)]:
        q = ctx.pm1
        for k in range(ctx.tau_trunc // q + 1):
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
        gamma_dp(DPElem.one(ctx, 2), 2)


def test_gamma_refuses_the_undilated_part_at_higher_level():
    # gamma_2(tau^{1}) = tau^2/2 = tau^{2}/2 at (2, 1): genuinely not
    # p-integral, so it must fail loudly rather than reduce garbage
    ctx = Context(2, 1)
    with pytest.raises(ArithmeticError):
        gamma_dp(DPElem.basis(ctx, (1,), 2), 2)


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
    # the same product and Taylor expansion with a deeper window, cut at
    # tau_trunc = 9, is what the default window gives
    ctx = Context(3, 0)
    deep = Context(3, 0, tau_trunc=20)

    def elem(c):
        # tau^{9} + (t + 1) tau^{1}
        return DPElem(c, {(9,): Poly.one(1, 3),
                          (1,): Poly({(1,): 1, (0,): 1}, 1, 3)}, 3)

    def cut(x):
        return {s: f for s, f in x.coeffs.items() if mi_sum(s) <= 9}

    full = elem(deep) * elem(deep)
    assert max(mi_sum(s) for s in full.coeffs) > 9
    assert (elem(ctx) * elem(ctx)).coeffs == cut(full)
    # over Z, where d^<s>(t^11) survives for every s <= 11
    f = Poly({(11,): 1, (4,): 2}, 1)
    full = taylor(deep, f, None)
    assert max(mi_sum(s) for s in full.coeffs) == 11
    assert taylor(ctx, f, None).coeffs == cut(full)
