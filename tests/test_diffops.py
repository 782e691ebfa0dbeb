"""The operator ring: composition, the center, normal forms, level maps.

Composition has an action oracle — (P Q)(f) must equal P(Q(f)) — and the
center's scalars have closed forms over Q (`closed_forms`), each 1 mod p.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopm.context import Context
from dopm.diffops import (DiffOp, frob_descend, frob_raise, kaneda_matrix,
                          quotient_matrix, theta, theta_power, zo_decompose)
from dopm.linalg import pmat_eq, pmat_mul
from dopm.poly import Poly
from dopm.scalars import (angle_mi_mod, box, box_le, brace_mi_mod,
                          dp_monomial_action, mi_add, mi_scale, mi_sub,
                          mi_unit)

from closed_forms import central_unit, mod_p, peel_angle, theta_unit

CTXS = [Context(2, 0), Context(3, 0), Context(2, 1), Context(3, 1),
        Context(2, 0, r=2), Context(3, 1, r=2)]


@st.composite
def ops(draw, ctx, max_index=None, max_terms=3, max_exp=3):
    hi = max_index if max_index is not None else ctx.pm1 + 2
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        k = tuple(draw(st.integers(0, hi)) for _ in range(ctx.r))
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(ctx.r))
        c = draw(st.integers(1, ctx.p - 1)) if ctx.p > 2 else 1
        f = Poly.monomial(e, c, ctx.r, ctx.p)
        terms[k] = terms.get(k, Poly.zero(ctx.r, ctx.p)) + f
    return DiffOp(ctx, terms)


@st.composite
def fns(draw, ctx, max_exp=5):
    coeffs = {}
    for _ in range(draw(st.integers(0, 3))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(ctx.r))
        coeffs[e] = draw(st.integers(1, max(ctx.p - 1, 1)))
    return Poly(coeffs, ctx.r, ctx.p)


def apply_dp(ctx, s, f):
    """d^<s>(f): the basis operator d^<s> applied to f."""
    return DiffOp.dpartial(ctx, s).apply(f)


# -- the basis action ---------------------------------------------------------

@pytest.mark.parametrize("ctx", CTXS[:4], ids=lambda c: f"p{c.p}m{c.m}")
def test_apply_dp_closed_form(ctx):
    for s in range(9):
        for h in range(9):
            got = apply_dp(ctx, (s,), Poly.monomial((h,), 1, 1, ctx.p))
            c = factorial(s // ctx.pm) * comb(h, s) % ctx.p if s <= h else 0
            want = Poly.monomial((h - s,), c, 1, ctx.p) if c else \
                Poly.zero(1, ctx.p)
            assert got == want


# Wide corners for the oracles of the dict-level kernel: p = 7 at m = 2,
# r = 3, and exponents past the period of the residue tables.
ORACLE_CTXS = [Context(2, 0), Context(3, 1), Context(5, 0), Context(7, 0),
               Context(7, 2), Context(2, 3), Context(2, 1, r=2),
               Context(3, 0, r=3), Context(2, 0, r=3)]
ORACLE_IDS = [f"p{c.p}m{c.m}r{c.r}" for c in ORACLE_CTXS]


def dp_oracle(ctx, s, f):
    """d^<s>(f) from the exact structure integers of dp_monomial_action."""
    out = {}
    for h, c in f.coeffs.items():
        a = dp_monomial_action(s, h, ctx.p, ctx.m)
        if a:
            e = mi_sub(h, s)
            out[e] = out.get(e, 0) + a * c
    return Poly(out, ctx.r, f.mod, f.var)


def mul_oracle(a, b):
    """P * Q as the Poly-per-term sum, the composition law before the
    dict-level kernel: sum over f d^<k> in P, g d^<l> in Q and i <= k of
    {k \\ i} <k-i+l \\ k-i> f d^<i>(g) d^<k-i+l>, through brace_mi_mod,
    angle_mi_mod and apply_dp."""
    ctx = a.ctx
    p, m = ctx.p, ctx.m
    zero = Poly.zero(ctx.r, p)
    out = {}
    for k, f in a.terms.items():
        for l, g in b.terms.items():
            for i in box_le(tuple(map(min, k, g.max_exps()))):
                ki = mi_sub(k, i)
                c = brace_mi_mod(i, ki, p, m, p) * \
                    angle_mi_mod(ki, l, p, m, p) % p
                gi = apply_dp(ctx, i, g)
                if c and gi:
                    s = mi_add(ki, l)
                    out[s] = out.get(s, zero) + (f * gi).scale(c)
    return DiffOp(ctx, out)


def _wide(ctx):
    """An index bound past p^(m+1), and an exponent bound past it and
    past 40, so that exponents run over several periods of the residue
    tables."""
    top = 2 * ctx.pm1 + 3 if ctx.r == 1 else ctx.pm1 + 4
    return top, max(top, 50)


@pytest.mark.parametrize("ctx", ORACLE_CTXS, ids=ORACLE_IDS)
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_apply_dp_is_the_exact_structure_integer(ctx, data):
    index, exp = _wide(ctx)
    f = data.draw(fns(ctx, max_exp=exp))
    s = tuple(data.draw(st.integers(0, index)) for _ in range(ctx.r))
    assert apply_dp(ctx, s, f) == dp_oracle(ctx, s, f)
    op = data.draw(ops(ctx, max_index=index, max_exp=exp))
    want = Poly.zero(ctx.r, ctx.p)
    for k, g in op.terms.items():
        want = want + g * dp_oracle(ctx, k, f)
    assert op.apply(f) == want


@pytest.mark.parametrize("ctx", ORACLE_CTXS, ids=ORACLE_IDS)
@given(st.data())
@settings(max_examples=10, deadline=None)
def test_mul_is_the_poly_per_term_oracle(ctx, data):
    index, exp = _wide(ctx)
    a = data.draw(ops(ctx, max_index=index, max_exp=exp))
    b = data.draw(ops(ctx, max_index=index, max_exp=exp))
    assert a * b == mul_oracle(a, b)


@pytest.mark.parametrize("ctx", ORACLE_CTXS, ids=ORACLE_IDS)
@given(st.data())
@settings(max_examples=10, deadline=None)
def test_products_with_only_the_a_zero_term_are_the_oracle(ctx, data):
    # a pair f d^<k>, g d^<l> with k = 0 or g constant has only the a = 0
    # Leibniz term, as in every product parse builds from the rendered
    # form (f)*d1<k>*d2<j>; random ops seldom draw those shapes
    index, exp = _wide(ctx)
    a = data.draw(ops(ctx, max_index=index, max_exp=exp))
    b = data.draw(ops(ctx, max_index=index, max_exp=exp))
    fn = data.draw(ops(ctx, max_index=0, max_exp=exp))
    consts = data.draw(ops(ctx, max_index=index, max_exp=0))
    assert fn * b == mul_oracle(fn, b)              # a function on the left
    assert a * consts == mul_oracle(a, consts)      # constant coefficients
    # mixed: only some of the pairs have only the a = 0 term
    a, b = a + fn, b + consts
    assert a * b == mul_oracle(a, b)


def test_first_partial_is_the_derivative():
    ctx = Context(5, 0, r=2)
    f = Poly({(3, 1): 2, (0, 4): 3, (1, 1): 1}, 2, 5)
    for i in range(2):
        d = DiffOp.dpartial(ctx, mi_unit(2, i))
        assert d.apply(f) == f.derivative(i)


# -- composition --------------------------------------------------------------

@given(st.data())
@settings(max_examples=50, deadline=None)
def test_composition_matches_the_action(data):
    ctx = data.draw(st.sampled_from(CTXS))
    a = data.draw(ops(ctx))
    b = data.draw(ops(ctx))
    f = data.draw(fns(ctx))
    assert (a * b).apply(f) == a.apply(b.apply(f))


def test_only_an_operator_multiplies_an_operator():
    # a polynomial on the right is not an operator: Python raises TypeError
    # instead of composing with it or failing in the context check
    ctx = Context(3, 0)
    op = DiffOp.dpartial(ctx, (1,))
    assert op * DiffOp.one(ctx) == DiffOp.one(ctx) * op == op
    for other in (Poly({(1,): 1, (0,): 2}, 1, 3), 2, Fraction(1, 2), 0.5,
                  "t1"):
        with pytest.raises(TypeError):
            op * other
        with pytest.raises(TypeError):
            other * op


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_mul_is_associative(data):
    ctx = data.draw(st.sampled_from(CTXS))
    a = data.draw(ops(ctx, max_terms=2))
    b = data.draw(ops(ctx, max_terms=2))
    c = data.draw(ops(ctx, max_terms=2))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_power_is_the_repeated_product(data):
    ctx = data.draw(st.sampled_from(CTXS))
    a = data.draw(ops(ctx, max_terms=2))
    want = DiffOp.one(ctx)
    for n in range(7):
        assert a ** n == want
        want = want * a


@pytest.mark.parametrize("ctx", CTXS[:4], ids=lambda c: f"p{c.p}m{c.m}")
def test_basis_product_is_the_angle_law(ctx):
    for k in range(7):
        for l in range(7):
            got = DiffOp.dpartial(ctx, (k,)) * DiffOp.dpartial(ctx, (l,))
            c = angle_mi_mod((k,), (l,), ctx.p, ctx.m, ctx.p)
            want = DiffOp.dpartial(ctx, (k + l,)).scale(c)
            assert got == want


def test_heisenberg_commutator():
    for ctx in CTXS[:4]:
        t = DiffOp.from_poly(ctx, Poly.variable(0, ctx.r, ctx.p))
        d = DiffOp.dpartial(ctx, mi_unit(ctx.r, 0))
        assert d * t - t * d == DiffOp.one(ctx)


# -- the center ---------------------------------------------------------------

def ring_generators(ctx):
    """t_i, t_i^q and d_i^<p^l>, l <= m: the t_i and d_i^<p^l> generate
    D^(m) over k, and t_i^q = t'_i is central."""
    gens = []
    for i in range(ctx.r):
        for e in (1, ctx.pm1):
            gens.append(DiffOp.from_poly(
                ctx, Poly.monomial(mi_scale(mi_unit(ctx.r, i), e), 1,
                                   ctx.r, ctx.p)))
        for l in range(ctx.m + 1):
            gens.append(DiffOp.dpartial(ctx, mi_scale(mi_unit(ctx.r, i),
                                                      ctx.p**l)))
    return gens


def is_central(op):
    return all(op * g == g * op for g in ring_generators(op.ctx))


@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}m{c.m}r{c.r}")
def test_theta_is_central_and_kills_functions(ctx):
    for i in range(ctx.r):
        th = theta(ctx, i)
        assert is_central(th)
        f = Poly({(2,) * ctx.r: 1, (1,) * ctx.r: ctx.p - 1}, ctx.r, ctx.p)
        assert not th.apply(f)
    d = DiffOp.dpartial(ctx, mi_unit(ctx.r, 0))
    assert not is_central(d)


UNIT_GRID = [(p, m) for p in (2, 3, 5, 7) for m in range(4)]


UNIT_IDS = [f"p{p}m{m}" for p, m in UNIT_GRID]


@pytest.mark.parametrize("p, m", UNIT_GRID, ids=UNIT_IDS)
def test_theta_unit_oracle(p, m):
    # (d^<p^m>)^p = u theta with the rational u 1 mod p, so with no scalar
    ctx = Context(p, m)
    assert mod_p(theta_unit(p, m), p) == 1
    assert DiffOp.dpartial(ctx, (ctx.pm,)) ** p == theta(ctx, 0)


@pytest.mark.parametrize("p, m", UNIT_GRID, ids=UNIT_IDS)
def test_central_unit_oracle(p, m):
    # the rationals A_c and <cq+s \ cq> are 1 mod p, so the ring
    # identities hold with no scalar; s < q is every s up to q = 64, a
    # sample with the ends and the p^m boundary above
    ctx = Context(p, m)
    pm, q = ctx.pm, ctx.pm1
    rng = random.Random(f"units/{p}/{m}")
    for c in range(1, 5):
        assert mod_p(central_unit(p, m, (c,)), p) == 1
        dcq = DiffOp.dpartial(ctx, (c * q,))
        assert theta(ctx, 0) ** c == dcq == theta_power(ctx, (c,))
        for s in {0, pm - 1, pm, q - 1, *rng.sample(range(q), min(q, 64))}:
            assert mod_p(peel_angle(p, m, c, s), p) == 1
            assert dcq * DiffOp.dpartial(ctx, (s,)) == \
                DiffOp.dpartial(ctx, (c * q + s,))


def test_theta_powers_multiply_across_coordinates():
    ctx = Context(2, 1, r=2)
    lhs = (theta(ctx, 0) ** 2) * theta(ctx, 1)
    assert lhs == theta_power(ctx, (2, 1))


# -- normal forms -------------------------------------------------------------

@given(st.data())
@settings(max_examples=40, deadline=None)
def test_zo_round_trip(data):
    ctx = data.draw(st.sampled_from(CTXS))
    op = data.draw(ops(ctx))
    q, r = ctx.pm1, ctx.r
    terms = {}
    for u, z in zo_decompose(op).items():
        for e, c in z.coeffs.items():
            # t^e th^c in z_u is t^e d^<c q + u>
            k = mi_add(mi_scale(e[r:], q), u)
            terms.setdefault(k, {})[e[:r]] = c
    assert DiffOp(ctx, {k: Poly(f, r, ctx.p)
                        for k, f in terms.items()}) == op


def test_kaneda_block_form():
    # right multiplication by d^<k> on the small-index basis at m = 0:
    # an identity block shifted by k, with theta entries where the index
    # wraps past p
    for p in (2, 3, 5):
        ctx = Context(p, 0)
        th = Poly.monomial((0, 1), 1, 2, p, "t|th")
        one = Poly.one(2, p, "t|th")
        zero = Poly.zero(2, p, "t|th")
        for k in range(p):
            want = [[zero] * p for _ in range(p)]
            for t in range(p):
                if t + k < p:
                    want[t + k][t] = one
                else:
                    want[t + k - p][t] = th
            got = kaneda_matrix(DiffOp.dpartial(ctx, (k,)))
            assert pmat_eq(got, want)


def kaneda_oracle(op):
    """The Kaneda matrix column by column: column t is the normal form
    zo_decompose(d^<t> * P), read into rows by the index u < q."""
    ctx = op.ctx
    basis = list(box(ctx.pm1, ctx.r))
    idx = {u: n for n, u in enumerate(basis)}
    zero = Poly.zero(2 * ctx.r, ctx.p, "t|th")
    mat = [[zero] * len(basis) for _ in basis]
    for col, t in enumerate(basis):
        for u, z in zo_decompose(DiffOp.dpartial(ctx, t) * op).items():
            mat[idx[u]][col] = z
    return mat


# every (p, m, r) with p in {2, 3, 5, 7}, m <= 3, r <= 3 and q^r <= 64
KANEDA_GRID = [(p, m, r) for p in (2, 3, 5, 7) for m in range(4)
               for r in (1, 2, 3) if p ** ((m + 1) * r) <= 64]


@pytest.mark.parametrize("p, m, r", KANEDA_GRID,
                         ids=[f"p{p}m{m}r{r}" for p, m, r in KANEDA_GRID])
@given(st.data())
@settings(max_examples=6, deadline=None)
def test_kaneda_matrix_is_the_column_oracle(p, m, r, data):
    # orders up to 2q + 1 reach the th shifts; constant coefficients and
    # the zero operator ride along
    ctx = Context(p, m, r)
    q = ctx.pm1
    a = data.draw(ops(ctx, max_index=2 * q + 1, max_exp=q + 1))
    consts = data.draw(ops(ctx, max_index=2 * q + 1, max_exp=0))
    for op in (a, consts, a + consts, DiffOp.zero(ctx)):
        got = kaneda_matrix(op)
        assert len(got) == q ** r and pmat_eq(got, kaneda_oracle(op))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_kaneda_is_an_antihomomorphism(data):
    ctx = data.draw(st.sampled_from([Context(2, 0), Context(3, 0),
                                     Context(2, 1)]))
    a = data.draw(ops(ctx, max_terms=2))
    b = data.draw(ops(ctx, max_terms=2))
    assert pmat_eq(kaneda_matrix(a * b),
                   pmat_mul(kaneda_matrix(b), kaneda_matrix(a)))


def test_quotient_matrix_values():
    ctx = Context(2, 0)
    tp = Poly.variable(0, 1, 2, "t'")
    one, zero = Poly.one(1, 2, "t'"), Poly.zero(1, 2, "t'")
    d = quotient_matrix(DiffOp.dpartial(ctx, (1,)))
    assert pmat_eq(d, [[zero, one], [zero, zero]])
    t = quotient_matrix(DiffOp.from_poly(ctx, Poly.variable(0, 1, 2)))
    assert pmat_eq(t, [[zero, tp], [one, zero]])
    # theta acts as zero on the quotient
    assert pmat_eq(quotient_matrix(theta(ctx, 0)),
                   [[zero, zero], [zero, zero]])


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_quotient_matrix_is_a_homomorphism(data):
    ctx = data.draw(st.sampled_from([Context(2, 0), Context(3, 0),
                                     Context(2, 1)]))
    a = data.draw(ops(ctx, max_terms=2))
    b = data.draw(ops(ctx, max_terms=2))
    assert pmat_eq(quotient_matrix(a * b),
                   pmat_mul(quotient_matrix(a), quotient_matrix(b)))


# -- level maps ---------------------------------------------------------------

@given(st.data())
@settings(max_examples=30, deadline=None)
def test_frobenius_raise_descend_round_trip(data):
    ctx = data.draw(st.sampled_from([Context(2, 0), Context(3, 0),
                                     Context(2, 1, r=2)]))
    op = data.draw(ops(ctx))
    up = frob_raise(op)
    assert frob_descend(up, divide_coeffs=True) == op
    a = data.draw(ops(ctx, max_terms=2))
    assert frob_raise(op * a) == frob_raise(op) * frob_raise(a)


def test_frob_descend_keeps_divisible_indices_only():
    ctx = Context(2, 1)
    op = DiffOp.dpartial(ctx, (2,), coeff=Poly.variable(0, 1, 2)) + \
        DiffOp.dpartial(ctx, (3,))
    down = frob_descend(op)
    want = DiffOp.dpartial(Context(2, 0), (1,),
                           coeff=Poly.variable(0, 1, 2))
    assert down == want
