"""Liftings mod p^2, the divided Frobenius, phi, and the split module.

The standard-lifting values have a one-line rational oracle: for
F = t^Q with Q = p^(m+1), the tau^{s}-coefficient of the divided
Frobenius is C(Q, s) q_s! / p! * t^(Q-s), reduced mod p.
"""

import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from dopm import dpalg, frobenius
from dopm.context import Context
from dopm.diffops import DiffOp, theta, theta_power
from dopm.dpalg import DPElem, gamma_dp
from dopm.expr import render_op
from dopm.frobenius import (FrobData, LiftingZ, NotALifting, NotStrong,
                            bullet, bullet_matrix, divided_frob_tau,
                            glue_derivation, glue_endo, lifting_from_json,
                            phi, phi_basis, phi_center_inv, phi_inv_basis,
                            phi_tilde, phi_tilde_basis, random_strong_lifting,
                            standard_gamma_coeff, standard_lifting)
from dopm.poly import MalformedInput, Poly
from dopm.scalars import (degree_box, div_p_fact, dp_monomial_action,
                          frac_mod, mi_scale, mi_unit)
from dopm.simpson import random_higgs, round_trip

from closed_forms import central_unit, mod_p


def std_w_oracle(p, m):
    """{s: (coeff, t-exponent)} of the standard divided Frobenius, r=1."""
    Q = p ** (m + 1)
    out = {}
    for s in range(1, Q + 1):
        c = Fraction(comb(Q, s) * factorial(s // p**m), factorial(p))
        assert c.denominator % p != 0
        cm = frac_mod(c, p)
        if cm:
            out[(s,)] = Poly.monomial((Q - s,), cm, 1, p)
    return out


@pytest.mark.parametrize("p,m", [(2, 0), (3, 0), (5, 0), (2, 1), (3, 1),
                                 (2, 2)])
def test_standard_divided_frobenius(p, m):
    ctx = Context(p, m)
    assert divided_frob_tau(ctx, standard_lifting(ctx))[0].coeffs == \
        std_w_oracle(p, m)


def test_standard_divided_frobenius_frozen():
    def w(ctx):
        return divided_frob_tau(ctx, standard_lifting(ctx))[0].coeffs

    # p=3, m=0: w = 2 t^2 tau + t tau^{2} + tau^{3}
    assert w(Context(3, 0)) == {(1,): Poly.monomial((2,), 2, 1, 3),
                                (2,): Poly.monomial((1,), 1, 1, 3),
                                (3,): Poly.one(1, 3)}
    # p=2, m=1: w = t^2 tau^{2} + tau^{4}
    assert w(Context(2, 1)) == {(2,): Poly.monomial((2,), 1, 1, 2),
                                (4,): Poly.one(1, 2)}


# -- lifting validation -------------------------------------------------------

def test_lifting_must_reduce_to_the_power_map():
    ctx = Context(2, 0)
    with pytest.raises(NotALifting):
        LiftingZ(ctx, [Poly.monomial((3,), 1, 1, 4)])
    with pytest.raises(NotALifting):
        LiftingZ(ctx, [Poly({(2,): 1, (1,): 1}, 1, 4)])


def test_strongness_is_checked():
    # F = t^4 + 2t: deviation t, not supported on p^m Z at m = 1
    ctx = Context(2, 1)
    bad = LiftingZ(ctx, [Poly({(4,): 1, (1,): 2}, 1, 4)])
    with pytest.raises(NotStrong):
        FrobData(ctx, bad)
    good = LiftingZ(ctx, [Poly({(4,): 1, (2,): 2}, 1, 4)])
    FrobData(ctx, good)


def test_lifting_json_round_trip():
    ctx = Context(3, 1, r=2)
    rng = random.Random(5)
    lift = random_strong_lifting(ctx, rng)
    again = lifting_from_json(lift.to_json())
    assert again.ctx == ctx
    assert again.polys == lift.polys
    with pytest.raises(NotALifting):
        lifting_from_json(lift.to_json(), Context(3, 0, r=2))


@pytest.mark.parametrize("lift", [
    5, [[[[9, 0], 1]]], [[[[9], 1]], [[[9], 1]]], [[[[9], True]]],
], ids=["not-a-list", "exponent-arity", "polynomial-count", "bool"])
def test_lifting_json_of_the_wrong_shape(lift):
    with pytest.raises(MalformedInput):
        lifting_from_json({"p": 3, "m": 1, "r": 1, "lift": lift})


def le(a, b) -> bool:
    """a <= b in every coordinate."""
    return all(x <= y for x, y in zip(a, b))


def taylor_c(fd, i, j):
    """[tau_i^{p^m}] w_j = d^<s>(F_j)/p! mod p at s = p^m e_i, term by
    term of F_j mod p^2 with the exact structure integers, as `taylor`
    and `divided_frob_tau` compute it at that one s."""
    ctx = fd.ctx
    s = mi_scale(mi_unit(ctx.r, i), ctx.pm)
    out = {}
    for h, c in fd.lifting.polys[j].coeffs.items():
        if le(s, h):
            a = dp_monomial_action(s, h, ctx.p, ctx.m) * c % ctx.mod2
            out[tuple(x - y for x, y in zip(h, s))] = div_p_fact(a, ctx.p)
    return Poly(out, ctx.r, ctx.p)


def test_c_matrix_formula():
    # c(i, j) = -delta_ij t_i^((p-1) p^m) - (dg_j/dt_i dilated by p^m),
    # against the Taylor expansion of the lifting: the whole divided
    # Frobenius where it is small, its one coefficient elsewhere
    for p, m, r in product((2, 3, 5, 7), range(4), (1, 2, 3)):
        ctx = Context(p, m, r)
        rng = random.Random(100 * p + 10 * m + r)
        for lift in (standard_lifting(ctx), random_strong_lifting(ctx, rng)):
            fd = FrobData(ctx, lift)
            ws = divided_frob_tau(ctx, lift) if ctx.pm <= 27 else None
            for i in range(r):
                s = mi_scale(mi_unit(r, i), ctx.pm)
                for j in range(r):
                    want = taylor_c(fd, i, j)
                    if ws is not None:
                        assert ws[j].coeffs.get(s, Poly.zero(r, p)) == want
                    assert fd.c_matrix(i, j) == want, (p, m, r, i, j)
                    if i == j:
                        assert want, (p, m, r, i)


# -- phi against the rational model -------------------------------------------

TOWER_PMR = [(7, 1, 1), (5, 0, 1), (3, 0, 3), (2, 3, 1), (3, 1, 2)]


def tower_fd(pmr, lifting):
    """(FrobData, window T): the standard lifting at T = 3; a random
    strong one at T = 1, since the rational oracle multiplies out w^k for
    every k <= q T / p^m and a random w has hundreds of terms (T = 3 at
    (3, 0, 3) takes minutes)."""
    ctx = Context(*pmr)
    if lifting == "std":
        return FrobData.standard(ctx), 3
    return FrobData(ctx, random_strong_lifting(
        ctx, random.Random(str(pmr)))), 1


def fraction_gammas(w, big_k, mod, top):
    """gamma_0(w), .., gamma_K(w) as w^k/k!, with none of dpalg's rational
    model: Fraction values on (t-exponent, tau-exponent) keys, tau^s
    plain, cut at tau-degree `top`, each value taken back to the brace
    basis through prod q_{s_i}! and reduced mod `mod` (None keeps the
    Fractions)."""
    ctx = w.ctx
    zero = (0,) * ctx.r

    def q_fact(s):
        out = 1
        for x in s:
            out *= factorial(x // ctx.pm)
        return out

    plain = {(e, s): Fraction(c, q_fact(s))
             for s, f in w.coeffs.items() for e, c in f.coeffs.items()}
    power = {(zero, zero): Fraction(1)}
    out = []
    for k in range(big_k + 1):
        if k:
            nxt = {}
            for (e1, s1), v1 in power.items():
                for (e2, s2), v2 in plain.items():
                    s = tuple(a + b for a, b in zip(s1, s2))
                    if sum(s) <= top:
                        key = (tuple(a + b for a, b in zip(e1, e2)), s)
                        nxt[key] = nxt.get(key, 0) + v1 * v2
            power = nxt
        slots = {}
        for (e, s), v in power.items():
            b = v * q_fact(s) / factorial(k)
            assert b.denominator % ctx.p
            slots.setdefault(s, {})[e] = b if mod is None else frac_mod(b, mod)
        out.append(DPElem(ctx, {s: Poly(d, ctx.r, mod)
                                for s, d in slots.items()}, mod))
    return out


def theta_coeffs(fd, n) -> dict:
    """{c: f} for phi(d^<n>) = sum_c f theta^c, theta^c = d^<c q>."""
    q = fd.ctx.pm1
    return {tuple(x // q for x in k): f
            for k, f in phi_basis(fd, n).terms.items()}


def assert_phi_is_the_rational_model(fd, window):
    """The theta^c coefficient of phi(d^<n>), by the closed form or the
    peel, is [tau^{n}] prod_j gamma_dp(w_j, c_j) at every |n| <= top =
    q window: from the Taylor-expanded w and DPElem products over every
    |c| <= top / p^m, each gamma cut at top (a term only ever moves
    up)."""
    ctx = fd.ctx
    top = ctx.pm1 * window
    big_k = top // ctx.pm
    gammas = [[gamma_dp(w, k, top=top) for k in range(big_k + 1)]
              for w in divided_frob_tau(ctx, fd.lifting)]
    want: dict = {}
    for c in degree_box(big_k, ctx.r):
        prod = gammas[0][c[0]]
        for j in range(1, ctx.r):
            prod = prod * gammas[j][c[j]]
        for n, f in prod.coeffs.items():
            want.setdefault(n, {})[c] = f
    for n in degree_box(top, ctx.r):
        assert theta_coeffs(fd, n) == want.get(n, {}), n
        if fd.is_standard:
            assert fd.gamma_coeffs(n) == want.get(n, {}), n


@pytest.mark.parametrize("lifting", ["std", "random"])
@pytest.mark.parametrize("pmr", TOWER_PMR, ids=str)
def test_gamma_tower_is_the_from_scratch_oracle(pmr, lifting):
    assert_phi_is_the_rational_model(*tower_fd(pmr, lifting))


def deviated(ctx, rng) -> FrobData:
    """A random strong lifting of degree 2 with a nonzero deviation."""
    while True:
        fd = FrobData(ctx, random_strong_lifting(ctx, rng, deg=2))
        if not fd.is_standard:
            return fd


# window 1 where the oracle is slow in the window 3
PEEL_CASES = [(7, 0, 1, 3), (7, 1, 1, 1), (7, 0, 2, 1), (5, 2, 1, 1),
              (5, 0, 2, 2), (3, 3, 1, 3), (2, 3, 1, 3), (2, 2, 2, 2),
              (3, 1, 2, 1), (2, 0, 3, 3), (3, 0, 3, 1), (2, 1, 3, 1)]


@pytest.mark.parametrize("p, m, r, window", PEEL_CASES, ids=str)
def test_the_peel_is_the_rational_model(p, m, r, window):
    # phi(d^<n>) = d^<n> . 1 by generator steps on the split module, and
    # the closed form, against the rational model over p <= 7, m <= 3,
    # r <= 3, under the standard lifting and two deviated ones
    ctx = Context(p, m, r)
    rng = random.Random(f"peel {p} {m} {r}")
    for fd in (FrobData.standard(ctx), deviated(ctx, rng),
               deviated(ctx, rng)):
        assert_phi_is_the_rational_model(fd, window)


MODULE_LAW_CASES = [(2, 0, 1), (3, 0, 1), (7, 0, 1), (2, 1, 1), (3, 1, 1),
                    (2, 2, 1), (2, 0, 2), (3, 0, 2), (2, 1, 2), (2, 0, 3)]


def rand_op(rng, ctx, orders):
    """A random operator: one term per order in `orders`, on a random
    coordinate split, each coefficient of t-degree <= 2."""
    out = DiffOp.zero(ctx)
    for o in orders:
        k = [0] * ctx.r
        for _ in range(o):
            k[rng.randrange(ctx.r)] += 1
        f = Poly({tuple(rng.randrange(3) for _ in range(ctx.r)):
                  rng.randrange(1, ctx.p) if ctx.p > 2 else 1}, ctx.r, ctx.p)
        out = out + DiffOp.dpartial(ctx, k, coeff=f)
    return out


@pytest.mark.parametrize("pmr", MODULE_LAW_CASES, ids=str)
def test_the_module_law_holds_under_a_deviation(pmr):
    # (PQ).z = P.(Q.z) on O_X[theta] under random strong liftings, with P
    # and Q of orders above p^m: the fact the peel of phi rests on
    ctx = Context(*pmr)
    rng = random.Random(f"module law {pmr}")
    q, pm = ctx.pm1, ctx.pm
    for _ in range(2):
        fd = deviated(ctx, rng)
        for _ in range(3):
            a = rand_op(rng, ctx, (pm, q, q + pm + 1))
            b = rand_op(rng, ctx, (1, pm + 1, q))
            z = Poly({tuple(rng.randrange(4) for _ in range(ctx.r))
                      + tuple(rng.randrange(2) for _ in range(ctx.r)): 1},
                     2 * ctx.r, ctx.p, "t|th")
            assert bullet(fd, a * b, z) == bullet(fd, a, bullet(fd, b, z))


@pytest.mark.parametrize("lifting", ["std", "random"])
@pytest.mark.parametrize("pmr", TOWER_PMR, ids=str)
def test_gamma_is_the_fraction_oracle(pmr, lifting):
    fd, window = tower_fd(pmr, lifting)
    ctx = fd.ctx
    top = ctx.pm1 * window
    big_k = top // ctx.pm
    for w in divided_frob_tau(ctx, fd.lifting):
        exact = fraction_gammas(w, big_k, None, top)
        reduced = fraction_gammas(w, big_k, ctx.p, top)
        for k in range(big_k + 1):
            assert gamma_dp(w, k, mod=None, top=top) == exact[k]
            assert gamma_dp(w, k, top=top) == reduced[k]


@pytest.mark.parametrize("lifting", ["std", "random"])
@pytest.mark.parametrize("pmr", TOWER_PMR, ids=str)
def test_gamma_requests_in_any_order(pmr, lifting):
    # the images phi caches on the way to one n are the ones asked for
    # directly: every phi(d^<n>), |n| <= q window, top down and bottom up
    (down, window), (up, _) = tower_fd(pmr, lifting), tower_fd(pmr, lifting)
    ctx = down.ctx
    ns = list(degree_box(ctx.pm1 * window, ctx.r))
    got = {n: phi_basis(down, n) for n in reversed(ns)}
    assert got == {n: phi_basis(up, n) for n in ns}


@pytest.mark.parametrize("ctx, lift_seed", [
    (Context(3, 0), None), (Context(2, 1, r=2), None),
    (Context(3, 0, r=2), 3), (Context(2, 0, r=3), None),
    (Context(2, 0, r=3), 3), (Context(3, 0), 3), (Context(2, 1, r=2), 3),
    (Context(3, 1), 5),
], ids=["p3m0", "p2m1r2", "p3m0r2-lifted", "p2m0r3", "p2m0r3-lifted",
        "p3m0-lifted", "p2m1r2-lifted", "p3m1-lifted"])
def test_phi_builds_no_divided_power(monkeypatch, ctx, lift_seed):
    # phi, phitilde and bullet of an operator of order 3q read c(i, j)
    # alone under a deviated lifting, and the closed form under the
    # standard one: no Taylor expansion, no divided power and no
    # divided-power product
    def refuse(*args, **kwargs):
        raise AssertionError("a divided power on phi's path")

    for mod, name in ((dpalg, "taylor"), (frobenius, "taylor"),
                      (dpalg, "gamma_dp")):
        monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(DPElem, "__mul__", refuse)
    fd = FrobData.standard(ctx) if lift_seed is None else \
        FrobData(ctx, random_strong_lifting(ctx, random.Random(lift_seed),
                                            deg=2))
    assert fd.is_standard == (lift_seed is None)
    q = ctx.pm1
    op = DiffOp.zero(ctx)
    for j in range(ctx.r):
        op = op + DiffOp.dpartial(ctx, mi_scale(mi_unit(ctx.r, j), 3 * q))
    assert phi(fd, op) and phi_tilde(fd, op)
    z = Poly.monomial((1,) * ctx.r + (0,) * ctx.r, 1, 2 * ctx.r, ctx.p, "t|th")
    assert bullet(fd, op, z)


# -- the closed form of the standard lifting ----------------------------------

ALL_PM = [(p, m) for p in (2, 3, 5, 7) for m in range(4)]


def rational_gammas(ctx):
    """[j][k] = gamma_k(w_j) mod p of the standard lifting, for
    k <= top / p^m, each cut at top = q theta_trunc: the rational model,
    `gamma_dp` of the Taylor-expanded w_j per coordinate, none of
    FrobData."""
    top = ctx.pm1 * ctx.theta_trunc
    return [[gamma_dp(w, k, top=top) for k in range(top // ctx.pm + 1)]
            for w in divided_frob_tau(ctx, standard_lifting(ctx))]


def at_one(f) -> int:
    """A coefficient polynomial evaluated at t = 1 (0 for no term)."""
    return sum(f.coeffs.values()) % f.mod if f else 0


@pytest.mark.parametrize("p,m", ALL_PM, ids=str)
def test_standard_closed_form_is_the_rational_model_at_r1(p, m):
    # every n <= q theta_trunc, on and off the multiples of p^m
    ctx = Context(p, m)
    want = {}
    for c, g in enumerate(rational_gammas(ctx)[0]):
        for n, f in g.coeffs.items():
            want.setdefault(n, {})[(c,)] = f
    fd = FrobData.standard(ctx)
    assert fd.is_standard
    for n in range(ctx.pm1 * ctx.theta_trunc + 1):
        assert fd.gamma_coeffs((n,)) == want.get((n,), {})


def draw_n(rng, ctx, on_grid):
    """A multi-index n with |n| <= top = q theta_trunc, every entry a
    multiple of p^m (on_grid) or at least one not."""
    top = ctx.pm1 * ctx.theta_trunc
    while True:
        n = [rng.randrange(top // ctx.r + 1) for _ in range(ctx.r)]
        if on_grid:
            n = [x - x % ctx.pm for x in n]
        elif all(x % ctx.pm == 0 for x in n):
            n[rng.randrange(ctx.r)] += rng.randrange(1, ctx.pm)
        if sum(n) <= top:
            return tuple(n)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("p,m", ALL_PM, ids=str)
def test_standard_closed_form_is_the_rational_model_at_r23(p, m, r):
    # [tau^{n}] prod_j gamma_{c_j}(w_j) as a DPElem product of the
    # factors cut to tau-degrees <= n (no other term reaches tau^{n}),
    # over every c whose cut factors are nonzero
    ctx = Context(p, m, r)
    gammas = rational_gammas(ctx)
    fd = FrobData.standard(ctx)
    rng = random.Random(f"closed-form/{p}/{m}/{r}")
    for i in range(8):
        on_grid = i % 2 == 0 or m == 0
        n = draw_n(rng, ctx, on_grid)
        cut = [[(c, DPElem(ctx, {s: f for s, f in g.coeffs.items()
                                 if le(s, n)}, p))
                for c, g in enumerate(gammas[j])] for j in range(r)]
        want = {}
        for pick in product(*[[cg for cg in fs if cg[1]] for fs in cut]):
            prod = pick[0][1]
            for _, g in pick[1:]:
                prod = prod * g
            f = prod.coeffs.get(n)
            if f:
                want[tuple(c for c, _ in pick)] = f
        assert bool(want) == on_grid
        assert fd.gamma_coeffs(n) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_standard_gammas_do_not_depend_on_the_level(p):
    # A_m(k p^m, c) = A_0(k, c): at t = 1 the tau^{k p^m} coefficient of
    # gamma_c(w) at level m is the tau^{k} one at level 0, in the rational
    # model, and both are standard_gamma_coeff(k, c, p)
    level0 = rational_gammas(Context(p, 0))[0]
    for m in (1, 2, 3):
        ctx = Context(p, m)
        level_m = rational_gammas(ctx)[0]
        assert len(level_m) == len(level0) == 3 * p + 1
        for c, g0 in enumerate(level0):
            for k in range(3 * p + 1):
                a0 = at_one(g0.coeffs.get((k,)))
                assert at_one(level_m[c].coeffs.get((k * ctx.pm,))) == a0
                assert standard_gamma_coeff(k, c, p) == a0


@pytest.mark.parametrize("pm, n, text", [
    ((3, 0), 5, "-t1^10*d1<15> - t1^7*d1<12> + t1^4*d1<9> + t1*d1<6>"),
    ((2, 1), 4, "t1^4*d1<8> + d1<4>"),
    ((2, 1), 6, "t1^6*d1<12> + t1^2*d1<8>"),
    ((2, 1), 5, "0"),
])
def test_standard_phi_hand_values(pm, n, text):
    # p=2, m=1, n=4 (k=2): A(2,1) = 2!/(1! 2!) C(2,2) = 1 at t^(4-4) and
    # A(2,2) = 2!/(2! 2!^2) (C(4,2) - 2 C(2,2)) = 1 at t^(8-4); n = 5 is
    # off the multiples of p^m = 2
    fd = FrobData.standard(Context(*pm))
    assert render_op(phi_basis(fd, (n,))) == text


# -- phi ------------------------------------------------------------------

def test_phi_of_the_first_partial_standard():
    for p in (2, 3, 5, 7):
        ctx = Context(p, 0)
        fd = FrobData.standard(ctx)
        want = DiffOp.dpartial(ctx, (p,),
                               coeff=Poly.monomial((p - 1,), p - 1, 1, p))
        assert phi_basis(fd, (1,)) == want


def test_phi_frozen_values():
    # p=2: phi(theta) = theta + t^2 theta^2; p=3 likewise with t^6 theta^3
    fd2 = FrobData.standard(Context(2, 0))
    want = DiffOp.dpartial(fd2.ctx, (2,)) + \
        DiffOp.dpartial(fd2.ctx, (4,), coeff=Poly.monomial((2,), 1, 1, 2))
    assert phi_basis(fd2, (2,)) == want

    fd3 = FrobData.standard(Context(3, 0))
    want = DiffOp.dpartial(fd3.ctx, (3,)) + \
        DiffOp.dpartial(fd3.ctx, (9,), coeff=Poly.monomial((6,), 2, 1, 3))
    assert phi_basis(fd3, (3,)) == want
    want2 = DiffOp.dpartial(fd3.ctx, (3,),
                            coeff=Poly.monomial((1,), 1, 1, 3)) + \
        DiffOp.dpartial(fd3.ctx, (6,), coeff=Poly.monomial((4,), 1, 1, 3))
    assert phi_basis(fd3, (2,)) == want2


def test_phi_vanishes_below_the_level():
    # phi(d_i^<s>) and phi_tilde(d_i^<s>) are 0 for 0 < s < p^m, and
    # phi_tilde(d_i^<p^m>) = sum_j c(i, j) psi_j, under the standard
    # lifting and two random strong ones, read off c alone
    for pmr in product((2, 3, 5, 7), (1, 2, 3), (1, 2, 3)):
        ctx = Context(*pmr)
        rng = random.Random(str(pmr))
        for lift in (standard_lifting(ctx), random_strong_lifting(ctx, rng),
                     random_strong_lifting(ctx, rng)):
            fd = FrobData(ctx, lift)
            for i in range(ctx.r):
                for s in range(1, ctx.pm):
                    k = mi_scale(mi_unit(ctx.r, i), s)
                    assert not phi_basis(fd, k)
                    for n in (1, 2):
                        assert not phi_tilde_basis(fd, k, n)
                k = mi_scale(mi_unit(ctx.r, i), ctx.pm)
                for n in (1, 2):
                    want = DiffOp.zero(ctx)
                    for j in range(ctx.r):
                        want = want + \
                            DiffOp.from_poly(ctx, fd.c_matrix(i, j)) * \
                            phi_inv_basis(fd, mi_unit(ctx.r, j), n)
                    assert phi_tilde_basis(fd, k, n) == want


@pytest.mark.parametrize("pmr", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (7, 1, 1),
                                 (2, 1, 2), (3, 1, 2), (2, 1, 3), (5, 1, 2),
                                 (2, 3, 1), (3, 2, 1)], ids=str)
def test_the_low_window_is_the_divided_frobenius(pmr):
    # at 0 < |n| <= p^m phi reads c(i, j); the oracle is w itself:
    # phi(d^<n>) = sum_j [tau^{n}] w_j theta_j, as gamma_c(w_j) with
    # |c| >= 2 starts at tau-degree 2 p^m
    ctx = Context(*pmr)
    rng = random.Random(str(pmr))
    for lift in (standard_lifting(ctx), random_strong_lifting(ctx, rng)):
        fd = FrobData(ctx, lift)
        ws = divided_frob_tau(ctx, lift)
        for n in degree_box(ctx.pm, ctx.r):
            if not any(n):
                continue
            want = {mi_scale(mi_unit(ctx.r, j), ctx.pm1): w.coeffs[n]
                    for j, w in enumerate(ws) if n in w.coeffs}
            assert phi_basis(fd, n).terms == want, n


@pytest.mark.parametrize("pmr, top", [((2, 0, 2), 4), ((2, 1, 2), 8),
                                      ((3, 0, 3), 4)], ids=str)
def test_the_theta_degree_of_phi_is_bounded_below(pmr, top):
    # phi(d^<n>) has theta-degree |c| >= |n|/q under the standard lifting,
    # so an image past the commands' window |n| <= q T lies wholly above
    # theta-degree T; under a deviated one only |c| >= max_i n_i / q holds
    ctx = Context(*pmr)
    dev = FrobData(ctx, random_strong_lifting(ctx, random.Random(0)))
    assert not dev.is_standard
    for fd, bound in ((FrobData.standard(ctx), sum), (dev, max)):
        for n in degree_box(top, ctx.r):
            assert all(sum(k) >= bound(n) for k in phi_basis(fd, n).terms)


def test_a_deviated_image_past_the_window_reaches_theta_degree_1():
    # at (3, 0, 3) under this deviated lifting, phi(d^<(0, 2, 2)>) has
    # |n| = 4 > q = 3, past the window at T = 1, yet terms at theta-degrees
    # 1 to 4; phi computes them all and refuses nothing, and its term of
    # theta-degree 1 is theta_3
    ctx = Context(3, 0, 3)
    fd = FrobData(ctx, random_strong_lifting(ctx, random.Random(0)))
    img = phi_basis(fd, (0, 2, 2))
    assert {sum(k) // ctx.pm1 for k in img.terms} == {1, 2, 3, 4}
    assert {k: f for k, f in img.terms.items() if sum(k) == ctx.pm1} == \
        {(0, 0, 3): Poly.one(3, 3)}


def test_phi_linear_part_is_the_c_matrix():
    ctx = Context(3, 1, r=2)
    rng = random.Random(7)
    fd = FrobData(ctx, random_strong_lifting(ctx, rng))
    q = ctx.pm1
    for i in range(2):
        img = phi_basis(fd, tuple(ctx.pm if k == i else 0 for k in range(2)))
        for j in range(2):
            key = tuple(q if k == j else 0 for k in range(2))
            assert img.terms.get(key) == fd.c_matrix(i, j)


def test_phi_multiplicative_on_the_center():
    ctx = Context(2, 1)
    rng = random.Random(3)
    fd = FrobData(ctx, random_strong_lifting(ctx, rng, deg=2))
    a = theta(ctx, 0)
    # t' theta + 1, t' = t^q
    b = DiffOp(ctx, {(ctx.pm1,): Poly.monomial((ctx.pm1,), 1, 1, 2),
                     (0,): Poly.one(1, 2)})
    lhs = phi(fd, a * b).theta_truncate(2)
    rhs = (phi(fd, a) * phi(fd, b)).theta_truncate(2)
    assert lhs == rhs


def test_phi_center_inverse_inverts():
    for p in (2, 3):
        ctx = Context(p, 0)
        rng = random.Random(p)
        fd = FrobData(ctx, random_strong_lifting(ctx, rng, deg=2))
        n = ctx.theta_trunc
        z = theta(ctx, 0)
        x = phi_center_inv(fd, z, n)
        assert phi(fd, x).theta_truncate(n) == z
        # and the twisted map fixes the center
        assert phi_tilde(fd, z, n).theta_truncate(n) == z


def phi_center_inv_fixed_point(fd, z, n):
    """The fixed point of x -> z - (phi(x) - x) mod theta-degree > n, a
    loop that calls phi on whole central elements: the center inverse
    the closed form `phi_center_inv` replaced, kept as its oracle."""
    x = z.theta_truncate(n)
    for _ in range(3 * n + 8):
        nxt = (z - (phi(fd, x) - x)).theta_truncate(n)
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("the fixed point did not stabilize")


# n = p and p + 1 at p in {2, 3} are where psi != theta; the oracle is
# slow past these (about a minute at (3, 1, 2), n = 3)
INVERSE_CASES = [(2, 0, 1, 3), (3, 0, 1, 4), (2, 1, 1, 3), (3, 1, 1, 4),
                 (2, 0, 2, 3), (3, 0, 2, 3), (2, 1, 2, 2), (5, 0, 1, 2),
                 (7, 0, 1, 1), (2, 0, 3, 2), (2, 2, 1, 2)]


@pytest.mark.parametrize("p, m, r, top", INVERSE_CASES, ids=str)
def test_the_closed_form_inverse_is_the_fixed_point(p, m, r, top):
    # psi^c, phi^{-1} of a central element and of one of O_X[theta], and
    # the twisted images of d_i^<s>, s <= q, at every window n <= top,
    # under the standard lifting and a random strong one
    rng = random.Random(f"inverse {p} {m} {r}")
    ctx = Context(p, m, r)
    q = ctx.pm1
    for lift in (standard_lifting(ctx), random_strong_lifting(ctx, rng,
                                                              deg=2)):
        for n in range(1, top + 1):
            fd = FrobData(ctx, lift)
            for c in degree_box(n, r):
                want = phi_center_inv_fixed_point(fd, theta_power(ctx, c), n)
                assert phi_inv_basis(fd, c, n) == want, (c, n)
            for coeff_q in (q, 1):
                z = DiffOp(ctx, {mi_scale(c, q): Poly.monomial(
                    tuple(coeff_q * rng.randrange(3) for _ in range(r)),
                    rng.randrange(1, p) if p > 2 else 1, r, p)
                    for c in degree_box(n, r) if rng.randrange(2)})
                assert phi_center_inv(fd, z, n) == \
                    phi_center_inv_fixed_point(fd, z, n)
            for i in range(r):
                for s in range(1, q + 1):
                    k = mi_scale(mi_unit(r, i), s)
                    want = phi_center_inv_fixed_point(
                        fd, phi(fd, DiffOp.dpartial(ctx, k)), n)
                    assert phi_tilde_basis(fd, k, n) == want, (k, n)


def test_the_inverse_refuses_what_is_off_the_powers_of_theta():
    ctx = Context(3, 0, r=2)
    fd = FrobData.standard(ctx)
    z = theta(ctx, 0) + DiffOp.dpartial(ctx, (1, 0))
    with pytest.raises(ValueError) as err:
        phi_center_inv(fd, z, 2)
    assert str(err.value) == \
        "phi_center_inv: d^<1,0> is not a power of theta"


def test_van_der_put_series():
    # H = phitilde(d) = -(t^(p-1) d^<p> + t^(p^2-1) d^<p^2> + ...) for the
    # standard lifting at m = 0, exact within the theta window
    for p in (2, 3):
        ctx = Context(p, 0)
        fd = FrobData.standard(ctx)
        h = phi_tilde_basis(fd, (1,), p * p)
        want = DiffOp.zero(ctx)
        for k in (1, 2, 3):
            want = want - DiffOp.dpartial(
                ctx, (p**k,), coeff=Poly.monomial((p**k - 1,), 1, 1, p))
        assert h == want


# -- one FrobData per lifting -------------------------------------------------

def test_a_lifting_of_another_context_is_refused():
    ctx = Context(3, 0, r=2)
    other = Context(3, 1, r=2)
    lifting = random_strong_lifting(ctx, random.Random(1), deg=2)
    with pytest.raises(ValueError) as err:
        FrobData(other, lifting)
    assert str(ctx) in str(err.value) and str(other) in str(err.value)
    # an explicit check, not an assert: python -O keeps it
    code = ("from dopm import Context, FrobData\n"
            "try:\n"
            "    FrobData(Context(2, 1),\n"
            "             FrobData.standard(Context(2, 0)).lifting)\n"
            "except ValueError:\n"
            "    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(frobenius.__file__)),
        os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (0, "refused\n", "")


def test_a_lifting_is_freed_without_the_collector():
    # no FrobData is part of a reference cycle, so dropping the last
    # reference frees it, caches with it, by reference counting alone: a
    # cycle would keep them until the next collection
    ctx = Context(3, 0, r=2)
    fd = FrobData(ctx, random_strong_lifting(ctx, random.Random("freed"),
                                             deg=2))
    phi_basis(fd, (3 * ctx.pm1, 0))   # past q: the peel fills the cache
    rep = round_trip(fd, random_higgs(ctx, random.Random(1), 2))
    assert (ctx.pm1, 0) in fd._phi and rep["recovered_exact"]
    alive = weakref.ref(fd)
    gc.collect()
    gc.disable()
    try:
        del fd, rep
        assert alive() is None
    finally:
        gc.enable()


# -- the split module ---------------------------------------------------------

def test_bullet_against_the_action_plus_phi():
    # P . f = P(f) + f phi(P) in O_X[theta], for P of order <= p^m
    for p, m in [(2, 0), (3, 0), (2, 1)]:
        ctx = Context(p, m)
        rng = random.Random(17 + p + m)
        fd = FrobData(ctx, random_strong_lifting(ctx, rng, deg=2))
        d = DiffOp.dpartial(ctx, (ctx.pm,))
        for a in range(4):
            f2 = Poly.monomial((a, 0), 1, 2, p, "t|th")
            got = bullet(fd, d, f2)
            f = Poly.monomial((a,), 1, 1, p)
            plain = d.apply(f)
            want = Poly({e + (0,): c for e, c in plain.coeffs.items()},
                        2, p, "t|th")
            for k, g in phi_basis(fd, (ctx.pm,)).terms.items():
                c = k[0] // ctx.pm1
                u = pow(mod_p(central_unit(p, m, (c,)), p), -1, p)
                for e, cf in (f * g).coeffs.items():
                    want = want + Poly.monomial(e + (c,), cf * u, 2, p,
                                                "t|th")
            assert got == want


def test_bullet_derivative_formula_standard():
    # d . t^k = (k - t^p theta) t^(k-1) at m = 0, standard lifting
    for p in (2, 3):
        ctx = Context(p, 0)
        fd = FrobData.standard(ctx)
        for k in range(1, 5):
            z = Poly.monomial((k, 0), 1, 2, p, "t|th")
            got = bullet(fd, DiffOp.dpartial(ctx, (1,)), z)
            want = Poly({(k - 1, 0): k % p, (k - 1 + p, 1): p - 1}, 2, p,
                        "t|th")
            assert got == want


def test_bullet_is_a_module_action():
    ctx = Context(2, 0)
    rng = random.Random(23)
    fd = FrobData(ctx, random_strong_lifting(ctx, rng, deg=2))
    a = DiffOp.dpartial(ctx, (1,), coeff=Poly.variable(0, 1, 2))
    b = DiffOp.dpartial(ctx, (1,)) + DiffOp.one(ctx)
    for e in [(0, 0), (1, 0), (2, 1)]:
        z = Poly.monomial(e, 1, 2, 2, "t|th")
        lhs = bullet(fd, a * b, z)
        rhs = bullet(fd, a, bullet(fd, b, z))
        # compare below the theta truncation window only
        n = ctx.theta_trunc
        trim = lambda g: Poly({ec: c for ec, c in g.coeffs.items()
                               if ec[1] < n}, 2, 2, "t|th")
        assert trim(lhs) == trim(rhs)


def test_bullet_matrix_entries_live_downstairs():
    ctx = Context(3, 0)
    fd = FrobData.standard(ctx)
    mat = bullet_matrix(fd, DiffOp.dpartial(ctx, (1,)))
    assert len(mat) == 3
    assert all(x.var == "t'|th" for row in mat for x in row)


# -- gluing -------------------------------------------------------------------

def test_glue_cocycle():
    ctx = Context(2, 1)
    rng = random.Random(41)
    l1 = random_strong_lifting(ctx, rng, deg=2)
    l2 = random_strong_lifting(ctx, rng, deg=2)
    l3 = random_strong_lifting(ctx, rng, deg=2)
    u12 = glue_derivation(l1, l2)
    u23 = glue_derivation(l2, l3)
    u13 = glue_derivation(l1, l3)
    assert all(a + b == c for a, b, c in zip(u12, u23, u13))
    assert all(not f for f in glue_derivation(l1, l1))


def test_glue_endo_composes():
    ctx = Context(3, 0)
    rng = random.Random(42)
    l1 = random_strong_lifting(ctx, rng, deg=2)
    l2 = random_strong_lifting(ctx, rng, deg=2)
    l3 = random_strong_lifting(ctx, rng, deg=2)
    u12 = glue_derivation(l1, l2)
    u23 = glue_derivation(l2, l3)
    u13 = glue_derivation(l1, l3)
    g = Poly({(2, 2): 1, (1, 1): 2, (0, 3): 1}, 2, 3, "t|dt'")
    via2 = glue_endo(ctx, u12, glue_endo(ctx, u23, g))
    direct = glue_endo(ctx, u13, g)
    assert via2 == direct

