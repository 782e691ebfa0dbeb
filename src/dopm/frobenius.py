"""Frobenius liftings mod p^2 and the maps they induce on D^(m).

A lifting assigns to each coordinate a polynomial F_j = t_j^(p^(m+1))
mod p, read mod p^2.  Its divided Frobenius

    w_j = (1/p!) * (F_j(t + tau) - F_j(t))

lands in the level-m divided-power algebra mod p (every Taylor
coefficient above order zero is divisible by p, which is checked, not
assumed).  From w one builds:

  * phi        -- the O_X-linear map d^<n> -> sum_c [tau^{n}] prod_j
                  gamma_{c_j}(w_j) * d^<c p^(m+1)>, with values in
                  O_X[theta].  For 0 < |n| <= p^m it is read off the
                  matrix c(i, j) alone (`FrobData.gamma_coeffs`).  For
                  the standard lifting F_j = t_j^(p^(m+1)) every
                  coefficient has a closed form (`standard_gamma_coeff`);
                  a lifting with a nonzero deviation reads the others off
                  rational divided-power towers of w;
  * phi_center_inv / phi_tilde -- the theta-adic inverse of phi on
                  O_X[theta], in closed form from c(i, j) (`_psi`), and
                  the induced splitting map phi_tilde = phi^{-1} o phi.
                  The inverse reads neither w nor a tower, so neither
                  does phi_tilde(d^<n>) at |n| <= p^m, which is all the
                  correspondence asks of it;
  * bullet     -- the module structure P.(f theta^c) = phi(P f) theta^c
                  on O_X[theta], plus its matrix model;
  * glue       -- the change-of-lifting derivation and the induced
                  divided-power automorphisms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, factorial

from .context import Context
from .diffops import (DiffOp, box_matrix, premul_sum, theta_power,
                      zo_decompose)
from .dpalg import DPElem, GammaTower, taylor
from .poly import (MalformedInput, Poly, is_int, poly_from_json,
                   poly_to_json, reduced)
from .scalars import (brace_mi_mod, degree_box, div_p_fact, frac_mod, mi_add,
                      mi_le, mi_scale, mi_sub, mi_sum, mi_unit, mi_zero)


class NotALifting(ValueError):
    """The data does not reduce to t -> t^(p^(m+1)) mod p."""


class NotStrong(NotALifting):
    """A lifting whose deviation h = (F - t^(p^(m+1)))/p has a t-exponent
    that p^m does not divide."""


class LiftingZ:
    """A Frobenius lifting mod p^2: one polynomial per coordinate."""

    __slots__ = ("ctx", "polys")

    def __init__(self, ctx: Context, polys):
        self.ctx = ctx
        if len(polys) != ctx.r:
            raise NotALifting(f"expected {ctx.r} coordinate polynomials")
        q = ctx.pm1
        checked = []
        for j, f in enumerate(polys):
            assert f.nvars == ctx.r and f.mod == ctx.mod2
            lead = Poly.monomial(mi_scale(mi_unit(ctx.r, j), q), 1,
                                 ctx.r, ctx.p)
            if f.reduce(ctx.p) != lead:
                raise NotALifting(
                    f"coordinate {j} is not t{j+1}^{q} mod {ctx.p}")
            checked.append(f)
        self.polys = checked

    def deviation(self, j: int) -> Poly:
        """h_j = (F_j - t_j^(p^(m+1)))/p, a polynomial mod p."""
        ctx = self.ctx
        lead = Poly.monomial(mi_scale(mi_unit(ctx.r, j), ctx.pm1), 1,
                             ctx.r, ctx.mod2)
        diff = self.polys[j] - lead
        out = {}
        for e, c in diff.coeffs.items():
            if c % ctx.p:
                raise NotALifting(f"h_{j} not integral at {e}")
            out[e] = c // ctx.p
        return Poly(out, ctx.r, ctx.p)

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p, "m": self.ctx.m, "r": self.ctx.r,
            "lift": [poly_to_json(f) for f in self.polys],
        }


def standard_lifting(ctx: Context) -> LiftingZ:
    """F_j = t_j^(p^(m+1)) on the nose."""
    q = ctx.pm1
    polys = [Poly.monomial(mi_scale(mi_unit(ctx.r, j), q), 1, ctx.r, ctx.mod2)
             for j in range(ctx.r)]
    return LiftingZ(ctx, polys)


def lifting_from_json(data, ctx: Context | None = None) -> LiftingZ:
    """The lifting written by `LiftingZ.to_json`.  Data of the wrong shape
    raises MalformedInput; well-formed polynomials that do not lift
    Frobenius raise NotALifting."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or \
            not all(is_int(data.get(k)) for k in ("p", "m", "r")):
        raise MalformedInput("a lifting is a JSON object with integer "
                             "p, m and r")
    if ctx is None:
        ctx = Context(data["p"], data["m"], data["r"])
    if (data["p"], data["m"], data["r"]) != (ctx.p, ctx.m, ctx.r):
        raise NotALifting("lifting parameters disagree with the context")
    lift = data["lift"]
    if not isinstance(lift, list) or len(lift) != ctx.r:
        raise MalformedInput(f"'lift' is not a list of {ctx.r} "
                             f"coordinate polynomials")
    polys = [poly_from_json(entries, ctx.r, ctx.mod2,
                            what=f"lifting polynomial {j + 1}")
             for j, entries in enumerate(lift)]
    return LiftingZ(ctx, polys)


def strong_lifting_from_higgs_frame(ctx: Context, gs) -> LiftingZ:
    """F_j = t_j^(p^(m+1)) + p * g_j(t^(p^m)) for arbitrary g_j mod p."""
    q = ctx.pm1
    polys = []
    for j in range(ctx.r):
        h = gs[j].scale_exponents(ctx.pm)
        f = Poly.monomial(mi_scale(mi_unit(ctx.r, j), q), 1, ctx.r, ctx.mod2)
        for e, c in h.coeffs.items():
            f = f + Poly.monomial(e, ctx.p * (c % ctx.p), ctx.r, ctx.mod2)
        polys.append(f)
    return LiftingZ(ctx, polys)


def random_strong_lifting(ctx: Context, rng, deg: int = 4) -> LiftingZ:
    gs = []
    for _ in range(ctx.r):
        coeffs = {}
        for e in degree_box(deg, ctx.r):
            c = rng.randrange(ctx.p)
            if c:
                coeffs[e] = c
        gs.append(Poly(coeffs, ctx.r, ctx.p))
    return strong_lifting_from_higgs_frame(ctx, gs)


# ---------------------------------------------------------------------------
# the divided Frobenius

def divided_frob_tau(ctx: Context, lifting: LiftingZ):
    """w_j = (1/p!) F_j(t + tau) - F_j(t) per coordinate, mod p."""
    out = []
    for j in range(ctx.r):
        w = taylor(ctx, lifting.polys[j], ctx.mod2)
        coeffs = {}
        for s, f in w.coeffs.items():
            if not mi_sum(s):
                continue
            reduced = {}
            for e, c in f.coeffs.items():
                reduced[e] = div_p_fact(c, ctx.p)
            g = Poly(reduced, ctx.r, ctx.p)
            if g:
                coeffs[s] = g
        out.append(DPElem(ctx, coeffs, ctx.p))
    return out


class FrobData:
    """A validated strong lifting together with everything phi needs.

    State is per instance; each instance owns one lifting, so nothing
    mixes moduli or levels.  `c_matrix` reads g, and so does
    `gamma_coeffs` at 0 < |n| <= p^m, for every lifting.  Past that, the
    standard lifting (every deviation h_j zero) evaluates
    `standard_gamma_coeff`; a lifting with a deviation keeps, per
    coordinate j, one GammaTower of w_j, extended as far as phi has
    asked, and gamma_{c_j}(w_j) reduced mod p for each k asked for, and
    reads the coefficients of prod_j gamma_{c_j}(w_j) off those without
    forming the product.  w and the towers are built on first use, which
    only phi of an operator of order above p^m under such a lifting
    makes.  It caches the phi, phi_inv_basis and phi_tilde images of
    basis operators, and the powers psi^b of psi = phi^{-1}(theta) per
    truncation (`_psi`).  w and the towers keep tau-degrees <= the
    context's tau_trunc.
    """

    def __init__(self, ctx: Context, lifting: LiftingZ):
        if ctx != lifting.ctx:
            raise ValueError(f"the context is {ctx} but the lifting is "
                             f"over {lifting.ctx}")
        self.ctx = ctx
        self.lifting = lifting
        self.hs = [lifting.deviation(j) for j in range(ctx.r)]
        self.gs = [h.divide_exponents(ctx.pm) if _pm_divisible(h, ctx.pm)
                   else _reject_strong(j, h)
                   for j, h in enumerate(self.hs)]
        self.is_standard = not any(self.hs)
        self._gammas: dict = {}
        self._phi: dict = {}
        self._phi_inv: dict = {}
        self._phi_tw: dict = {}
        self._psi: dict = {}

    @cached_property
    def ws(self) -> list:
        return divided_frob_tau(self.ctx, self.lifting)

    @cached_property
    def _towers(self) -> list:
        return [GammaTower(w) for w in self.ws]

    @classmethod
    def standard(cls, ctx: Context) -> "FrobData":
        return cls(ctx, standard_lifting(ctx))

    def c_matrix(self, i: int, j: int) -> Poly:
        """Coefficient c(i, j) of tau_i^{p^m} in w_j; drives the Higgs
        pullback.  It is

            c(i, j) = -delta_ij t_i^((p-1) p^m) - (dg_j/dt_i)(t^(p^m)),

        read off g_j, not off w.  By Taylor, the coefficient is
        d^<p^m e_i>(F_j)/p! mod p, and d^<p^m e_i>(t^h) =
        C(h_i, p^m) t^(h - p^m e_i) since q_(p^m)! = 1.  For t_j^q,
        q = p^(m+1): C(p^(m+1), p^m) = C(p, 1) = p mod p^2 (C(pa, pb) =
        C(a, b) mod p^2), and p/p! = 1/(p-1)! = -1 mod p (Wilson).  For
        p h_j with h_j = g_j(t^(p^m)): a term a t^(p^m e) of h_j gives
        -a C(p^m e_i, p^m) = -a e_i mod p (Lucas) at t^(p^m (e - e_i)),
        and these sum to -(dg_j/dt_i)(t^(p^m))."""
        ctx = self.ctx
        out = -self.gs[j].derivative(i).scale_exponents(ctx.pm)
        if i == j:
            out = out - Poly.monomial(
                mi_scale(mi_unit(ctx.r, i), (ctx.p - 1) * ctx.pm), 1,
                ctx.r, ctx.p)
        return out

    def gamma_w(self, j: int, k: int) -> DPElem:
        """gamma_k(w_j) mod p, read off the coordinate's tower."""
        key = (j, k)
        if key not in self._gammas:
            self._gammas[key] = self._towers[j].rational(k).to_dp(self.ctx.p)
        return self._gammas[key]

    def gamma_coeffs(self, n) -> dict:
        """{c: [tau^{n}] prod_j gamma_{c_j}(w_j)} over the c with
        |c| <= |n|/p^m whose product has a nonzero term at tau^{n}.

        Each is the sum over splits a_1 + ... + a_r = n of
        prod_j [tau^{a_j}] gamma_{c_j}(w_j), each split weighted by the
        brace constants {a_1 + .. + a_(j-1) + a_j \\ a_j} that DPElem
        multiplication applies factor by factor.  Splits grow one factor
        at a time over every c_j at once, keeping only the a_j that fit
        in what is left of n; the last a_r is a lookup, so at r = 1 this
        is one per c.  The low window 0 < |n| <= p^m reads c(i, j) for
        every lifting (`_low_gamma_coeffs`), and the standard lifting
        takes the closed form everywhere else (`_standard_gamma_coeffs`)."""
        ctx = self.ctx
        if 0 < mi_sum(n) <= ctx.pm:
            return self._low_gamma_coeffs(n)
        if self.is_standard:
            return self._standard_gamma_coeffs(n)
        p, m, r = ctx.p, ctx.m, ctx.r
        budget = mi_sum(n) // ctx.pm
        # (c_1 .. c_j, a_1 + .. + a_j, weight, factors)
        splits = [((), mi_zero(r), 1, ())]
        for j in range(r - 1):
            nxt = []
            for cs, part, wt, fs in splits:
                rest = mi_sub(n, part)
                for k in range(budget - sum(cs) + 1):
                    for a, f in self.gamma_w(j, k).coeffs.items():
                        if not mi_le(a, rest):
                            continue
                        w = wt * brace_mi_mod(part, a, p, m, p) % p
                        if w:
                            nxt.append((cs + (k,), mi_add(part, a), w,
                                        fs + (f,)))
            splits = nxt
        accs: dict = {}
        for cs, part, wt, fs in splits:
            a = mi_sub(n, part)
            wt = wt * brace_mi_mod(part, a, p, m, p) % p
            if not wt:
                continue
            for k in range(budget - sum(cs) + 1):
                g = self.gamma_w(r - 1, k).coeffs.get(a)
                if g is None:
                    continue
                for f in fs:
                    g = f * g
                acc = accs.setdefault(cs + (k,), {})
                for e, v in g.coeffs.items():
                    acc[e] = acc.get(e, 0) + wt * v
        out = {}
        for c, acc in accs.items():
            f = reduced(acc, p)
            if f:
                out[c] = Poly._trusted(f, r, p)
        return out

    def _low_gamma_coeffs(self, n) -> dict:
        """`gamma_coeffs` at 0 < |n| <= p^m, for every lifting: {e_j:
        c(i, j)} at n = p^m e_i, and {} at every other n of that size.
        So phi(d_i^<p^m>) = sum_j c(i, j) theta_j and phi(d^<n>) = 0 at
        the other n, read off g with no w and no tower.  In particular
        phi_tilde(d_i^<s>) = phi_center_inv(0) = 0 for 0 < s < p^m.

        Proof.  At |n| <= p^m every n_k <= p^m, so q_(n_k)! = 1 and
        d^<n>(t^h) = C(h, n) t^(h - n); by Taylor, [tau^{n}] w_j is
        d^<n>(F_j)/p! mod p, as in `c_matrix`.  Write F_j = t_j^q + p h_j,
        q = p^(m+1), h_j = g_j(t^(p^m)).
        1. w_j has no term at 0 < |n| <= p^m other than the n = p^m e_i.
           - t_j^q gives C(q, n_j) at n = n_j e_j.  By Kummer,
             v_p C(p^(m+1), s) = m + 1 - v_p(s) for 0 < s < q: that is 1
             at s = p^m and at least 2 at every other 0 < s <= p^m.  p!
             has valuation 1, so only s = p^m leaves a term mod p.
           - p h_j gives p C(p^m e, n)/p! = C(p^m e, n)/(p-1)! mod p for a
             term t^(p^m e).  By Lucas, C(p^m e_k, n_k) = 0 mod p unless
             p^m | n_k, as the base-p digits of p^m e_k below p^m are 0.
             With 0 < |n| <= p^m that leaves n = p^m e_k.
        2. Only |c| <= 1 contributes.  In the rational model gamma_c(w_j)
           is w_j^c/c!, and by 1 w_j lies in tau-degrees >= p^m, so
           prod_j gamma_(c_j)(w_j) lies in tau-degrees >= |c| p^m: |c| >= 2
           needs |n| >= 2 p^m.  c = 0 is gamma_0 = 1, with no term at
           n != 0.  c = e_j is [tau^{n}] w_j: 0 by 1 unless n = p^m e_i,
           where it is c(i, j) by definition.
        """
        ctx = self.ctx
        if ctx.pm not in n:
            return {}
        i = list(n).index(ctx.pm)
        return {mi_unit(ctx.r, j): f for j in range(ctx.r)
                if (f := self.c_matrix(i, j))}

    def _standard_gamma_coeffs(self, n) -> dict:
        """`gamma_coeffs` of F_j = t_j^q, by `standard_gamma_coeff`."""
        ctx = self.ctx
        p, pm, q, r = ctx.p, ctx.pm, ctx.pm1, ctx.r
        if any(x % pm for x in n):
            return {}
        ks = [x // pm for x in n]
        out = {}
        for c in product(*[range(-(-k // p), k + 1) for k in ks]):
            v = 1
            for k, cj in zip(ks, c):
                v = v * standard_gamma_coeff(k, cj, p) % p
            if v:
                e = tuple(q * cj - x for cj, x in zip(c, n))
                out[c] = Poly._trusted({e: v}, r, p)
        return out


@lru_cache(maxsize=None)
def standard_gamma_coeff(k: int, c: int, p: int) -> int:
    """A(k, c) = k!/(c! (p!)^c) sum_i (-1)^(c-i) C(c, i) C(p i, k) mod p:
    for the standard lifting F_j = t_j^q, q = p^(m+1), at every level m,

        [tau^{n}] prod_j gamma_{c_j}(w_j)
            = prod_j A(n_j/p^m, c_j) t_j^(q c_j - n_j)   if p^m | n,

    and 0 otherwise.  Raises ArithmeticError unless A is p-integral, as
    RatDP.to_dp does (by the proof it always is).

    Proof.  Write tau^{s} = tau^s / q_s! (q_s = floor(s/p^m)).
    1. Homogeneity.  F_j(t+tau) - F_j(t) is homogeneous of degree q in
       (t_j, tau_j), so [tau_j^{n_j}] gamma_c(w_j) is A t_j^(q c - n_j),
       with A its value at t_j = 1: the coefficient of gamma_c(W_m),
       W_m(x) = ((1+x)^q - 1)/p!.
    2. Level reduction.  (1+x)^(p^m) = 1 + x^(p^m) + pR with R integral,
       so (1+x)^q = (1 + x^(p^m) + pR)^p = (1 + x^(p^m))^p mod p^2, and
       W_m(x) = W_0(x^(p^m)) + pE with E p-integral in the plain basis,
       hence in the level-m lattice.  For b >= 1, gamma_b(pE) =
       (p^b/b!) E^b = 0 mod p, since v_p(b!) < b.  The span of the
       tau^{k p^m} is the level-0 divided-power algebra in y = tau^{p^m}
       (its braces are C(a+b, a)), and W_0(y) = sum_s y^s/(s!(p-s)!) lies
       in its divided-power ideal, so each gamma_a(W_0(y)) is integral.
       Hence gamma_c(W_m) = sum_(a+b=c) gamma_a(W_0(y)) gamma_b(pE)
       = gamma_c(W_0(y)) mod p, which has no term off the multiples of
       p^m.  At n = k p^m, tau^{n} = y^k/k!, and
       gamma_c(W_0(y)) = ((1+y)^p - 1)^c / (c! (p!)^c), whose y^k
       coefficient is sum_i (-1)^(c-i) C(c, i) C(p i, k) / (c! (p!)^c):
       times k! this is A(k, c).
    3. Coordinates.  w_j involves only t_j and tau_j, and the brace
       between multi-indices of disjoint supports is 1, so the
       coefficient of the product is the product of the coefficients.
       gamma_c(w_j) lives in tau_j-degrees c p^m .. c q, so only
       n_j/q <= c_j <= n_j/p^m contribute.
    """
    a = Fraction(factorial(k) * sum((-1) ** (c - i) * comb(c, i)
                                    * comb(p * i, k) for i in range(c + 1)),
                 factorial(c) * factorial(p) ** c)
    if a.denominator % p == 0:
        raise ArithmeticError(f"A({k}, {c}) not p-integral at p={p}")
    return frac_mod(a, p)


def _pm_divisible(h: Poly, pm: int) -> bool:
    return all(x % pm == 0 for e in h.coeffs for x in e)


def _reject_strong(j, h):
    raise NotStrong(f"deviation h_{j+1} = {h!r} has exponents outside p^m Z")


# ---------------------------------------------------------------------------
# phi and its restriction to the center

def phi_basis(fd: FrobData, n) -> DiffOp:
    """phi(d^<n>) = sum_c [tau^{n}](prod_j gamma_{c_j}(w_j)) d^<c p^(m+1)>,
    its coefficients read by `FrobData.gamma_coeffs`.

    Finite: gamma_{c_j}(w_j) starts in tau-degree c_j p^m, so only
    |c| <= |n|/p^m contributes.  Exact as long as |n| <= ctx.tau_trunc.
    """
    n = tuple(n)
    if n in fd._phi:
        return fd._phi[n]
    ctx = fd.ctx
    if mi_sum(n) > ctx.tau_trunc:
        raise ValueError(
            f"phi(d^<{n}>) needs tau_trunc >= {mi_sum(n)}, have {ctx.tau_trunc}")
    terms = {mi_scale(c, ctx.pm1): g
             for c, g in fd.gamma_coeffs(n).items()}
    out = fd._phi[n] = DiffOp._trusted(ctx, terms)
    return out


def phi(fd: FrobData, op: DiffOp) -> DiffOp:
    """O_X-linear extension of phi_basis; not a ring map on all of D^(m),
    but multiplicative on the center."""
    return premul_sum(fd.ctx, ((f, phi_basis(fd, k))
                              for k, f in op.terms.items()))


def _psi(fd: FrobData, n: int) -> list:
    """psi_i = phi^{-1}(theta_i) mod theta-degree > n, for i < r, as
    elements of the center O_X'[theta] in the variables "t|th"; cached
    on fd at (e_i, n) among the powers psi^b of `phi_inv_basis`.  psi is
    the fixed point of

        psi_i = theta_i - sum_j c(i, j)^p psi_j^p,

    which reads c(i, j) alone (`FrobData.c_matrix`): no phi, no w, no
    tower.  O_X[theta] is commutative of characteristic p, so the p-th
    power of sum_c a_c theta^c is sum_c a_c^p theta^(pc), the exponent
    dilation by p.  c(i, j) lies in F_p[t^(p^m)], so c(i, j)^p lies in
    O_X' = F_p[t^q], q = p^(m+1), and psi in the center.  Every psi_j has
    theta-degree >= 1, so psi_j^p has theta-degree >= p, and psi = theta
    whenever n < p.

    Proof that phi(psi_i) = theta_i mod theta-degree > n.  It rests on
    two facts about phi on the center that the paper gives and that are
    checked here, not proved:
      (a) phi(theta_i) = theta_i + phi(d_i^<p^m>)^p, checked by the
          `phibar` verify suite.  As phi(d_i^<p^m>) = sum_j c(i, j)
          theta_j (proved at `FrobData._low_gamma_coeffs`), this is
          theta_i + sum_j c(i, j)^p theta_j^p;
      (b) phi is an O_X'-algebra map on the center, checked by
          `test_phi_multiplicative_on_the_center`.
    By (a) and (b), phi(theta^c) is theta^c plus terms of theta-degree
    >= |c| + p - 1: phi is tangent to the identity, so it keeps
    theta-degrees > n above n and is injective mod theta-degree > n;
    psi_i is therefore the one phi^{-1}(theta_i).  Apply phi to the
    fixed-point equation and write x_i = phi(psi_i): by (b), then (a)
    and the additivity of p-th powers,

        x_i = phi(theta_i) - sum_j c(i, j)^p x_j^p
            = theta_i - sum_j c(i, j)^p (x_j - theta_j)^p.

    So e_i = x_i - theta_i satisfies e_i = -sum_j c(i, j)^p e_j^p.  Each
    e_i has theta-degree >= 1, and if the least degree D of a nonzero e
    were <= n, the right side would start at degree >= pD > D.  So e = 0
    mod theta-degree > n.

    The loop: T(psi)_i = theta_i - sum_j c(i, j)^p psi_j^p has T(a) -
    T(b) = -C^p (a - b)^p, so iterates from theta that agree below
    degree D agree below degree pD after one more step.  It stops at the
    first repeat, the fixed point, after about log_p(n) + 2 passes."""
    ctx = fd.ctx
    p, r = ctx.p, ctx.r
    units = [(mi_unit(r, i), n) for i in range(r)]
    if units[0] in fd._psi:
        return [fd._psi[key] for key in units]
    cp = [[(j, as_split_module(ctx, f.scale_exponents(p)))
           for j in range(r) if (f := fd.c_matrix(i, j))] for i in range(r)]
    th = [Poly.monomial(mi_zero(r) + mi_unit(r, i), 1, 2 * r, p, "t|th")
          for i in range(r)]
    psi = th
    while True:
        frob = [_dt_truncate(x.scale_exponents(p), r, n) for x in psi]
        nxt = []
        for i in range(r):
            x = th[i]
            for j, f in cp[i]:
                if frob[j]:
                    x = x - f * frob[j]
            nxt.append(_dt_truncate(x, r, n))
        if nxt == psi:
            break
        psi = nxt
    fd._psi.update(zip(units, psi))
    return psi


def phi_inv_basis(fd: FrobData, c, n_trunc: int) -> DiffOp:
    """phi^{-1}(theta^c) mod theta-degree > n_trunc: the product psi^c =
    prod_i psi_i^(c_i) of `_psi`, as phi is multiplicative on the center
    (fact (b) there), read as the operator sum f d^<c'q> of its terms
    f theta^c'.  Cached on fd, and so are the powers psi^b on the way,
    b = e_1, 2 e_1, .., c, so a new c costs one product per step past
    the longest cached b; none is formed past theta-degree n_trunc."""
    key = (tuple(c), n_trunc)
    if key not in fd._phi_inv:
        ctx = fd.ctx
        p, r, q = ctx.p, ctx.r, ctx.pm1
        z = Poly.one(2 * r, p, "t|th")
        if sum(c) > n_trunc:
            z = Poly.zero(2 * r, p, "t|th")
        else:
            psi, b = _psi(fd, n_trunc), [0] * r
            for i, ci in enumerate(c):
                for _ in range(ci):
                    b[i] += 1
                    power = (tuple(b), n_trunc)
                    if power not in fd._psi:
                        fd._psi[power] = _dt_truncate(z * psi[i], r, n_trunc)
                    z = fd._psi[power]
        terms: dict = {}
        for ec, v in z.coeffs.items():
            terms.setdefault(mi_scale(ec[r:], q), {})[ec[:r]] = v
        fd._phi_inv[key] = DiffOp._trusted(
            ctx, {k: Poly._trusted(f, r, p) for k, f in terms.items()})
    return fd._phi_inv[key]


def phi_center_inv(fd: FrobData, z: DiffOp, n_trunc: int) -> DiffOp:
    """The inverse of phi on O_X[theta] mod theta-degree > n_trunc:
    z = sum_c f_c theta^c, theta^c = d^<cq>, goes to sum_c f_c psi^c
    (`phi_inv_basis`).  phi is O_X-linear, so this inverts it on the
    center O_X'[theta] (f_c in O_X') and on O_X[theta] alike.  A term of
    z off the powers of theta raises ValueError."""
    q = fd.ctx.pm1
    pairs = []
    for k, f in z.terms.items():
        if any(x % q for x in k):
            raise ValueError(f"phi_center_inv: d^<{','.join(map(str, k))}> "
                             f"is not a power of theta")
        pairs.append((f, phi_inv_basis(fd, tuple(x // q for x in k),
                                       n_trunc)))
    return premul_sum(fd.ctx, pairs)


def phi_tilde(fd: FrobData, op: DiffOp, n_trunc: int | None = None) -> DiffOp:
    """The splitting map phi_tilde = phi^{-1} o phi: phi, whose values
    lie in O_X[theta], followed by its inverse there, so that phi_tilde
    restricted to the center is the identity (mod theta-degree >
    n_trunc)."""
    n = fd.ctx.theta_trunc if n_trunc is None else n_trunc
    return phi_center_inv(fd, phi(fd, op), n)


def phi_tilde_basis(fd: FrobData, n, n_trunc: int) -> DiffOp:
    key = (tuple(n), n_trunc)
    if key not in fd._phi_tw:
        op = DiffOp.dpartial(fd.ctx, n)
        fd._phi_tw[key] = phi_tilde(fd, op, n_trunc)
    return fd._phi_tw[key]


# ---------------------------------------------------------------------------
# the split module O_X[theta]

def as_split_module(ctx: Context, f: Poly) -> Poly:
    """f in O_X as an element of O_X[theta], of theta-degree zero."""
    return Poly({e + mi_zero(ctx.r): c for e, c in f.coeffs.items()},
                2 * ctx.r, ctx.p, "t|th")


def bullet(fd: FrobData, op: DiffOp, z: Poly) -> Poly:
    """P . (f theta^c) = phi(P f) theta^c on O_X[theta].

    `z` has 2r variables "t|th" (t-part first).  The result is again an
    element of O_X[theta], read off through zo coordinates.
    """
    ctx = fd.ctx
    r = ctx.r
    assert z.nvars == 2 * r and z.mod == ctx.p
    acc = Poly.zero(2 * r, ctx.p, "t|th")
    for ec, coeff in z.coeffs.items():
        f = Poly.monomial(ec[:r], coeff, r, ctx.p)
        q = phi(fd, op * DiffOp.from_poly(ctx, f)) * theta_power(ctx, ec[r:])
        zo = zo_decompose(q)
        for u, w in zo.items():
            assert not any(u), "bullet image escaped O_X[theta]"
            acc = acc + w
    return acc


def bullet_matrix(fd: FrobData, op: DiffOp):
    """Matrix of P . (-) on the basis {t^a : a < p^(m+1)} of O_X[theta]
    over Z(D^(m)); entries are polynomials in "t'|th"."""
    ctx = fd.ctx
    return box_matrix(
        ctx, lambda a: bullet(fd, op, Poly.monomial(
            a + mi_zero(ctx.r), 1, 2 * ctx.r, ctx.p, "t|th")), "t'|th")


# ---------------------------------------------------------------------------
# comparing liftings

def glue_derivation(l1: LiftingZ, l2: LiftingZ):
    """u_j = (F2_j - F1_j)/p! per coordinate; both liftings agree mod p,
    so the difference divides exactly."""
    assert l1.ctx == l2.ctx
    ctx = l1.ctx
    out = []
    for j in range(ctx.r):
        d = l2.polys[j] - l1.polys[j]
        out.append(Poly({e: div_p_fact(c, ctx.p) for e, c in d.coeffs.items()},
                        ctx.r, ctx.p))
    return out


def glue_endo(ctx: Context, u, g: Poly, n_trunc: int | None = None) -> Poly:
    """The divided-power algebra automorphism dt'_j -> dt'_j - u_j(t),
    applied to g in 2r variables "t|dt'", truncated in dt'-degree."""
    n = ctx.theta_trunc if n_trunc is None else n_trunc
    r = ctx.r
    assert g.nvars == 2 * r
    out = Poly.zero(2 * r, ctx.p, g.var)
    for ec, coeff in g.coeffs.items():
        e, c = ec[:r], ec[r:]
        if sum(c) > n:
            continue
        term = Poly.monomial(e + mi_zero(r), coeff, 2 * r, ctx.p, g.var)
        for j, cj in enumerate(c):
            dt = Poly.monomial(mi_zero(r) + mi_unit(r, j), 1, 2 * r,
                               ctx.p, g.var)
            uj = Poly({eu + mi_zero(r): cu for eu, cu in u[j].coeffs.items()},
                      2 * r, ctx.p, g.var)
            factor = dt - uj
            for _ in range(cj):
                term = term * factor
        out = out + term
    return _dt_truncate(out, r, n)


def _dt_truncate(g: Poly, r: int, n: int) -> Poly:
    """g's terms of degree <= n in its last r variables: dt' in
    `glue_endo`, theta in `_psi`."""
    return Poly._trusted({ec: c for ec, c in g.coeffs.items()
                          if sum(ec[r:]) <= n}, g.nvars, g.mod, g.var)
