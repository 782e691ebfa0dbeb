"""Frobenius liftings mod p^2 and the maps they induce on D^(m).

A lifting assigns to each coordinate a polynomial F_j = t_j^(p^(m+1))
mod p, read mod p^2.  Its divided Frobenius

    w_j = (1/p!) * (F_j(t + tau) - F_j(t))

lands in the level-m divided-power algebra mod p (every Taylor
coefficient above order zero is divisible by p, which is checked, not
assumed).  w defines the maps below, and none of them builds it: they
read only w's tau^{p^m}-block c(i, j), in closed form from the lifting
(`FrobData.c_matrix`):

  * phi        -- the O_X-linear map d^<n> -> sum_c [tau^{n}] prod_j
                  gamma_{c_j}(w_j) * d^<c p^(m+1)>, with values in
                  O_X[theta], computed under every lifting alike as
                  phi(d^<n>) = d^<n> . 1 in the split module, one
                  generator d_i^<p^m> or theta_i at a time (`phi_basis`);
  * phi_center_inv / phi_tilde -- the theta-adic inverse of phi on
                  O_X[theta], in closed form from c(i, j) (`_psi`), and
                  the induced splitting map phi_tilde = phi^{-1} o phi,
                  both cut at a theta-degree their caller passes;
  * bullet     -- the module structure P.(f theta^c) = phi(P f) theta^c
                  on O_X[theta], plus its matrix model;
  * glue       -- the change-of-lifting derivation and the induced
                  divided-power automorphisms.
"""

from __future__ import annotations

from .context import Context
from .diffops import (DiffOp, box_matrix, dp_coeffs, premul_sum, theta_power,
                      zo_decompose)
from .dpalg import DPElem, taylor
from .poly import (MalformedInput, Poly, is_int, mac, poly_from_json,
                   poly_to_json, reduced)
from .scalars import (degree_box, div_p_fact, mi_add, mi_scale, mi_sub,
                      mi_sum, mi_unit, mi_zero)


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
        diff = self.polys[j] - lead     # divisible by p: `__init__` checks
        return Poly({e: c // ctx.p for e, c in diff.coeffs.items()},
                    ctx.r, ctx.p)

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
    mixes moduli or levels.  phi reads the lifting through g alone: it
    peels d^<n> into the generators d_i^<p^m> and the theta_i, which act
    on the split module through c(i, j) (`c_matrix`, `phi_basis`), and
    never builds w.  It caches three things: the generators' images
    phi(d_i^<p^m>) and phi(theta_i) (`_gen`, `_generators`), the phi
    images of basis operators, with the images the peel passes on the
    way (`_phi`), and the powers psi^b of psi = phi^{-1}(theta) per
    theta-degree cut (`_psi`), from which `phi_inv_basis` reads
    phi^{-1}(theta^c).
    """

    def __init__(self, ctx: Context, lifting: LiftingZ):
        if ctx != lifting.ctx:
            raise ValueError(f"the context is {ctx} but the lifting is "
                             f"over {lifting.ctx}")
        self.ctx = ctx
        self.lifting = lifting
        hs = [lifting.deviation(j) for j in range(ctx.r)]
        self.gs = [h.divide_exponents(ctx.pm) if _pm_divisible(h, ctx.pm)
                   else _reject_strong(j, h) for j, h in enumerate(hs)]
        self.is_standard = not any(hs)
        self._gen: dict = {}
        self._phi: dict = {}
        self._psi: dict = {}

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
        p, pm = ctx.p, ctx.pm
        out = {}
        if i == j:
            out[mi_scale(mi_unit(ctx.r, i), (p - 1) * pm)] = -1
        for e, a in self.gs[j].coeffs.items():
            if e[i]:
                key = tuple(pm * (x - (k == i)) for k, x in enumerate(e))
                out[key] = out.get(key, 0) - a * e[i]
        return Poly._trusted(reduced(out, p), ctx.r, p)


def _pm_divisible(h: Poly, pm: int) -> bool:
    return all(x % pm == 0 for e in h.coeffs for x in e)


def _reject_strong(j, h):
    raise NotStrong(f"deviation h_{j+1} = {h!r} has exponents outside p^m Z")


# ---------------------------------------------------------------------------
# phi and its restriction to the center

def phi_basis(fd: FrobData, n) -> DiffOp:
    """phi(d^<n>) = sum_c [tau^{n}](prod_j gamma_{c_j}(w_j)) d^<c p^(m+1)>,
    computed as d^<n> . 1 in the split module O_X[theta] (`bullet`:
    P . (f theta^c) = phi(P f) theta^c), for any strong lifting, by the
    peel of `DModule.b_matrix`; every image on the grid p^m | n that the
    peel passes is cached on fd.  Finite at every order: gamma_{c_j}(w_j)
    starts in tau-degree c_j p^m, so only |c| <= |n|/p^m contributes.

    O_X[theta] is a D^(m)-module under this action (the paper; cf.
    Berthelot, "D-modules arithmetiques II", Mem. SMF 81, 2000), and the
    tests check its module law under deviated liftings.  Its generators
    act through c(i, j) alone:

        d_i^<p^l> . (f theta^c)
            = (d^<p^l e_i>(f) + [l = m] f sum_j c(i, j) theta_j) theta^c.

    Proof.  By Leibniz, d^<p^l e_i> f = sum_a {p^l \\ a} d^<a e_i>(f)
    d^<(p^l - a) e_i>, and phi is O_X-linear.  The a = p^l term is
    d^<p^l e_i>(f), with phi(1) = 1.  Every other term has 0 < s =
    p^l - a <= p^m, and by the lemma phi(d_i^<s>) is 0 for s < p^m and
    sum_j c(i, j) theta_j at s = p^m, which needs l = m and a = 0, where
    the brace is 1.

    Lemma.  At 0 < |n| <= p^m, phi(d^<n>) = sum_j c(k, j) theta_j if
    n = p^m e_k, and 0 otherwise.  Here every n_k <= p^m, so q_(n_k)! = 1
    and d^<n>(t^h) = C(h, n) t^(h - n); by Taylor, [tau^{n}] w_j is
    d^<n>(F_j)/p! mod p, as in `c_matrix`.  Write F_j = t_j^q + p h_j,
    q = p^(m+1), h_j = g_j(t^(p^m)).
    1. w_j has no term at 0 < |n| <= p^m other than the n = p^m e_k.
       - t_j^q gives C(q, n_j) at n = n_j e_j.  By Kummer,
         v_p C(p^(m+1), s) = m + 1 - v_p(s) for 0 < s < q: that is 1
         at s = p^m and at least 2 at every other 0 < s <= p^m.  p!
         has valuation 1, so only s = p^m leaves a term mod p.
       - p h_j gives p C(p^m e, n)/p! = C(p^m e, n)/(p-1)! mod p for a
         term t^(p^m e).  By Lucas, C(p^m e_k, n_k) = 0 mod p unless
         p^m | n_k, as the base-p digits of p^m e_k below p^m are 0.
         With 0 < |n| <= p^m that leaves n = p^m e_k.
    2. Only |c| <= 1 contributes to phi(d^<n>).  In the rational model
       gamma_c(w_j) is w_j^c/c!, and by 1 w_j lies in tau-degrees
       >= p^m, so prod_j gamma_(c_j)(w_j) lies in tau-degrees >= |c| p^m:
       |c| >= 2 needs |n| >= 2 p^m.  c = 0 is gamma_0 = 1, with no term
       at n != 0.  c = e_j is [tau^{n}] w_j: 0 by 1 unless n = p^m e_k,
       where it is c(k, j) by definition.

    The peel.  If p^m does not divide n_k = b p^m + a, 0 < a < p^m, then
    d^<n - a e_k> d^<a e_k> = d^<n>: the angle is C(n_k, a) = 1 mod p
    by Lucas, over the brace b!/b! = 1.  So phi(d^<n>) =
    d^<n - a e_k> . phi(d^<a e_k>) = 0 by the lemma.  Otherwise take i
    the first coordinate with n_i > 0.
    - n_i >= q: d^<n> = theta_i d^<n - q e_i>, as the units at
      `diffops.theta_power` are 1, and theta_i . (f theta^c) =
      phi(f theta_i) theta^c = f phi(theta_i) theta^c (theta_i is
      central, phi is O_X-linear): the product with phi(theta_i) =
      theta_i + sum_j c(i, j)^p theta_j^p, fact (a) at `_psi`, whose
      proof reads the generator step alone.
    - n_i < q: d^<n> = d_i^<p^m> d^<n - p^m e_i>.  p^m is the largest
      p^l, l <= m, with p^l <= n_i, the one `b_matrix` peels, and its
      angle <n_i \\ p^m> is 1 (`diffops.theta_power`), as are the other
      coordinates'.
    By the module law phi(d^<n>) is then phi(theta_i) phi(d^<n - q e_i>)
    or d_i^<p^m> . phi(d^<n - p^m e_i>), down to phi(1) = 1.  Each step
    runs on coefficient dicts, multiply-accumulated and reduced once."""
    ctx = fd.ctx
    p, m, pm, q, r = ctx.p, ctx.m, ctx.pm, ctx.pm1, ctx.r
    n = tuple(n)
    if any(x % pm for x in n):
        return DiffOp.zero(ctx)
    units = [mi_unit(r, j) for j in range(r)]
    chain = []
    while n not in fd._phi and any(n):
        i = next(j for j, x in enumerate(n) if x)
        chain.append((n, i))
        n = mi_sub(n, mi_scale(units[i], q if n[i] >= q else pm))
    z = fd._phi.get(n)
    one = {mi_zero(r): 1}
    for n, i in reversed(chain):
        d_i, theta_i = _generators(fd, i)
        if z is None:
            # the first step acts on 1, and d^<p^m e_i>(1) = 0
            z = fd._phi[n] = theta_i if n[i] >= q else d_i
            continue
        accs: dict = {}
        if n[i] >= q:
            for c1, f1 in theta_i.terms.items():
                for c, f in z.terms.items():
                    mac(accs.setdefault(mi_add(c1, c), {}), f1.coeffs,
                        f.coeffs)
        else:
            di = mi_scale(units[i], pm)
            for c, f in z.terms.items():
                mac(accs.setdefault(c, {}), dp_coeffs(di, f.coeffs, p, m), one)
                for cj, g in d_i.terms.items():
                    mac(accs.setdefault(mi_add(c, cj), {}), f.coeffs,
                        g.coeffs)
        z = fd._phi[n] = DiffOp._trusted(ctx, {
            c: Poly._trusted(g, r, p) for c, acc in accs.items()
            if (g := reduced(acc, p))})
    return DiffOp.one(ctx) if z is None else z


def _generators(fd: FrobData, i: int):
    """(phi(d_i^<p^m>), phi(theta_i)), cached on fd: how the generators at
    coordinate i act on the split module.  phi(d_i^<p^m>) = sum_j c(i, j)
    theta_j (the lemma at `phi_basis`), and phi(theta_i) = theta_i +
    sum_j c(i, j)^p theta_j^p (fact (a) at `_psi`), c(i, j)^p the
    exponent dilation by p, as the coefficients lie in F_p."""
    if i not in fd._gen:
        ctx = fd.ctx
        p, q, r = ctx.p, ctx.pm1, ctx.r
        d_i = {mi_scale(mi_unit(r, j), q): c for j in range(r)
               if (c := fd.c_matrix(i, j))}
        theta_i = {mi_scale(mi_unit(r, i), q): Poly.one(r, p)}
        theta_i.update((mi_scale(k, p), c.scale_exponents(p))
                       for k, c in d_i.items())
        fd._gen[i] = DiffOp._trusted(ctx, d_i), DiffOp._trusted(ctx, theta_i)
    return fd._gen[i]


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

    which reads c(i, j) alone (`FrobData.c_matrix`): no phi and no w.
    O_X[theta] is commutative of characteristic p, so the p-th
    power of sum_c a_c theta^c is sum_c a_c^p theta^(pc), the exponent
    dilation by p.  c(i, j) lies in F_p[t^(p^m)], so c(i, j)^p lies in
    O_X' = F_p[t^q], q = p^(m+1), and psi in the center.  Every psi_j has
    theta-degree >= 1, so psi_j^p has theta-degree >= p, and psi = theta
    whenever n < p.

    Proof that phi(psi_i) = theta_i mod theta-degree > n.  It rests on
    two facts about phi on the center, both consequences of the module
    law of the split module O_X[theta] (`phi_basis`):
      (a) phi(theta_i) = theta_i + sum_j c(i, j)^p theta_j^p, which is
          theta_i + phi(d_i^<p^m>)^p (checked by the `phibar` verify
          suite).  As theta_i = (d_i^<p^m>)^p (`diffops.theta_power`),
          phi(theta_i) = R^p(1) for R = d_i^<p^m> . (-).  By the
          generator step at `phi_basis`, R acts on F_p[s][theta], s =
          t^(p^m), as D + G: D = d/ds_i (Lucas, as in
          `simpson.pullback`) and G the product with sum_j c(i, j)
          theta_j, each c(i, j) in F_p[s].  By Jacobson, as in
          `pullback`'s proof, (D + G)^p(1) = D^p(1) + D^(p-1)(G) + G^p =
          D^(p-1)(G) + G^p, and D^(p-1) c(i, j) = delta_ij there;
      (b) phi is an O_X'-algebra map on the center (checked by
          `test_phi_multiplicative_on_the_center`).  A central Z acts on
          O_X[theta] as the product with phi(Z): Z . (f theta^c) =
          phi(f Z) theta^c = f phi(Z) theta^c, as phi is O_X-linear.  So
          phi(Z Z') = Z . (Z' . 1) = phi(Z) phi(Z').
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
    f theta^c'.  The powers psi^b on the way, b = e_1, 2 e_1, .., c, are
    cached on fd with the psi_i, so a new c costs one product per step
    past the longest cached b; none is formed past theta-degree n_trunc.
    The regrouping into an operator is redone on each call."""
    ctx = fd.ctx
    p, r, q = ctx.p, ctx.r, ctx.pm1
    if sum(c) > n_trunc:
        return DiffOp.zero(ctx)
    z = Poly.one(2 * r, p, "t|th")
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
    return DiffOp._trusted(
        ctx, {k: Poly._trusted(f, r, p) for k, f in terms.items()})


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


def phi_tilde(fd: FrobData, op: DiffOp,
              n_trunc: int = Context.theta_trunc) -> DiffOp:
    """The splitting map phi_tilde = phi^{-1} o phi: phi, whose values
    lie in O_X[theta], followed by its inverse there, so that phi_tilde
    restricted to the center is the identity, cut above theta-degree
    n_trunc (phi itself is exact at every order)."""
    return phi_center_inv(fd, phi(fd, op), n_trunc)


def phi_tilde_basis(fd: FrobData, n, n_trunc: int) -> DiffOp:
    """phi_tilde(d^<n>) mod theta-degree > n_trunc."""
    return phi_tilde(fd, DiffOp.dpartial(fd.ctx, n), n_trunc)


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


def glue_endo(ctx: Context, u, g: Poly,
              n_trunc: int = Context.theta_trunc) -> Poly:
    """The divided-power algebra automorphism dt'_j -> dt'_j - u_j(t),
    applied to g in 2r variables "t|dt'", cut above dt'-degree n_trunc."""
    r = ctx.r
    assert g.nvars == 2 * r
    out = Poly.zero(2 * r, ctx.p, g.var)
    for ec, coeff in g.coeffs.items():
        e, c = ec[:r], ec[r:]
        if sum(c) > n_trunc:
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
    return _dt_truncate(out, r, n_trunc)


def _dt_truncate(g: Poly, r: int, n: int) -> Poly:
    """g's terms of degree <= n in its last r variables: dt' in
    `glue_endo`, theta in `_psi`."""
    return Poly._trusted({ec: c for ec, c in g.coeffs.items()
                          if sum(ec[r:]) <= n}, g.nvars, g.mod, g.var)
