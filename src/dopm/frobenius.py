"""Frobenius liftings mod p^2 and the maps they induce on D^(m).

A lifting assigns to each coordinate a polynomial F_j = t_j^(p^(m+1))
mod p, read mod p^2.  Its divided Frobenius

    w_j = (1/p!) * (F_j(t + tau) - F_j(t))

lands in the level-m divided-power algebra mod p (every Taylor
coefficient above order zero is divisible by p, which is checked, not
assumed).  From w one builds:

  * phi        -- the O_X-linear map d^<n> -> sum_c [tau^{n}] prod_j
                  gamma_{c_j}(w_j) * d^<c p^(m+1)>, with values in the
                  centralizer of O_X';
  * phi_center_inv / phi_tilde -- the theta-adic inverse on the center
                  and the induced splitting map;
  * bullet     -- the module structure P.(f theta^c) = phi(P f) theta^c
                  on O_X[theta], plus its matrix model;
  * glue       -- the change-of-lifting derivation and the induced
                  divided-power automorphisms.
"""

from __future__ import annotations

import dataclasses
import json

from .context import Context
from .diffops import DiffOp, theta_power, zo_decompose
from .dpalg import DPElem, GammaTower, taylor
from .poly import MalformedInput, Poly, is_int, poly_from_json, poly_to_json
from .scalars import (box, degree_box, div_p_fact, mi_scale, mi_sum, mi_unit,
                      mi_zero)


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
    mixes moduli or levels.  Per coordinate j it keeps one GammaTower of
    w_j, extended as far as phi has asked, and gamma_{c_j}(w_j) reduced
    mod p for each k asked for; per multi-index c it keeps the product
    prod_j gamma_{c_j}(w_j) that phi_basis reads; and it caches the phi,
    phi_center_inv and phi_tilde images of basis operators.
    """

    def __init__(self, ctx: Context, lifting: LiftingZ):
        assert ctx == lifting.ctx
        self.ctx = ctx
        self.lifting = lifting
        self.hs = [lifting.deviation(j) for j in range(ctx.r)]
        self.gs = [h.divide_exponents(ctx.pm) if _pm_divisible(h, ctx.pm)
                   else _reject_strong(j, h)
                   for j, h in enumerate(self.hs)]
        self.ws = divided_frob_tau(ctx, lifting)
        self.is_graded = all(_is_homogeneous(w, ctx.pm1) for w in self.ws)
        self._towers = [GammaTower(w) for w in self.ws]
        self._gammas: dict = {}
        self._products: dict = {}
        self._phi: dict = {}
        self._phi_inv: dict = {}
        self._phi_tw: dict = {}

    @classmethod
    def standard(cls, ctx: Context) -> "FrobData":
        return cls(ctx, standard_lifting(ctx))

    def deepen(self, theta_trunc: int) -> "FrobData":
        """Same lifting, deeper truncation window (no-op when wide enough)."""
        if theta_trunc <= self.ctx.theta_trunc:
            return self
        ctx2 = dataclasses.replace(self.ctx, theta_trunc=theta_trunc,
                                   tau_trunc=None)
        return FrobData(ctx2, LiftingZ(ctx2, self.lifting.polys))

    def c_matrix(self, i: int, j: int) -> Poly:
        """Coefficient of tau_i^{p^m} in w_j; drives the Higgs pullback."""
        s = mi_scale(mi_unit(self.ctx.r, i), self.ctx.pm)
        return self.ws[j].coeffs.get(s, Poly.zero(self.ctx.r, self.ctx.p))

    def gamma_w(self, j: int, k: int) -> DPElem:
        """gamma_k(w_j) mod p, read off the coordinate's tower."""
        key = (j, k)
        if key not in self._gammas:
            self._gammas[key] = self._towers[j].rational(k).to_dp(self.ctx.p)
        return self._gammas[key]

    def gamma_product(self, c) -> DPElem:
        """prod_j gamma_{c_j}(w_j), built once per multi-index c."""
        c = tuple(c)
        if c not in self._products:
            out = self.gamma_w(0, c[0])
            for j in range(1, self.ctx.r):
                out = out * self.gamma_w(j, c[j])
            self._products[c] = out
        return self._products[c]


def _pm_divisible(h: Poly, pm: int) -> bool:
    return all(x % pm == 0 for e in h.coeffs for x in e)


def _reject_strong(j, h):
    raise NotStrong(f"deviation h_{j+1} = {h!r} has exponents outside p^m Z")


def _is_homogeneous(w: DPElem, q: int) -> bool:
    """Total (t, tau)-degree q in every term: the graded case, where the
    invariants solver may split unknowns by degree class."""
    for s, f in w.coeffs.items():
        for e in f.coeffs:
            if sum(e) + mi_sum(s) != q:
                return False
    return True


# ---------------------------------------------------------------------------
# phi and its restriction to the center

def phi_basis(fd: FrobData, n) -> DiffOp:
    """phi(d^<n>) = sum_c [tau^{n}](prod_j gamma_{c_j}(w_j)) d^<c p^(m+1)>.

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
    out = DiffOp.zero(ctx)
    for c in degree_box(mi_sum(n) // ctx.pm, ctx.r):
        g = fd.gamma_product(c).coeffs.get(n)
        if g:
            out = out + DiffOp.dpartial(ctx, mi_scale(c, ctx.pm1), coeff=g)
    fd._phi[n] = out
    return out


def phi(fd: FrobData, op: DiffOp) -> DiffOp:
    """O_X-linear extension of phi_basis; not a ring map on all of D^(m),
    but multiplicative on the center."""
    out = DiffOp.zero(fd.ctx)
    for k, f in op.terms.items():
        out = out + phi_basis(fd, k).premul(f)
    return out


def phi_center_inv(fd: FrobData, z: DiffOp, n_trunc: int) -> DiffOp:
    """Solve phi(x) = z mod theta-degree > n_trunc, by the fixed point of
    x -> z - (phi(x) - x); phi is the identity plus a theta-raising
    perturbation on the center, so this stabilizes in <= n_trunc+1 steps
    (a loud error otherwise)."""
    x = z.theta_truncate(n_trunc)
    for _ in range(3 * n_trunc + 8):
        nxt = (z - (phi(fd, x) - x)).theta_truncate(n_trunc)
        if nxt == x:
            return x
        x = nxt
    raise ArithmeticError("phi_center_inv did not stabilize; "
                          "is the input central and the lifting strong?")


def _phi_inv_basis(fd: FrobData, c, n_trunc: int) -> DiffOp:
    key = (tuple(c), n_trunc)
    if key not in fd._phi_inv:
        z = DiffOp.dpartial(fd.ctx, mi_scale(c, fd.ctx.pm1))
        fd._phi_inv[key] = phi_center_inv(fd, z, n_trunc)
    return fd._phi_inv[key]


def phi_tilde(fd: FrobData, op: DiffOp, n_trunc: int | None = None) -> DiffOp:
    """The splitting map: phi followed by the inverse of phi on the
    center, so that phi_tilde restricted to the center is the identity
    (mod theta-degree > n_trunc)."""
    ctx = fd.ctx
    n = ctx.theta_trunc if n_trunc is None else n_trunc
    q = ctx.pm1
    out = DiffOp.zero(ctx)
    for k, f in phi(fd, op).terms.items():
        assert all(x % q == 0 for x in k), "phi image escaped the centralizer"
        c = tuple(x // q for x in k)
        out = out + _phi_inv_basis(fd, c, n).premul(f)
    return out


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
    q = ctx.pm1
    basis = list(box(q, ctx.r))
    idx = {a: n for n, a in enumerate(basis)}
    zero = Poly.zero(2 * ctx.r, ctx.p, "t'|th")
    mat = [[zero] * len(basis) for _ in basis]
    for col, a in enumerate(basis):
        img = bullet(fd, op, Poly.monomial(a + mi_zero(ctx.r), 1,
                                           2 * ctx.r, ctx.p, "t|th"))
        for ec, cf in img.coeffs.items():
            h, c = ec[:ctx.r], ec[ctx.r:]
            lo = tuple(x % q for x in h)
            hi = tuple(x // q for x in h)
            mat[idx[lo]][col] = mat[idx[lo]][col] + \
                Poly.monomial(hi + c, cf, 2 * ctx.r, ctx.p, "t'|th")
    return mat


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
    return Poly({ec: c for ec, c in g.coeffs.items() if sum(ec[r:]) <= n},
                g.nvars, g.mod, g.var)


# ---------------------------------------------------------------------------
# the Cartier-type splitting frame at level 0

def ov_split_matrix(fd: FrobData):
    """Z[i][j] = -delta_ij t_i^(p-1) - d g_i/d t_j at level 0; the same
    data as the c-matrix of the divided Frobenius, transposed."""
    ctx = fd.ctx
    assert ctx.m == 0, "the split frame comparison is a level-0 statement"
    out = []
    for i in range(ctx.r):
        row = []
        for j in range(ctx.r):
            z = -fd.gs[i].derivative(j)
            if i == j:
                z = z - Poly.monomial(mi_scale(mi_unit(ctx.r, i), ctx.p - 1),
                                      1, ctx.r, ctx.p)
            row.append(z)
        out.append(row)
    return out
