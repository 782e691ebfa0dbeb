"""The local correspondence between Higgs modules and quasi-nilpotent
D^(m)-modules on affine r-space.

A Higgs module is a free O_X'-module with r commuting nilpotent
matrices.  Its pullback along a strong lifting carries the D^(m)-module
structure determined by

    rho(d_i^<p^l>) = 0 on generators       (l < m)
    rho(d_i^<p^m>) = G_i = sum_j c(i, j) sigma(A_j)

with c the tau^{p^m}-block of the divided Frobenius and sigma the
exponent dilation O_X' -> O_X.  Its curvature has the closed form
rho(theta_i) = sigma(A_i) + G_i^p on constants (Jacobson's formula in
s = t^(p^m), proved at `pullback`), so no Leibniz pass computes it.
Going back, a vector v is invariant when the honest action of every
operator agrees with the central evaluation of its twisted-Frobenius
image:

    rho(P)(v) = sum_k  f_k Theta^c v,  phi_tilde(P) = sum f_k d^<cq>

(phi alone is off by the center automorphism whenever some Theta^c with
|c| >= 2 survives on the module).  Theta^c acts as zero once |c| reaches
the nilpotency index nnil, so both directions read phi, phi_tilde and
phi^{-1} only to theta-degree n = nnil - 1, from phi and psi cached on
the caller's fd.
There phi_tilde(d_i^<p^l>), l <= m, and phi^{-1}(theta_i) are closed
forms in c(i, j) (the lemma at `frobenius._peel`, `frobenius._psi`),
so phi is read at orders <= p^m and psi at n alone.  On a valid
module it suffices to impose this for the generators P = d_i^<p^l>,
l <= m: Theta^c commutes with both sides, as theta_i is central, the
conditions of d_i^<p^m> t_i^b are triangular in those of the d_i^<s>,
0 < s <= p^m, and these follow from the generators' (three lemmas,
proved at `_box_entries`).

F_*O_X^n is free over O_X' = F_p[t'] on the box sections t^a e_j, a < q
= p^(m+1) componentwise, and the conditions are O_X'-linear (t' = t^q is
central): a matrix over F_p[t'] with a column per box section.  F_p[t']
is a domain, so a row with one nonzero entry forces its column to zero
on the whole O_X'-kernel and on every window.  Conditions come one at a
time, each struck on the sections not yet forced; only the t'-shifts of
the survivors are unknowns, and they get window rows for one sparse solve.
The invariant space is kept on them: sparse kernel rows keyed by (j, a)
(`InvariantSpace`).  When no box row survives, as on every pullback,
V_d is every t'^b t^a e_j of degree <= d over the surviving sections,
and its dimension, restriction, rank and membership are counts and
filters.  A round trip solves once, at the bound d + q its stability
check needs, and reads the degree-<= d invariants off that solve as
V_d = V_(d+q) ∩ span(deg <= d).
"""

from __future__ import annotations

from functools import partial
from itertools import product
from operator import add, sub

import numpy as np

from .context import Context
from .diffops import DiffOp, leibniz
from .frobenius import FrobData, phi_inv_basis, phi_tilde_basis
from .linalg import (nullspace_mod, pmat_add_inplace, pmat_eq, pmat_eye,
                     pmat_is_zero, pmat_map, pmat_mul, pmat_scale, pmat_zero,
                     rank_mod, rref_mod)
from .poly import (MalformedInput, Poly, is_int, mac, poly_from_json,
                   poly_to_json, reduced)
from .scalars import (angle_mi_mod, degree_box, dp_residues, leibniz_weights,
                      mi_add, mi_scale, mi_sub, mi_sum, mi_unit)


class NotQuasiNilpotent(ValueError):
    pass


# ---------------------------------------------------------------------------
# Higgs modules

class HiggsModule:
    """rank-n free module over O_X' with commuting nilpotent matrices."""

    __slots__ = ("ctx", "rank", "matrices")

    def __init__(self, ctx: Context, matrices):
        self.ctx = ctx
        self.rank = len(matrices[0]) if matrices else 0
        if len(matrices) != ctx.r:
            raise MalformedInput(
                f"{len(matrices)} Higgs matrices for r={ctx.r}")
        for a in matrices:
            _check_pmat(a, self.rank, ctx, "t'", "Higgs matrix")
        self.matrices = matrices

    def validate(self):
        """Raise unless the matrices commute and are nilpotent: the powers
        A, A^2, .. up to the first zero one, A^n at most (n - 1 products)."""
        n = self.rank
        for i in range(self.ctx.r):
            for j in range(i + 1, self.ctx.r):
                a, b = self.matrices[i], self.matrices[j]
                if not pmat_eq(pmat_mul(a, b), pmat_mul(b, a)):
                    raise ValueError(f"Higgs matrices {i},{j} do not commute")
        for i, a in enumerate(self.matrices):
            power, k = a, 1
            while k < n and not pmat_is_zero(power):
                power, k = pmat_mul(power, a), k + 1
            if not pmat_is_zero(power):
                raise NotQuasiNilpotent(f"Higgs matrix {i} is not nilpotent")
        return True

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p, "m": self.ctx.m, "r": self.ctx.r,
            "rank": self.rank,
            "matrices": [[[poly_to_json(f) for f in row] for row in a]
                         for a in self.matrices],
        }

    @classmethod
    def from_json(cls, data, ctx: Context | None = None) -> "HiggsModule":
        if ctx is None:
            ctx = Context(data["p"], data["m"], data["r"])
        mats = data["matrices"]
        if not isinstance(mats, list):
            raise MalformedInput("'matrices' is not a list")
        higgs = cls(ctx, [_pmat_from_json(a, ctx, "t'", "Higgs matrix")
                          for a in mats])
        rank = data.get("rank", higgs.rank)
        if not is_int(rank) or rank != higgs.rank:
            raise MalformedInput(f"rank {rank!r} but "
                                 f"{higgs.rank}x{higgs.rank} matrices")
        return higgs


def _pmat_from_json(mat, ctx, var, what):
    """A matrix of polynomials in r variables, each entry a list of
    [exponent, coefficient] pairs; its shape is checked by the module."""
    if not isinstance(mat, list) or \
            any(not isinstance(row, list) for row in mat):
        raise MalformedInput(f"{what} is not a list of rows")
    return [[poly_from_json(entries, ctx.r, ctx.p, var, f"{what} entry")
             for entries in row] for row in mat]


def _check_pmat(mat, n, ctx, var, what):
    """Raise MalformedInput unless mat is n x n (n >= 1) over ctx."""
    if n < 1 or len(mat) != n or any(len(row) != n for row in mat):
        raise MalformedInput(f"{what} is not a square matrix of size "
                             f"{max(n, 1)}")
    for row in mat:
        for f in row:
            if (f.nvars, f.mod, f.var) != (ctx.r, ctx.p, var):
                raise MalformedInput(f"{what} entry is not a polynomial "
                                     f"in {var}1..{var}{ctx.r} mod {ctx.p}")


# ---------------------------------------------------------------------------
# D^(m)-modules, free over O_X with generator matrices

class DModule:
    """A D^(m)-module structure on O_X^n, presented by the matrices of
    rho(d_i^<p^l>) on constant sections for l <= m.

    Everything else is forced through one Leibniz sum, `act`:
    rho(d^<k>)(f e_j) = sum_a {k \\ a} d^<a>(f) rho(d^<k-a>)(e_j).
    `b_matrix(k)`, the matrix of rho(d^<k>) on constant sections, applies
    `act` column by column: up to q = p^(m+1) it peels the largest p^l,
    l <= m, off s e_i, above q it splits off the center, d^<cq + s> =
    theta^c d^<s>, and a multi-index is built one coordinate at a time.
    rho(theta_i) is b_matrix(q e_i) (`theta_pow`); a pullback stores it
    in closed form, sigma(A_i) + G_i^p (`pullback`), and any other module
    computes it by p - 1 Leibniz passes.  The module law is checked on
    the generators as well: `validate` tests it on the pairs
    (d_i^<p^l>, d_k^<t>), k <= i, 0 < t <= q, which give every pair.
    """

    __slots__ = ("ctx", "rank", "gens", "_b", "_cols", "_tpow", "_nnil")

    def __init__(self, ctx: Context, rank: int, gens):
        self.ctx = ctx
        self.rank = rank
        self.gens = {}
        for (i, l), mat in gens.items():
            if not (0 <= i < ctx.r and 0 <= l <= ctx.m):
                raise MalformedInput(f"generator ({i},{l}) out of range for "
                                     f"r={ctx.r}, m={ctx.m}")
            _check_pmat(mat, rank, ctx, "t", f"generator ({i},{l})")
            self.gens[(i, l)] = mat
        for i in range(ctx.r):
            for l in range(ctx.m + 1):
                if (i, l) not in self.gens:
                    raise MalformedInput(f"missing generator ({i},{l})")
        self._b = {}
        self._cols = {}
        self._tpow = {}
        self._nnil = None

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p, "m": self.ctx.m, "r": self.ctx.r,
            "rank": self.rank,
            "generators": [[i, l, [[poly_to_json(f) for f in row]
                                   for row in mat]]
                           for (i, l), mat in sorted(self.gens.items())],
        }

    @classmethod
    def from_json(cls, data, ctx: Context | None = None) -> "DModule":
        if ctx is None:
            ctx = Context(data["p"], data["m"], data["r"])
        n = data["rank"]
        if not is_int(n) or n < 1:
            raise MalformedInput(f"rank {n!r} is not a positive integer")
        if not isinstance(data["generators"], list):
            raise MalformedInput("'generators' is not a list")
        gens = {}
        for g in data["generators"]:
            if not isinstance(g, list) or len(g) != 3 \
                    or not is_int(g[0]) or not is_int(g[1]):
                raise MalformedInput("a generator is not [i, l, matrix]")
            i, l, mat = g
            if (i, l) in gens:
                raise MalformedInput(f"generator ({i},{l}) given twice")
            gens[(i, l)] = _pmat_from_json(mat, ctx, "t",
                                           f"generator ({i},{l})")
        return cls(ctx, n, gens)

    # -- the action ------------------------------------------------------

    def act(self, k, sec):
        """rho(d^<k>) on a section, given as a list of n polynomials:
        the Leibniz kernel with d^<j> read as the matrix b_matrix(j)."""
        ctx = self.ctx
        k, zero = tuple(k), (0,) * ctx.r
        out: dict = {}
        for col, g in enumerate(sec):
            if g:
                leibniz(ctx, out, k, g, zero,
                        lambda j, col=col: self._columns(j)[col])
        p, r = ctx.p, ctx.r
        return [Poly._trusted(reduced(out.get(row, {}), p), r, p)
                for row in range(self.rank)]

    def _columns(self, j):
        """b_matrix(j) column by column, each column as the (row, entry's
        coefficients, 1) targets of the Leibniz kernel, zeros left out."""
        cols = self._cols.get(j)
        if cols is None:
            b = self.b_matrix(j)
            cols = self._cols[j] = [
                [(row, b[row][col].coeffs, 1) for row in range(self.rank)
                 if b[row][col]] for col in range(self.rank)]
        return cols

    def b_matrix(self, k):
        """Matrix of rho(d^<k>) on constant sections, any multi-index.

        Along one coordinate, s <= q peels p^l, the largest l <= m with
        p^l <= s: d^<p^l> d^<s - p^l> = <s \\ p^l> d^<s>.  For s < q the
        angle coefficient is a unit.  For s = j p^m, j <= p, it is
        <j p^m \\ p^m> ≡ 1, by the proof at `diffops.theta_power`, so
        b_matrix(q e_i) is rho(d_i^<p^m>) applied p times to the identity:
        rho(theta_i), since theta_i = (d_i^<p^m>)^p exactly.  Above q the
        center splits off, d^<cq + s> = theta^c d^<s> for s < q."""
        k = tuple(k)
        if k in self._b:
            return self._b[k]
        ctx = self.ctx
        p, q = ctx.p, ctx.pm1
        i = next((j for j, x in enumerate(k) if x), None)
        if i is None:
            out = pmat_eye(self.rank, ctx.r, p)
        elif any(k[i + 1:]):        # d^<k> = d^<k_i e_i> d^<rest>
            out = _on_columns(partial(self.act, _along(ctx, i, k[i])),
                              self.b_matrix(k[:i] + (0,) + k[i + 1:]))
        elif k[i] > q:              # theta_i^c d^<s e_i> = d^<(cq + s) e_i>
            c, s = divmod(k[i], q)
            out = pmat_mul(self.theta_pow(_along(ctx, i, c)),
                           self.b_matrix(_along(ctx, i, s)))
        else:   # d^<p^l e_i> d^<(s-p^l) e_i> = <s \ p^l> d^<s e_i>, a unit
            s, l = k[i], 0
            while l < ctx.m and p ** (l + 1) <= s:
                l += 1
            pl = p**l
            if s == pl:
                out = self.gens[(i, l)]
            else:
                u = angle_mi_mod((pl,), (s - pl,), p, ctx.m, p)
                out = pmat_scale(
                    _on_columns(partial(self.act, _along(ctx, i, pl)),
                                self.b_matrix(_along(ctx, i, s - pl))),
                    pow(u, -1, p))
        self._b[k] = out
        return out

    def theta_pow(self, c):
        c = tuple(c)
        if c in self._tpow:
            return self._tpow[c]
        if not any(c):
            out = pmat_eye(self.rank, self.ctx.r, self.ctx.p)
        else:
            i = next(j for j, x in enumerate(c) if x)
            out = pmat_mul(self.b_matrix(_along(self.ctx, i, self.ctx.pm1)),
                           self.theta_pow(mi_sub(c, mi_unit(self.ctx.r, i))))
        self._tpow[c] = out
        return out

    # -- structure -------------------------------------------------------

    def nilpotency_index(self) -> int:
        """Least N with Theta^c = 0 for all |c| = N."""
        if self._nnil is not None:
            return self._nnil
        ctx, n = self.ctx, self.rank
        th = [self.b_matrix(_along(ctx, i, ctx.pm1)) for i in range(ctx.r)]
        for i in range(ctx.r):
            for j in range(i + 1, ctx.r):
                if not pmat_eq(pmat_mul(th[i], th[j]),
                               pmat_mul(th[j], th[i])):
                    raise NotQuasiNilpotent("curvature matrices do not commute")
        bound = ctx.r * (n - 1) + 1
        for nn in range(1, bound + 1):
            if all(pmat_is_zero(self.theta_pow(c))
                   for c in degree_box(nn, ctx.r) if mi_sum(c) == nn):
                self._nnil = nn
                return nn
        raise NotQuasiNilpotent(
            f"Theta powers do not vanish by total degree {bound}")

    def validate(self):
        """(True, None) when rho(d^<a>) rho(d^<b>) = <a+b \\ a> rho(d^<a+b>)
        on constants, L(a, b), for every a and b, else (False, (a, b, j))
        with j a column where a pair fails.  Only the generator pairs
        a = p^l e_i, l <= m, b = t e_k, k <= i, 0 < t <= q = p^(m+1) are
        checked.  They are among the pairs |a|, |b| <= q, and they give L
        for every pair, so the verdict is that of all those pairs.  The
        pair (p^m e_i, (q - p^m) e_i) compares act(p^m e_i, B((q - p^m)
        e_i)) with B(q e_i), which on a pullback is the stored closed form
        (`pullback`): validating a pullback also checks that form.

        Write R(k) = act(k, .), B(k) = b_matrix(k), Theta_k = B(q e_k) and
        L*(a, b) for the law on every section.  By construction:
        (F0) act is the Leibniz sum, and D^(m) expands d^<a> d^<b> f the
             same way, so L(a', b') for all a' <= a, b' <= b gives L*(a, b);
        (F1) R(x) B(y) = B(x + y) when x lies on coordinate k and y on
             coordinates > k, so (F0) R(x) R(y) = R(x + y);
        (F2) R((cq + s) e_k) = Theta_k^c R(s e_k), Theta_k acting as a
             matrix: theta_k is central and theta^c d^<s> = d^<cq + s>;
        (F3) <x+y \\ x> <x+y+b \\ x+y> = <y+b \\ y> <x+y+b \\ x>, as D^(m)
             is associative.
        Induct on |a|.  Take a generator g = p^l e_i, with L(g', .) known
        for g' < g.  For k <= i the checked pairs give L*(g, s e_k), s <= q,
        by (F0), so R(g) Theta_k = R(g + q e_k) = Theta_k R(g) by (F1) for
        k < i and (F2) for k = i (the angle is 1 by (F2)).  So for t = cq
        + s > q, s < q, R(g) B(t e_k) = Theta_k^c R(g) B(s e_k), and (F1),
        (F2) carry the checked L(g, s e_k) to L(g, t e_k).  L(g, b) is (F1)
        when b lies on coordinates > i.  Else, with k the first coordinate
        of b = b_k e_k + b', (F0) gives L*(g, b_k e_k), which ends the
        proof by (F1) if k = i.  If k < i, it says R(g) R(b_k e_k) =
        R(g + b_k e_k), that is R(b_k e_k) R(g) by (F1), and L(g, b') ends
        it, by induction on the number of coordinates.  Any other a is
        x + y, x, y != 0, with <a \\ x> a unit: x = a_i e_i, its first
        coordinate, if a has several; x = q e_i if a = a_i e_i, a_i > q;
        else the peel x = p^l e_i of `b_matrix`.  L(x', .) holds for
        x' <= x, and L(y, .), so (F0) gives R(a) = <a \\ x>^-1 R(x) R(y),
        and R(a) B(b) = <a \\ x>^-1 <y+b \\ y> <a+b \\ x> B(a + b), which
        is <a+b \\ a> B(a + b) by (F3).
        """
        ctx = self.ctx
        p, m, n = ctx.p, ctx.m, self.rank
        for i, l in product(range(ctx.r), range(m + 1)):
            a = _along(ctx, i, p**l)
            for k, t in product(range(i + 1), range(1, ctx.pm1 + 1)):
                b = _along(ctx, k, t)
                want = pmat_scale(self.b_matrix(mi_add(a, b)),
                                  angle_mi_mod(a, b, p, m, p))
                bb = self.b_matrix(b)
                for j in range(n):
                    got = self.act(a, [row[j] for row in bb])
                    if any(got[s] != want[s][j] for s in range(n)):
                        return False, (a, b, j)
        return True, None


def _along(ctx: Context, i: int, s: int):
    """The multi-index s e_i."""
    return mi_scale(mi_unit(ctx.r, i), s)


def _on_columns(fn, mat):
    """The square matrix whose columns are fn(column) for the columns of
    mat, each column a section (a list of polynomials)."""
    n = len(mat)
    cols = [fn([row[j] for row in mat]) for j in range(n)]
    return [[cols[j][s] for j in range(n)] for s in range(n)]


# ---------------------------------------------------------------------------
# pullback: Higgs -> D-module

def pullback(fd: FrobData, higgs: HiggsModule) -> DModule:
    """F*-pullback with the connection induced by the divided Frobenius:
    rho(d_i^<p^m>) = G_i = sum_j c(i,j) sigma(A_j), lower generators
    zero.  The A_j must commute (`HiggsModule.validate`).

    The curvature is stored in closed form, with no Leibniz pass:

        Theta_i = b_matrix(q e_i) = sigma(A_i) + G_i^p,  q = p^(m+1).

    G_i^p stops at the first zero power.  G_i is a sum of commuting
    nilpotents, so G_i^n = 0 at rank n, and the term vanishes once p >= n.

    Proof.  `b_matrix(q e_i)` applies R = act(p^m e_i, .) p times to the
    identity, each peel angle being 1.
    1. R = D + G_i.  For 0 < b < p^m, rho(d_i^<b>) is a unit times a
       product of the zero generators d_i^<p^l>, l < m, so it kills
       constant sections.  In the Leibniz sum for R(f e) only the ends
       survive: R(f e) = d^<p^m e_i>(f) e + f G_i e.  Write s = t^(p^m).
       Each c(i, j) lies in F_p[s] (`FrobData.c_matrix`) and each
       sigma(A_j) in F_p[t'] = F_p[s^p].  On F_p[s], d^<p^m e_i> is the
       derivation D = d/ds_i, as d^<p^m>(s^k) = C(k p^m, p^m) s^(k-1) =
       k s^(k-1) by Lucas.  So R acts on F_p[s]^n as D + G_i.
    2. Jacobson.  The matrices F_p[s][sigma(A_1), .., sigma(A_r)] form a
       commutative ring C, as the A_j commute.  D maps C to itself and
       kills each sigma(A_j), and F_p[s]^n is a module over C[D], where
       D X = X D + D(X).  In C[D] the rank-one case of Jacobson's
       formula (as Katz 1970, "Nilpotent connections and the monodromy
       theorem", uses it for the p-curvature) reads
       (D + G_i)^p = D^p + D^(p-1)(G_i) + G_i^p, and D^p kills the
       constant columns.
    3. D^(p-1)(G_i) = sigma(A_i).  It is sum_j D^(p-1)(c(i, j))
       sigma(A_j), with c(i, j) = -delta_ij s_i^(p-1) - (dg_j/dt_i)(s).
       D^(p-1) s_i^(p-1) = (p-1)! = -1 by Wilson, and
       D^(p-1) (dg_j/dt_i)(s) = (d^p g_j/dt_i^p)(s) = 0.

    A module with the same generators and an empty cache (a `generators`
    file, or `DModule(ctx, n, dm.gens)`) still takes the Leibniz path,
    and `DModule.validate` compares the two."""
    ctx = fd.ctx
    if ctx != higgs.ctx:
        raise ValueError(f"the lifting is over {ctx} but the Higgs module "
                         f"over {higgs.ctx}")
    p, n = ctx.p, higgs.rank
    sigmas = [pmat_map(a, lambda f: f.scale_exponents(ctx.pm1, var="t"))
              for a in higgs.matrices]
    gens = {}
    for i in range(ctx.r):
        for l in range(ctx.m):
            gens[(i, l)] = pmat_zero(n, ctx.r, p)
        acc = pmat_zero(n, ctx.r, p)
        for j, sig in enumerate(sigmas):
            cij = fd.c_matrix(i, j)
            if cij:
                acc = pmat_add_inplace(acc, pmat_scale(sig, cij))
        gens[(i, ctx.m)] = acc
    dm = DModule(ctx, n, gens)
    for i, sig in enumerate(sigmas):
        g = power = gens[(i, ctx.m)]
        for _ in range(p - 1):
            if pmat_is_zero(power):
                break
            power = pmat_mul(power, g)
        dm._b[_along(ctx, i, ctx.pm1)] = pmat_add_inplace(sig, power)
    return dm


def curvature_of(dm: DModule):
    """The curvature frame Theta_1..Theta_r, over O_X' (in t') when every
    entry descends there, as for every pullback, and over O_X (in t)
    otherwise: Theta_i is horizontal, not constant, so a gauge change by
    a non-constant matrix can take it out of O_X'."""
    thetas = [dm.b_matrix(_along(dm.ctx, i, dm.ctx.pm1))
              for i in range(dm.ctx.r)]
    try:
        return [pmat_map(th, lambda f: f.divide_exponents(dm.ctx.pm1,
                                                          var="t'"))
                for th in thetas]
    except ValueError:
        return thetas


# ---------------------------------------------------------------------------
# the invariants solver

class InvariantSpace:
    """F_p-basis of the invariant sections of degree <= deg_bound, kept
    over O_X' on the box sections that survive propagation.

    A window unknown is t^a e_j, keyed (j, a), |a| <= deg_bound, in column
    order: lex in a, then j.  `unknowns` are the t'-shifts t'^b t^a0 e_j
    of the surviving box sections (j, a0) inside the window; every other
    unknown is forced to zero (`solve_invariants`).  `rows` is the
    canonical kernel basis over them, each row a {key: value} dict in
    column order under its free key, the rows in order of free key: a row
    is 1 at its last nonzero key, its free key, and every other row is 0
    there.  It depends only on the space and the column order, so it is
    the basis `nullspace_mod` gives over every unknown.

    When no box row survives propagation, no window row is built: the
    kernel is all of F_p^unknowns, whose canonical basis is its unit
    vectors.  Each row is then one t'^b t^a0 e_j, so dim V_d is the number
    of unknowns of degree <= d, `restrict` a filter, `contains` a dict
    comparison and `invariant_rank` a count.

    `monomials` and `basis` are the dense view over every window unknown,
    int64, built on demand for callers outside the package; the solver
    never builds them.
    """

    __slots__ = ("dm", "deg_bound", "unknowns", "rows")

    def __init__(self, dm, deg_bound, unknowns, rows):
        self.dm = dm
        self.deg_bound = deg_bound
        self.unknowns = unknowns
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def monomials(self) -> list:
        """Every window unknown (j, a), in column order."""
        return [(j, a) for a in degree_box(self.deg_bound, self.dm.ctx.r)
                for j in range(self.dm.rank)]

    @property
    def basis(self) -> np.ndarray:
        """The rows as a dense matrix over `monomials`."""
        return _dense(self.rows.values(), self.monomials)

    def sections(self) -> list:
        ctx = self.dm.ctx
        out = []
        for row in self.rows.values():
            polys = [{} for _ in range(self.dm.rank)]
            for (j, a), c in row.items():
                polys[j][a] = c
            out.append([Poly._trusted(f, ctx.r, ctx.p) for f in polys])
        return out

    def contains(self, sec) -> bool:
        """v is in the span iff v = sum v[f] row_f over the free keys f:
        only row_f is nonzero at f, and it is 1 there.  No row holds a
        key above the window, so no section that reaches there is in."""
        p = self.dm.ctx.p
        v = {(j, e): c % p for j, f in enumerate(sec)
             for e, c in f.coeffs.items() if c % p}
        span = {}
        for key, c in v.items():
            for k, x in self.rows.get(key, {}).items():
                span[k] = (span.get(k, 0) + c * x) % p
        return {k: c for k, c in span.items() if c} == v

    def restrict(self, deg_bound: int) -> "InvariantSpace":
        """V_d = V ∩ span(deg <= d), for d = deg_bound <= self.deg_bound.

        v in V is sum v[f] row_f, so in V_d it is 0 at every free key
        outside the window: V_d is the c @ B_in, B_in the rows with free
        key inside, that vanish outside.  `nullspace_mod` finds those c
        from B_in's entries at the unknowns outside.  If every c does,
        B_in is already V_d's canonical basis; only otherwise are the
        rows recombined and reduced again.  When no box row survived,
        every row is a unit vector, none reaches outside, and V_d is the
        unit rows of degree <= d."""
        p = self.dm.ctx.p
        inside, outside = [], []
        for key in self.unknowns:
            (inside if sum(key[1]) <= deg_bound else outside).append(key)
        rows = {f: row for f, row in self.rows.items()
                if sum(f[1]) <= deg_bound}
        keep = nullspace_mod(_dense(rows.values(), outside).T, p)
        if keep.shape[0] < len(rows):
            inner = keep @ _dense(rows.values(), inside) % p
            red, piv = rref_mod(inner[:, ::-1], p)
            rows = _sparse(red[:len(piv)][::-1, ::-1], inside)
        return InvariantSpace(self.dm, deg_bound, inside, rows)


def _dense(rows, columns) -> np.ndarray:
    """The int64 matrix of {key: value} rows (a sized iterable) over
    `columns`; entries at keys outside `columns` are left out."""
    at = {c: k for k, c in enumerate(columns)}
    out = np.zeros((len(rows), len(columns)), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            k = at.get(c)
            if k is not None:
                out[i, k] = v
    return out


def _sparse(mat, columns) -> dict:
    """The rows of a canonical matrix over `columns` as {free key: row},
    each row a {key: value} dict in column order, its free key the last."""
    out = {}
    for vec in mat:
        nz = np.flatnonzero(vec)
        out[columns[nz[-1]]] = {columns[k]: int(vec[k]) for k in nz}
    return out


def central_apply(dm: DModule, op: DiffOp, sec):
    """Evaluate a centralizer element sum f_k d^<cq> through the center:
    sum f_k Theta^c sec, as d^<cq> = theta^c exactly, with no Leibniz
    action on f_k.  Each output row is one coefficient dict: Theta^c's
    row times sec, times f_k, all multiply-accumulated and reduced once."""
    ctx = dm.ctx
    p, q = ctx.p, ctx.pm1
    accs = [{} for _ in range(dm.rank)]
    for k, f in op.terms.items():
        assert all(x % q == 0 for x in k)
        c = tuple(x // q for x in k)
        for acc, tp_row in zip(accs, dm.theta_pow(c)):
            inner = {}
            for x, g in zip(tp_row, sec):
                if x and g:
                    mac(inner, x.coeffs, g.coeffs)
            mac(acc, f.coeffs, inner)
    return [Poly._trusted(reduced(acc, p), ctx.r, p) for acc in accs]


def _box_entries(fd: FrobData, dm: DModule, nnil, key, sections) -> dict:
    """Condition key = (i, s) on the box sections t^a e_j, for each
    (j, a) in `sections`, as ((key, component), exponent, coefficient)
    entries, coefficients reduced and nonzero.

    Condition (i, s), i < r and 0 < s <= p^m, is the defect of d_i^<s>:
    D_s(sec) = central(phi_tilde(d_i^<s>)) sec - rho(d_i^<s>) sec, the
    image truncated at the nilpotency order (the rest acts as zero).
    It is built once and evaluated on every section:

    - the central half is O_X-linear in the section, so on t^a e_j it is
      t^a times its value on e_j, `central_apply` on the unit columns;
    - the Leibniz sum rho(d^<s e_i>)(t^a e_j) = sum_a' {s \\ a'}
      d^<a' e_i>(t^a) b((s - a') e_i) e_j, weights from
      `leibniz_weights`, runs only over the a' whose b((s - a') e_i)
      column j is nonzero, and d^<a' e_i>(t^a) is t^(a - a' e_i) times
      the residue of a_i in `dp_residues(a')` (zero when a_i < a').

    A complete family is (c, i, l, b), |c| < nnil, l <= m, b < q: the
    defect of d_i^<p^l> t_i^b on Theta^c sec = rho(d^<cq>) sec, as
    theta^c = d^<cq> exactly (multiplication operators come free, larger
    b repeat by periodicity of the binomials, larger c die on the
    module).  Both sides of a defect are O_X-linear in the operator
    and d^<p^l> t^b = sum_s' {p^l \\ s'} d^<s'>(t^b) d^<p^l - s'>, so
    that defect is sum_s' w(b, s') t_i^(b - s') D_(p^l - s') with
    w(b, s') = {p^l \\ s'} q_s'! C(b, s').  On a valid module the
    complete family, the D_s and the generators' D_(p^l) have one kernel:

    1. c > 0 adds nothing.  rho(theta_i) commutes with every rho(d^<k>),
       as theta_i is central and rho an action, and with t, so it is the
       O_X-linear matrix Theta_i; the Theta_i commute (checked by
       `nilpotency_index`).  central_apply is O_X-linear in the section
       (only `act` is not) and built from Theta powers, so
       D_s(Theta^c v) = Theta^c D_s(v): the kernel of the D_s is
       Theta-stable, and there a c > 0 condition is a c = 0 one.
    2. c = 0 is triangular in the D_s.  Each condition is an
       O_X-combination of D_(p^l - s'), p^l - s' <= p^m, and D_0 = 0.
       Conversely (0, i, m, b), b <= p^m, is D_(p^m - b) plus multiples
       of D_(p^m - s'), s' < b, since w(b, b) = 1 (q_b! = 1 and
       q_(p^m - b) = 0, or b = p^m); by induction on b each D_s vanishes
       on the kernel of the family.
    3. The D_s at s = p^l, l <= m, have the kernel of all the D_s,
       0 < s <= p^m.  For s < p^m, phi_tilde(d_i^<s>) = 0 (the lemma at
       `frobenius._peel`), so D_s(v) = -rho(d_i^<s>) v.  If s is not a
       power of p, peel p^L, the largest L <= m with p^L <= s, as
       `DModule.b_matrix` does: rho(d_i^<s>) = <s \\ p^L>^-1
       rho(d_i^<p^L>) rho(d_i^<s - p^L>), the angle a unit, on a valid
       module.  By induction on s, rho(d_i^<s - p^L>) v = 0 on the
       kernel of the generators' D_(p^l), so D_s(v) = 0 there.

    nullspace_mod's basis depends only on the kernel and the column
    order, so the basis is the one the complete family gives."""
    ctx = fd.ctx
    p, m, n = ctx.p, ctx.m, dm.rank
    i, s = key
    op = phi_tilde_basis(fd, _along(ctx, i, s), nnil - 1)
    cmat = _on_columns(partial(central_apply, dm, op), pmat_eye(n, ctx.r, p))
    central = [[(row, cmat[row][j].coeffs) for row in range(n)
                if cmat[row][j]] for j in range(n)]
    weights = leibniz_weights(s, s, 0, p, m)
    terms = []
    for a, w in zip(weights[::2], weights[1::2]):
        cols = dm._columns(_along(ctx, i, s - a))
        if any(cols):
            terms.append((_along(ctx, i, a), w, dp_residues(a, p, m), cols))
    box = {}
    for j, a0 in sections:
        acc = {}
        for row, f in central[j]:
            for e, c in f.items():
                k = (row, tuple(map(add, e, a0)))
                acc[k] = acc.get(k, 0) + c
        for da, w, res, cols in terms:
            c = w * res[a0[i] % len(res)]
            if c and cols[j]:
                b = tuple(map(sub, a0, da))
                for row, f, _ in cols[j]:
                    for e, cf in f.items():
                        k = (row, tuple(map(add, e, b)))
                        acc[k] = acc.get(k, 0) - c * cf
        box[(j, a0)] = [((key, row), e, cp)
                        for (row, e), c in acc.items() if (cp := c % p)]
    return box


def solve_invariants(fd: FrobData, dm: DModule,
                     deg_bound: int | None = None) -> InvariantSpace:
    """Compute the invariant sections of total degree <= deg_bound, by
    default 3 p^(m+1).

    The box sections t^a e_j, a < q = p^(m+1) componentwise, that the
    window reaches start live.  The conditions (i, s) of the generators
    come one at a time, s = p^l for l = 0..m outer and i inner, each
    built once and evaluated on the live sections (`_box_entries`).
    Entry (key, e) of section (j, a) is t'^(e div q) in box row (key,
    e mod q); a box row with one live section forces it, and every
    unknown t'^b t^a e_j, to zero (F_p[t'] is a domain).
    `_strike_singletons` runs on each condition's box rows
    and on the rows of two or more live sections kept from before, and
    what it forces is no longer live.

    The forced set is the one of an all-at-once strike: the least set F
    of sections such that no box row has exactly one section outside F.
    More rows or a larger F only force more, so every order of strikes
    run to the end reaches this one least set.  A box row carries its
    condition key, so it is built whole in one step, lacking only
    sections already in F, which change nothing.

    The survivors' t'-shifts inside the window are the unknowns; they
    get window rows, keyed by (condition key, component, shifted
    exponent), for one sparse solve in column order
    (`_sparse_nullspace`).  V_d for d <= D is `InvariantSpace.restrict`.
    dm must be a valid module (`DModule.validate`): the reduced
    conditions rely on it."""
    ctx = fd.ctx
    q = ctx.pm1
    d = 3 * q if deg_bound is None else deg_bound
    nnil = dm.nilpotency_index()
    live = {(j, a): [] for a in product(range(min(q, d + 1)), repeat=ctx.r)
            if sum(a) <= d for j in range(dm.rank)}   # section -> entries
    shared = []     # box rows of two or more live sections
    for s in (ctx.p**l for l in range(ctx.m + 1)):
        for i in range(ctx.r):
            new = {}
            for sec, entries in _box_entries(fd, dm, nnil, (i, s),
                                             live).items():
                live[sec] += entries
                for ck, e, _ in entries:
                    new.setdefault((ck, tuple(x % q for x in e)),
                                   {})[sec] = None
            forced, shared = _strike_singletons([*shared, *new.values()])
            for sec in forced:
                del live[sec]
    rows = {}     # (condition key, component, exponent) -> {unknown: coeff}
    unknowns = []
    for (j, a0), entries in live.items():
        for b in degree_box((d - sum(a0)) // q, ctx.r):
            shift = mi_scale(b, q)
            key = (j, mi_add(a0, shift))
            unknowns.append(key)
            for ck, e, cf in entries:
                rows.setdefault((ck, mi_add(e, shift)), {})[key] = cf
    unknowns.sort(key=lambda key: (key[1], key[0]))     # column order
    return InvariantSpace(dm, d, unknowns,
                          _sparse_nullspace(list(rows.values()), unknowns,
                                            ctx.p))


def _strike_singletons(rows):
    """(forced, rows left) of {column: value} rows: a row with one entry
    forces its column to zero, forced columns are struck from every row
    and rows left empty dropped, until no row is a singleton."""
    forced = set()
    while True:
        ones = {c for row in rows if len(row) == 1 for c in row}
        if not ones:
            return forced, rows
        forced |= ones
        rows = [left for row in rows
                if (left := {c: v for c, v in row.items() if c not in ones})]


def _sparse_nullspace(rows, columns, p) -> dict:
    """The canonical kernel basis, as `InvariantSpace.rows`, of these
    {column: nonzero} rows over `columns`, keys in column order.

    A forced column, by `_strike_singletons`, is zero on the whole
    kernel.  A free column is the last nonzero of some kernel vector, so
    a forced column is never free, and no row of the basis holds it: the
    basis is that of the rows left over the unforced columns.  With no
    row left it is their unit rows, and nothing is eliminated."""
    forced, rows = _strike_singletons(rows)
    cols = [c for c in columns if c not in forced]
    if not rows:
        return {c: {c: 1} for c in cols}
    return _sparse(nullspace_mod(_dense(rows, cols), p), cols)


# ---------------------------------------------------------------------------
# rank and the inverse direction

def invariant_rank(inv: InvariantSpace, low: InvariantSpace) -> int:
    """Minimal generator count over O_X': dim V_D / sum t'_i V_(D-q), for
    inv = V_D and low = V_(D-q).

    t'_i = t_i^q is central, so it moves each key (j, a) of a row of low
    to (j, a + q e_i).  The move is injective, so one block has the rank
    of low, whose rows are independent: at r = 1 the sum is that one
    block and the answer is dim V_D - dim V_(D-q), with no elimination.
    When every row of low is a unit vector, as when no box row survived,
    so is every moved row, and the rank of unit vectors is the number of
    distinct ones: the answer is a count at every r.  Otherwise the moved
    rows are eliminated over the keys they hold."""
    ctx = inv.dm.ctx
    if ctx.r == 1:
        return inv.dim - low.dim
    moved = [{(j, mi_add(a, tq)): c for (j, a), c in row.items()}
             for tq in (_along(ctx, i, ctx.pm1) for i in range(ctx.r))
             for row in low.rows.values()]
    held = {key for row in moved for key in row}
    if all(len(row) == 1 for row in moved):
        return inv.dim - len(held)
    return inv.dim - rank_mod(_dense(moved, held), ctx.p)


def recovered_higgs(fd: FrobData, dm: DModule):
    """The Higgs frame on invariants: matrices of the central operators
    phi^{-1}(theta_i) acting on constant sections, pushed down to O_X'.

    Exact because theta-degrees >= the nilpotency index act as zero.  On
    a round trip `solve_invariants` has cached psi_i = phi^{-1}(theta_i)
    on fd."""
    ctx = fd.ctx
    n = dm.nilpotency_index() - 1
    out = []
    for i in range(ctx.r):
        inv_op = phi_inv_basis(fd, _along(ctx, i, 1), n)
        mat = _on_columns(partial(central_apply, dm, inv_op),
                          pmat_eye(dm.rank, ctx.r, ctx.p))
        out.append(pmat_map(mat, lambda f: f.divide_exponents(ctx.pm1,
                                                              var="t'")))
    return out


def round_trip(fd: FrobData, higgs: HiggsModule,
               deg_bound: int | None = None):
    """pullback -> invariants -> Higgs frame; reports every verdict.

    higgs must already be valid (`HiggsModule.validate`), so a recovered
    frame equal to it is valid with no second check; any other frame is
    validated.  The invariants are solved once, at d + q with d =
    deg_bound, by default 3 q as in `solve_invariants`, where the rank
    stability check looks; the windows of degree <= d and <= d - q are
    restricted from that solve, and each window serves as the t'-shifted
    part of the one above it."""
    ctx = fd.ctx
    dm = pullback(fd, higgs)
    d = 3 * ctx.pm1 if deg_bound is None else deg_bound
    wide = solve_invariants(fd, dm, d + ctx.pm1)
    inv = wide.restrict(d)
    rank = invariant_rank(inv, inv.restrict(d - ctx.pm1))
    n = higgs.rank
    ident = pmat_eye(n, ctx.r, ctx.p)
    members = all(inv.contains([ident[s][j] for s in range(n)])
                  for j in range(n))
    stable = invariant_rank(wide, inv) == rank
    rec = recovered_higgs(fd, dm)
    exact = all(pmat_eq(a, b) for a, b in zip(rec, higgs.matrices))
    try:
        rec_ok = exact or HiggsModule(ctx, rec).validate()
    except ValueError:
        rec_ok = False
    return {
        "dm": dm, "inv": inv, "rank": rank, "rank_expected": n,
        "members": members, "stable": stable, "recovered": rec,
        "recovered_valid": rec_ok, "recovered_exact": exact,
    }


# ---------------------------------------------------------------------------
# corpus generation

def _random_invertible(rng, n, p):
    """A random invertible matrix over F_p and its inverse: [S | I]
    reduces to [I | S^-1] exactly when S is invertible."""
    while True:
        s = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        red, piv = rref_mod(np.hstack([s, np.eye(n, dtype=np.int64)]), p)
        if piv == list(range(n)):
            return s, red[:, n:].tolist()


def _const_pmat(entries, ctx):
    return [[Poly.const(c, ctx.r, ctx.p, "t'") if c else
             Poly.zero(ctx.r, ctx.p, "t'") for c in row] for row in entries]


def random_higgs(ctx: Context, rng, n: int, linear: bool = False) -> HiggsModule:
    """Commuting nilpotents: polynomials (no constant term needed in N)
    in one strictly upper-triangular seed, conjugated by a random frame;
    with `linear`, coefficients may be degree-one in t'."""
    p = ctx.p
    seed = [[rng.randrange(p) if j > i else 0 for j in range(n)]
            for i in range(n)]
    s, sinv = _random_invertible(rng, n, p)
    smat, sinvmat = _const_pmat(s, ctx), _const_pmat(sinv, ctx)
    nmat = _const_pmat(seed, ctx)
    mats = []
    for _ in range(ctx.r):
        acc = pmat_zero(n, ctx.r, p, "t'")
        power = pmat_eye(n, ctx.r, p, "t'")
        for _k in range(1, n):
            power = pmat_mul(power, nmat)
            coeff = Poly.const(rng.randrange(p), ctx.r, p, "t'")
            if linear:
                for v in range(ctx.r):
                    cv = rng.randrange(p)
                    if cv:
                        coeff = coeff + Poly.monomial(mi_unit(ctx.r, v), cv,
                                                      ctx.r, p, "t'")
            acc = pmat_add_inplace(acc, pmat_scale(power, coeff))
        mats.append(pmat_mul(smat, pmat_mul(acc, sinvmat)))
    h = HiggsModule(ctx, mats)
    h.validate()
    return h


def worked_example(ctx: Context) -> HiggsModule:
    """Rank two, A = [[0,1],[0,0]] in the first direction, zero in the
    others: the smallest nontrivial instance, recovered exactly."""
    n = 2
    mats = []
    first = pmat_zero(n, ctx.r, ctx.p, "t'")
    first[0][1] = Poly.one(ctx.r, ctx.p, "t'")
    mats.append(first)
    for _ in range(1, ctx.r):
        mats.append(pmat_zero(n, ctx.r, ctx.p, "t'"))
    return HiggsModule(ctx, mats)


def corpus(rng) -> list:
    """The round-trip test corpus: for each (p, m) in {2,3} x {0,1},
    rank-2 single-variable modules and a few r=2 modules (two of rank 3),
    plus the worked example and degree-one variants at m = 0."""
    out = []
    for p, m in [(2, 0), (3, 0), (2, 1), (3, 1)]:
        c1 = Context(p, m, r=1)
        if m == 0:
            out.append((f"worked-{p}{m}", worked_example(c1)))
            out.append((f"r1lin-{p}{m}", random_higgs(c1, rng, 2,
                                                      linear=True)))
        for k in range(3):
            out.append((f"r1-{p}{m}-{k}", random_higgs(c1, rng, 2)))
        c2 = Context(p, m, r=2)
        n3 = 3 if p == 2 else 2
        out.append((f"r2-{p}{m}", random_higgs(c2, rng, 2)))
        out.append((f"r2n{n3}-{p}{m}", random_higgs(c2, rng, n3)))
    return out
