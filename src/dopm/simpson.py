"""The local correspondence between Higgs modules and quasi-nilpotent
D^(m)-modules on affine r-space.

A Higgs module is a free O_X'-module with r commuting nilpotent
matrices.  Its pullback along a strong lifting carries the D^(m)-module
structure determined by

    rho(d_i^<p^l>) = 0 on generators       (l < m)
    rho(d_i^<p^m>) = sum_j c(i, j) sigma(A_j)

with c the tau^{p^m}-block of the divided Frobenius and sigma the
exponent dilation O_X' -> O_X.  Going back, a vector v is invariant when
the honest action of every operator agrees with the central evaluation
of its twisted-Frobenius image:

    rho(P)(v) = sum_k  f_k A_c^{-1} Theta^c v,  phi_tilde(P) = sum f_k d^<cq>

(phi alone is off by the center automorphism whenever some Theta^c with
|c| >= 2 survives on the module).  The solver reduces this to finitely
many linear conditions indexed by (i, l <= m, b < p^(m+1), |c| <
nilpotency index): multiplication operators come for free, larger b
repeat by periodicity of the binomial coefficients, and larger c die on
the module.

The conditions are O_X'-linear: t' = t^q with q = p^(m+1) is central,
so the conditions on t'^b t^a e_j are those on t^a e_j with every
exponent shifted by q b.  The solver evaluates them once on the box
a < q (componentwise) and builds every unknown of the degree window by
that shift.  A round trip solves once, at the bound d + q its stability
check needs, and reads the degree-<= d invariants off that solve as
V_d = V_(d+q) ∩ span(deg <= d).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .context import Context
from .diffops import DiffOp, apply_dp, central_unit, theta_unit
from .frobenius import FrobData, phi_center_inv, phi_tilde_basis
from .linalg import (nullspace_mod, pmat_add_inplace, pmat_eq, pmat_eye,
                     pmat_is_zero, pmat_map, pmat_mul, pmat_pow, pmat_scale,
                     pmat_zero, rank_mod, row_space_contains, rref_mod)
from .poly import MalformedInput, Poly, is_int, poly_from_json, poly_to_json
from .scalars import (angle_mi_mod, box_le, brace, brace_mi_mod, degree_box,
                      dp_monomial_action, mi_min, mi_scale, mi_sub, mi_sum,
                      mi_unit)


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
        n = self.rank
        for i in range(self.ctx.r):
            for j in range(i + 1, self.ctx.r):
                ab = pmat_mul(self.matrices[i], self.matrices[j])
                ba = pmat_mul(self.matrices[j], self.matrices[i])
                if not pmat_eq(ab, ba):
                    raise ValueError(f"Higgs matrices {i},{j} do not commute")
        for i, a in enumerate(self.matrices):
            if not pmat_is_zero(pmat_pow(a, n)):
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
        if data.get("rank", higgs.rank) != higgs.rank:
            raise MalformedInput(f"rank {data['rank']} but "
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
    `act` column by column: below q = p^(m+1) it peels the largest p^l
    off s e_i (the angle coefficients that appear are units), above q it
    splits off theta_i^c through the center, and a multi-index is built
    one coordinate at a time.  theta_i is the normalized p-th power of
    rho(d_i^<p^m>).
    """

    __slots__ = ("ctx", "rank", "gens", "_b", "_theta", "_tpow", "_nnil")

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
        self._theta = None
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
        """rho(d^<k>) on a section, given as a list of n polynomials."""
        ctx = self.ctx
        k = tuple(k)
        maxe = tuple(map(max, zip(*(f.max_exps() for f in sec))))
        out = [Poly.zero(ctx.r, ctx.p) for _ in range(self.rank)]
        for a in box_le(mi_min(k, maxe)):
            c = brace_mi_mod(a, mi_sub(k, a), ctx.p, ctx.m, ctx.p)
            if not c:
                continue
            da = [apply_dp(ctx, a, f) for f in sec]
            b = self.b_matrix(mi_sub(k, a))
            for row in range(self.rank):
                acc = out[row]
                for col in range(self.rank):
                    if b[row][col] and da[col]:
                        acc = acc + (b[row][col] * da[col]).scale(c)
                out[row] = acc
        return out

    def b_matrix(self, k):
        """Matrix of rho(d^<k>) on constant sections, any multi-index."""
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
        elif k[i] >= q:             # theta_i^c d^<s e_i>, up to a unit
            c, s = divmod(k[i], q)
            ce = _along(ctx, i, c)
            u = central_unit(ctx, ce) * \
                angle_mi_mod((c * q,), (s,), p, ctx.m, p) % p
            out = pmat_scale(pmat_mul(self.theta_pow(ce),
                                      self.b_matrix(_along(ctx, i, s))),
                             pow(u, -1, p))
        else:                       # d^<p^l e_i> d^<(s-p^l) e_i>, up to a unit
            s, l = k[i], 0
            while p ** (l + 1) <= s:
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

    def theta(self, i: int):
        if self._theta is None:
            self._theta = [None] * self.ctx.r
        if self._theta[i] is None:
            ctx = self.ctx
            mat = pmat_eye(self.rank, ctx.r, ctx.p)
            for _ in range(ctx.p):
                mat = _on_columns(partial(self.act, _along(ctx, i, ctx.pm)),
                                  mat)
            self._theta[i] = pmat_scale(mat, pow(theta_unit(ctx), -1, ctx.p))
        return self._theta[i]

    def theta_pow(self, c):
        c = tuple(c)
        if c in self._tpow:
            return self._tpow[c]
        if not any(c):
            out = pmat_eye(self.rank, self.ctx.r, self.ctx.p)
        else:
            i = next(j for j, x in enumerate(c) if x)
            out = pmat_mul(self.theta(i), self.theta_pow(mi_sub(c, mi_unit(self.ctx.r, i))))
        self._tpow[c] = out
        return out

    # -- structure -------------------------------------------------------

    def nilpotency_index(self) -> int:
        """Least N with Theta^c = 0 for all |c| = N."""
        if self._nnil is not None:
            return self._nnil
        ctx, n = self.ctx, self.rank
        for i in range(ctx.r):
            for j in range(i + 1, ctx.r):
                if not pmat_eq(pmat_mul(self.theta(i), self.theta(j)),
                               pmat_mul(self.theta(j), self.theta(i))):
                    raise NotQuasiNilpotent("curvature matrices do not commute")
        bound = ctx.r * (n - 1) + 1
        for nn in range(1, bound + 1):
            if all(pmat_is_zero(self.theta_pow(c))
                   for c in degree_box(nn, ctx.r) if mi_sum(c) == nn):
                self._nnil = nn
                return nn
        raise NotQuasiNilpotent(
            f"Theta powers do not vanish by total degree {bound}")

    def validate(self, pairs=None):
        """rho(d^<a>) rho(d^<b>) = <a+b \\ a> rho(d^<a+b>) on constants.

        Default window: all pairs with |a|, |b| <= p^(m+1)."""
        ctx = self.ctx
        if pairs is None:
            idx = list(degree_box(ctx.pm1, ctx.r))
            pairs = [(a, b) for a in idx for b in idx]
        for a, b in pairs:
            want = pmat_scale(self.b_matrix(tuple(x + y for x, y in zip(a, b))),
                              angle_mi_mod(a, b, ctx.p, ctx.m, ctx.p))
            bb = self.b_matrix(b)
            for j in range(self.rank):
                col = [bb[s][j] for s in range(self.rank)]
                got = self.act(a, col)
                if any(got[s] != want[s][j] for s in range(self.rank)):
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
    rho(d_i^<p^m>) = sum_j c(i,j) sigma(A_j), lower generators zero."""
    ctx = fd.ctx
    assert ctx == higgs.ctx
    n = higgs.rank
    gens = {}
    for i in range(ctx.r):
        for l in range(ctx.m):
            gens[(i, l)] = pmat_zero(n, ctx.r, ctx.p)
        acc = pmat_zero(n, ctx.r, ctx.p)
        for j in range(ctx.r):
            cij = fd.c_matrix(i, j)
            if not cij:
                continue
            sig = pmat_map(higgs.matrices[j],
                           lambda f: f.scale_exponents(ctx.pm1, var="t"))
            acc = pmat_add_inplace(acc, pmat_scale(sig, cij))
        gens[(i, ctx.m)] = acc
    return DModule(ctx, n, gens)


def curvature_of(dm: DModule):
    """The curvature frame Theta_1..Theta_r, expressed over O_X' (their
    entries always live there for a valid module)."""
    out = []
    for i in range(dm.ctx.r):
        out.append(pmat_map(dm.theta(i),
                            lambda f: f.divide_exponents(dm.ctx.pm1,
                                                         var="t'")))
    return out


# ---------------------------------------------------------------------------
# the invariants solver

class InvariantSpace:
    """F_p-basis of the invariant sections of degree <= deg_bound.

    `monomials` indexes the unknown coordinates as (component, exponent)
    pairs; `basis` rows are coefficient vectors in that indexing.
    """

    __slots__ = ("fd", "dm", "deg_bound", "monomials", "index", "basis")

    def __init__(self, fd, dm, deg_bound, monomials, basis):
        self.fd = fd
        self.dm = dm
        self.deg_bound = deg_bound
        self.monomials = monomials
        self.index = {ma: k for k, ma in enumerate(monomials)}
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def section(self, row) -> list:
        ctx = self.dm.ctx
        polys = [{} for _ in range(self.dm.rank)]
        for k, (j, a) in enumerate(self.monomials):
            c = int(row[k]) % ctx.p
            if c:
                polys[j][a] = c
        return [Poly(d, ctx.r, ctx.p) for d in polys]

    def sections(self) -> list:
        return [self.section(row) for row in self.basis]

    def flatten(self, sec):
        """Coordinates of a section, or None if it leaves the window."""
        v = np.zeros(len(self.monomials), dtype=np.int64)
        for j, f in enumerate(sec):
            for e, c in f.coeffs.items():
                k = self.index.get((j, e))
                if k is None:
                    return None
                v[k] = c % self.dm.ctx.p
        return v

    def contains(self, sec) -> bool:
        v = self.flatten(sec)
        return v is not None and row_space_contains(self.basis, v,
                                                    self.dm.ctx.p)

    def restrict(self, deg_bound: int) -> "InvariantSpace":
        """V_d = V ∩ span(deg <= d), for d = deg_bound <= self.deg_bound.

        The basis comes in the solver's canonical form (1 at its own free
        column, 0 at the others), so it equals a direct solve at d."""
        p = self.dm.ctx.p
        inside = [k for k, (_, a) in enumerate(self.monomials)
                  if mi_sum(a) <= deg_bound]
        outside = [k for k, (_, a) in enumerate(self.monomials)
                   if mi_sum(a) > deg_bound]
        basis = self.basis
        if outside and basis.shape[0]:
            keep = nullspace_mod(basis[:, outside].T, p)
            basis = keep @ basis % p
        basis = basis[:, inside]
        red, piv = rref_mod(basis[:, ::-1], p)
        basis = red[len(piv) - 1::-1, ::-1] if piv else red[:0]
        return InvariantSpace(self.fd, self.dm, deg_bound,
                              [self.monomials[k] for k in inside],
                              np.ascontiguousarray(basis))


def central_apply(dm: DModule, op: DiffOp, sec):
    """Evaluate a centralizer element sum f_k d^<cq> through the center:
    sum f_k A_c^{-1} Theta^c sec, with no Leibniz action on f_k."""
    ctx = dm.ctx
    q = ctx.pm1
    out = [Poly.zero(ctx.r, ctx.p) for _ in range(dm.rank)]
    for k, f in op.terms.items():
        assert all(x % q == 0 for x in k)
        c = tuple(x // q for x in k)
        u = pow(central_unit(ctx, c), -1, ctx.p)
        tp = dm.theta_pow(c)
        for row in range(dm.rank):
            acc = Poly.zero(ctx.r, ctx.p)
            for col in range(dm.rank):
                if tp[row][col] and sec[col]:
                    acc = acc + tp[row][col] * sec[col]
            if acc:
                out[row] = out[row] + (f * acc).scale(u)
    return out


def _vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _invariance_defects(fd: FrobData, dm: DModule, i: int, l: int, w,
                        n_trunc: int):
    """[central eval of the twisted Frobenius image - honest action] of
    d_i^<p^l - s'> on w, for s' = 0..p^l; the b-indexed conditions are
    O_X-combinations of these.

    The twist matters: the raw image reads theta^c through the curvature
    frame, which is off by the center automorphism once the curvature
    stops squaring to zero.  Truncating at the nilpotency order is exact,
    since the dropped terms act as zero on the module.
    """
    ctx = fd.ctx
    pl = ctx.p**l
    out = []
    for sp in range(pl + 1):
        e = _along(ctx, i, pl - sp)
        naive = central_apply(dm, phi_tilde_basis(fd, e, n_trunc), w)
        full = dm.act(e, w)
        out.append(_vec_sub(naive, full))
    return out


def _defect_weights(ctx: Context):
    """weights[l][b]: the (s', w) pairs with w = {p^l \\ s'} times the
    coefficient of d^<s'> t^b, nonzero mod p, for l <= m and b < q."""
    weights = []
    for l in range(ctx.m + 1):
        pl = ctx.p**l
        weights.append([[(sp, w) for sp in range(min(pl, b) + 1)
                         if (w := brace(sp, pl - sp, ctx.p, ctx.m) *
                             dp_monomial_action((sp,), (b,), ctx.p, ctx.m)
                             % ctx.p)]
                        for b in range(ctx.pm1)])
    return weights


def _condition_items(fd: FrobData, dm: DModule, sec, nnil, weights):
    """Reduced-invariance condition values on one section, yielded as
    (condition key, vector of polynomials) pairs.  Keys identify the
    condition across different input sections.

    Condition (c, i, l, b) is sum_s' w t_i^(b - s') times the s'-th
    invariance defect of d_i^<p^l> on Theta^c sec, over the pairs
    (s', w) of weights[l][b] (see _defect_weights)."""
    ctx = fd.ctx
    for c in degree_box(nnil - 1, ctx.r):
        w = central_apply(dm, DiffOp.dpartial(ctx, mi_scale(c, ctx.pm1)), sec)
        if all(not f for f in w):
            continue
        for i in range(ctx.r):
            for l in range(ctx.m + 1):
                defects = _invariance_defects(fd, dm, i, l, w, nnil - 1)
                for b, terms in enumerate(weights[l]):
                    acc = [{} for _ in range(dm.rank)]
                    for sp, wt in terms:
                        for out, f in zip(acc, defects[sp]):
                            for e, cf in f.coeffs.items():
                                e = e[:i] + (e[i] + b - sp,) + e[i + 1:]
                                out[e] = out.get(e, 0) + wt * cf
                    vec = [Poly(d, ctx.r, ctx.p) for d in acc]
                    if any(vec):
                        yield (c, i, l, b), vec


def _flatten_rows(vec_rows, p):
    """Vector-of-polynomials rows -> dense matrix over F_p."""
    monos = {}
    data = []
    for vec in vec_rows:
        row = {}
        for j, f in enumerate(vec):
            for e, c in f.coeffs.items():
                key = (j, e)
                if key not in monos:
                    monos[key] = len(monos)
                row[monos[key]] = c
        data.append(row)
    mat = np.zeros((len(data), len(monos)), dtype=np.int64)
    for rix, row in enumerate(data):
        for cix, c in row.items():
            mat[rix, cix] = c % p
    return mat


def _class_of(monomial, q):
    (_, a) = monomial
    return mi_sum(a) % q


def _split_classes_ok(fd: FrobData, dm: DModule) -> bool:
    """Degree classes decouple when the lifting data is homogeneous and
    every generator entry sits in the single compatible class."""
    if not fd.is_graded:
        return False
    q = fd.ctx.pm1
    for (i, l), mat in dm.gens.items():
        pl = fd.ctx.p**l
        for row in mat:
            for f in row:
                for e in f.coeffs:
                    if (sum(e) + pl) % q:
                        return False
    return True


def solve_invariants(fd: FrobData, dm: DModule,
                     deg_bound: int | None = None) -> InvariantSpace:
    """Compute the invariant sections of total degree <= deg_bound.

    t' = t^q (q = p^(m+1)) is central, so the conditions on t'^b t^a e_j
    are those on t^a e_j with every exponent shifted by q b.  They are
    evaluated once per box section t^a e_j, a < q componentwise, that
    the window reaches; every other unknown reuses its box entry.  A
    smaller window needs no second solve: V_d = V_D ∩ span(deg <= d)
    for d <= D, which `InvariantSpace.restrict` computes."""
    ctx = fd.ctx
    q = ctx.pm1
    d = ctx.solve_bound() if deg_bound is None else deg_bound
    nnil = dm.nilpotency_index()
    fd = fd.deepen(nnil - 1)   # tau-room for the twisted images
    monomials = [(j, a) for a in degree_box(d, ctx.r)
                 for j in range(dm.rank)]
    weights = _defect_weights(ctx)
    box = {}
    for j, a in monomials:
        a0 = tuple(x % q for x in a)
        if (j, a0) not in box:
            sec = [Poly.monomial(a0, 1, ctx.r, ctx.p) if jj == j
                   else Poly.zero(ctx.r, ctx.p) for jj in range(dm.rank)]
            items = _condition_items(fd, dm, sec, nnil, weights)
            box[(j, a0)] = [((key, comp), e, cf) for key, vec in items
                            for comp, f in enumerate(vec)
                            for e, cf in f.coeffs.items()]
    if _split_classes_ok(fd, dm):
        groups = {}
        for mono in monomials:
            groups.setdefault(_class_of(mono, q), []).append(mono)
        blocks = list(groups.values())
    else:
        blocks = [monomials]
    all_monos = [mono for block in blocks for mono in block]
    rows = []
    off = 0
    for block in blocks:
        for row in _solve_block(block, box, q, ctx.p):
            full = np.zeros(len(all_monos), dtype=np.int64)
            full[off:off + len(block)] = row
            rows.append(full)
        off += len(block)
    mat = np.array(rows, dtype=np.int64) if rows else \
        np.zeros((0, len(all_monos)), dtype=np.int64)
    return InvariantSpace(fd, dm, d, all_monos, mat)


def _solve_block(block, box, q, p) -> np.ndarray:
    """One linear solve: the box conditions of every unknown of the block,
    shifted to its exponent and keyed so sparse slots stay aligned."""
    coords = {}   # (condition key, component, exponent) -> constraint row
    cols = []     # per unknown: {constraint row -> coefficient}
    for j, a in block:
        shift = tuple(x - x % q for x in a)
        col = {}
        for ck, e, cf in box[(j, tuple(x % q for x in a))]:
            e = tuple(x + s for x, s in zip(e, shift))
            col[coords.setdefault((ck, e), len(coords))] = cf
        cols.append(col)
    if not coords:
        return np.eye(len(block), dtype=np.int64)
    mat = np.zeros((len(coords), len(block)), dtype=np.int64)
    for k, col in enumerate(cols):
        for idx, cf in col.items():
            mat[idx, k] = cf % p
    return nullspace_mod(mat, p)


def solve_invariants_literal(fd: FrobData, dm: DModule, deg_bound: int,
                             k_bound: int) -> InvariantSpace:
    """Reference solver: impose rho(P)v = central(phi_tilde(P))v literally
    for every basis operator d^<k>, k <= k_bound coordinate-wise.  Slow;
    used to cross-check the reduced condition set on small configurations."""
    ctx = fd.ctx
    nnil = dm.nilpotency_index()
    # phi must be exact on every probed |k| <= k_bound * r
    room = -(-k_bound * ctx.r // ctx.pm1)
    fd = fd.deepen(max(nnil - 1, room))
    monomials = [(j, a) for a in degree_box(deg_bound, ctx.r)
                 for j in range(dm.rank)]
    cols = []
    for (j, a) in monomials:
        sec = [Poly.monomial(a, 1, ctx.r, ctx.p) if jj == j
               else Poly.zero(ctx.r, ctx.p) for jj in range(dm.rank)]
        conds = []
        for k in box_le((k_bound,) * ctx.r):
            if not any(k):
                continue
            naive = central_apply(dm, phi_tilde_basis(fd, k, nnil - 1), sec)
            full = dm.act(k, sec)
            conds.append(_vec_sub(naive, full))
        cols.append(conds)
    nslots = len(cols[0])
    mats = []
    for slot in range(nslots):
        # unknowns x output-monomials, transposed into constraint rows
        mats.append(_flatten_rows([cols[k][slot] for k in range(len(cols))],
                                  ctx.p).T)
    big = np.concatenate(mats, axis=0)
    basis = nullspace_mod(big, ctx.p)
    return InvariantSpace(fd, dm, deg_bound, monomials, basis)


# ---------------------------------------------------------------------------
# rank, generators, and the inverse direction

def invariant_rank(inv: InvariantSpace):
    """Minimal generator count over O_X': dim V_D / sum t'_i V_(D-q).

    Returns (rank, generator rows): the rows of inv.basis that are not in
    the span of t'V_(D-q) and the basis rows before them, read off as the
    pivot columns of one row reduction of [t'V_(D-q); basis]^T."""
    ctx = inv.dm.ctx
    p, q = ctx.p, ctx.pm1
    if inv.dim == 0:
        return 0, []
    shifted = []
    for sec in inv.restrict(inv.deg_bound - q).sections():
        for i in range(ctx.r):
            tq = Poly.monomial(_along(ctx, i, q), 1, ctx.r, p)
            moved = inv.flatten([tq * f for f in sec])
            assert moved is not None
            shifted.append(moved)
    ns = len(shifted)
    _, pivots = rref_mod(np.vstack([*shifted, inv.basis]).T, p)
    gens = [inv.basis[c - ns] for c in pivots if c >= ns]
    return len(gens), gens


def recovered_higgs(fd: FrobData, dm: DModule):
    """The Higgs frame on invariants: matrices of the central operators
    phi^{-1}(theta_i) acting on constant sections, pushed down to O_X'.

    Exact because theta-degrees >= the nilpotency index act as zero."""
    ctx = fd.ctx
    n = dm.nilpotency_index() - 1
    fd = fd.deepen(n)          # phi needs tau-room up to theta-degree n
    out = []
    for i in range(ctx.r):
        th = DiffOp.dpartial(fd.ctx, _along(ctx, i, ctx.pm1))
        inv_op = phi_center_inv(fd, th, n) if n else DiffOp.zero(fd.ctx)
        mat = _on_columns(partial(central_apply, dm, inv_op),
                          pmat_eye(dm.rank, ctx.r, ctx.p))
        out.append(pmat_map(mat, lambda f: f.divide_exponents(ctx.pm1,
                                                              var="t'")))
    return out


def round_trip(fd: FrobData, higgs: HiggsModule):
    """pullback -> invariants -> Higgs frame; reports every verdict.

    The invariants are solved once, at d + q with d = ctx.solve_bound(),
    where the rank stability check looks; the window of degree <= d is
    restricted from that solve."""
    ctx = fd.ctx
    dm = pullback(fd, higgs)
    d = ctx.solve_bound()
    wide = solve_invariants(fd, dm, d + ctx.pm1)
    inv = wide.restrict(d)
    rank, _ = invariant_rank(inv)
    n = higgs.rank
    ident = pmat_eye(n, ctx.r, ctx.p)
    members = all(inv.contains([ident[s][j] for s in range(n)])
                  for j in range(n))
    stable = invariant_rank(wide)[0] == rank
    rec = recovered_higgs(fd, dm)
    rec_ok = _commuting_nilpotent(rec, n, ctx)
    exact = all(pmat_eq(a, b) for a, b in zip(rec, higgs.matrices))
    return {
        "dm": dm, "inv": inv, "rank": rank, "rank_expected": n,
        "members": members, "stable": stable, "recovered": rec,
        "recovered_valid": rec_ok, "recovered_exact": exact,
    }


def _commuting_nilpotent(mats, n, ctx) -> bool:
    try:
        HiggsModule(ctx, mats).validate()
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# corpus generation

def _random_invertible(rng, n, p):
    while True:
        s = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_mod(np.array(s, dtype=np.int64), p) == n:
            return s


def _mat_inverse(s, p):
    n = len(s)
    a = np.array(s, dtype=np.int64) % p
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    red, piv = rref_mod(aug, p)
    assert piv == list(range(n))
    return [[int(red[i, n + j]) for j in range(n)] for i in range(n)]


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
    s = _random_invertible(rng, n, p)
    sinv = _mat_inverse(s, p)
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


def corpus_json(modules) -> dict:
    return {"modules": [{"name": name, **h.to_json()} for name, h in modules]}
