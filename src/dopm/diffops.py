"""The ring D^(m) of level-m differential operators on affine r-space.

Elements are finite sums  sum_k  f_k(t) * d^<k>  over the divided-power
basis, with coefficients mod p.  Composition is governed by

    d^<k> * f      = sum_{i<=k} {k \\ i} d^<i>(f) d^<k-i>        (Leibniz)
    d^<k> * d^<l>  = <k+l \\ k> d^<k+l>

and the center is generated over O_X' = k[t^{p^(m+1)}] by the curvature
elements theta_i = d^<p^(m+1) e_i>, which kill O_X because q(p^(m+1)) = p.
"""

from __future__ import annotations

from itertools import product
from operator import mul, sub

from .context import Context
from .poly import Poly, mac, reduced
from .scalars import (box, dp_residues, leibniz_weights, mi_add, mi_scale,
                      mi_unit, mi_zero)


def dp_coeffs(s, coeffs: dict, p: int, m: int) -> dict:
    """d^<s> on a coefficient dict mod p: {h - s: c * prod_i q_(s_i)!
    C(h_i, s_i)}, from the cached `dp_residues` of each coordinate.  The
    values are reduced and nonzero, and distinct h give distinct keys.
    For s = 0 it is `coeffs` itself, not a copy: callers only read it."""
    cols = [(i, dp_residues(x, p, m)) for i, x in enumerate(s) if x]
    if not cols:
        return coeffs
    out = {}
    for h, c in coeffs.items():
        for i, row in cols:
            c = c * row[h[i] % len(row)]
            if not c:
                break
        else:
            out[tuple(map(sub, h, s))] = c % p
    return out


def leibniz(ctx: Context, out: dict, k, g: Poly, l, targets) -> None:
    """Accumulate d^<k> * g * d^<l>
        = sum_(a + j = k) {k \\ a} <j + l \\ j> d^<a>(g) d^<j + l>,
    the Leibniz rule followed by the product of basis operators, into the
    coefficient dicts of `out`.

    `targets(j)` says where the j-term goes: (slot, F, c) triples, each
    adding c * F * (its weight) * d^<a>(g) to out[slot] for a coefficient
    dict F; an empty answer skips j before d^<a>(g) is formed.  The
    weights come coordinate by coordinate from `leibniz_weights`, which
    leaves out the a with a zero factor and the a beyond g's support,
    where d^<a>(g) dies.  Nothing is reduced; the caller reduces each
    slot once (`reduced`)."""
    p, m = ctx.p, ctx.m
    rows = []
    for ki, hi, li in zip(k, g.max_exps(), l):
        row = leibniz_weights(ki, min(ki, hi), li, p, m)
        rows.append(zip(row[::2], row[1::2]))
    for combo in product(*rows):
        a = tuple([x for x, _ in combo])
        c = 1
        for _, w in combo:
            c *= w
        dests = targets(tuple(map(sub, k, a)))
        if not dests:
            continue
        h = dp_coeffs(a, g.coeffs, p, m)
        if not h:
            continue
        for slot, f, w in dests:
            acc = out.get(slot)
            if acc is None:
                acc = out[slot] = {}
            mac(acc, f, h, c * w)


class DiffOp:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms):
        self.ctx = ctx
        clean = {}
        for k, f in terms.items():
            if f:
                assert f.nvars == ctx.r and f.mod == ctx.p, "bad coefficient"
                clean[tuple(k)] = f
        self.terms = clean

    @classmethod
    def _trusted(cls, ctx: Context, terms: dict):
        """Wrap `terms` as it is: tuple keys and nonzero Poly values over
        ctx (`from_dicts` builds them)."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        return self

    @classmethod
    def from_dicts(cls, ctx: Context, out: dict):
        """The operator sum_k out[k] d^<k> of unreduced coefficient dicts,
        reduced once."""
        p, r = ctx.p, ctx.r
        terms = {}
        for k, acc in out.items():
            f = reduced(acc, p)
            if f:
                terms[k] = Poly._trusted(f, r, p)
        return cls._trusted(ctx, terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def from_poly(cls, ctx, f: Poly):
        return cls(ctx, {mi_zero(ctx.r): f})

    @classmethod
    def one(cls, ctx):
        return cls.from_poly(ctx, Poly.one(ctx.r, ctx.p))

    @classmethod
    def dpartial(cls, ctx, k, coeff=None):
        """f * d^<k> for a multi-index k."""
        f = coeff if coeff is not None else Poly.one(ctx.r, ctx.p)
        return cls(ctx, {tuple(k): f})

    # -- basics -------------------------------------------------------------

    def _check(self, other: "DiffOp"):
        assert self.ctx == other.ctx, "DiffOp context mismatch"

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def theta_truncate(self, n: int) -> "DiffOp":
        q = self.ctx.pm1
        return DiffOp(self.ctx, {k: f for k, f in self.terms.items()
                                 if sum(x // q for x in k) <= n})

    def map_coeffs(self, fn) -> "DiffOp":
        return DiffOp(self.ctx, {k: fn(f) for k, f in self.terms.items()})

    def __repr__(self):
        from .expr import render_op     # expr imports this module
        return render_op(self)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        zero = Poly.zero(self.ctx.r, self.ctx.p)
        for k, f in other.terms.items():
            out[k] = out.get(k, zero) + f
        return DiffOp(self.ctx, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "DiffOp":
        return DiffOp(self.ctx, {k: f.scale(c) for k, f in self.terms.items()})

    def apply(self, f: Poly) -> Poly:
        """P(f) for f mod p."""
        p, m = self.ctx.p, self.ctx.m
        acc: dict = {}
        for k, g in self.terms.items():
            mac(acc, g.coeffs, dp_coeffs(k, f.coeffs, p, m))
        return Poly._trusted(reduced(acc, p), self.ctx.r, p, f.var)

    def __mul__(self, other):
        """Composition P * Q as operators (P after Q); any other operand is
        not ours to multiply by."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        out: dict = {}
        for k, f in self.terms.items():
            fc = f.coeffs
            for l, g in other.terms.items():
                def targets(j):
                    return ((mi_add(j, l), fc, 1),)

                leibniz(ctx, out, k, g, l, targets)
        return DiffOp.from_dicts(ctx, out)

    def __pow__(self, n: int) -> "DiffOp":
        return self.power(n)

    def power(self, n: int, times=mul) -> "DiffOp":
        """self^n by squaring: at most 2 log2(n) products, not n, each
        formed by times(a, b), the product a * b."""
        if n < 2:
            return self if n else DiffOp.one(self.ctx)
        half = self.power(n // 2, times)
        square = times(half, half)
        return times(square, self) if n % 2 else square


def premul_sum(ctx: Context, pairs) -> DiffOp:
    """sum f * P over the (f, P) pairs, accumulated in one coefficient
    dict per index and reduced once."""
    out: dict = {}
    for f, op in pairs:
        for k, g in op.terms.items():
            acc = out.get(k)
            if acc is None:
                acc = out[k] = {}
            mac(acc, f.coeffs, g.coeffs)
    return DiffOp.from_dicts(ctx, out)


# ---------------------------------------------------------------------------
# curvature elements and the center

def theta(ctx: Context, i: int) -> DiffOp:
    """theta_i = d^<p^(m+1) e_i>, the i-th curvature generator."""
    return theta_power(ctx, mi_unit(ctx.r, i))


def theta_power(ctx: Context, c) -> DiffOp:
    """theta^c = d^<c q>, q = p^(m+1), exactly mod p.

    No unit factor is needed.  In d^<k> d^<l> = <k+l \\ k> d^<k+l>, a
    product over coordinates, each scalar the center meets is 1 mod p:
    (d^<p^m>)^p = theta, theta^c = d^<c q>, theta^c d^<s> = d^<c q + s>
    for 0 <= s < q.  With "≡" meaning mod p:

    - Write (pn)! = p^n n! W(n), W(n) the product of the i <= pn prime
      to p.  By Wilson's theorem W(n) ≡ ((p-1)!)^n ≡ (-1)^n, so
      C(pa, pb) / C(a, b) = W(a) / (W(b) W(a-b)) ≡ 1.  Applied m times,
      <a p^m \\ b p^m> = C(a p^m, b p^m) / C(a, b) ≡ 1, since the brace
      of multiples of p^m is C(a, b).  The p-th power multiplies these
      for a = j+1, b = j; theta^c for a = (j+1)p, b = jp.
    - For s < q the base-p digits of s sit below those of c q, so by
      Lucas's theorem C(cq+s, s) ≡ 1 and {cq+s \\ s} = C(cp + s', s') ≡ 1
      with s' = s div p^m < p: <cq+s \\ cq> ≡ 1.
    """
    return DiffOp.dpartial(ctx, mi_scale(c, ctx.pm1))


# ---------------------------------------------------------------------------
# normal forms: O_X[theta]-combinations of the small-index basis

def zo_decompose(op: DiffOp):
    """Write P = sum_{u < p^(m+1)}  z_u(t, theta) * d^<u>.

    Returns {u: Poly in 2r variables "t|th"}.  t^e d^<c q + u> is
    t^e theta^c d^<u> exactly (`theta_power`), so it is the term
    t^e th^c of z_u, and no two terms of P share one.
    """
    ctx = op.ctx
    q = ctx.pm1
    out: dict = {}
    for k, f in op.terms.items():
        c = tuple(x // q for x in k)
        slot = out.setdefault(tuple(x % q for x in k), {})
        for e, cf in f.coeffs.items():
            slot[e + c] = cf
    return {u: Poly._trusted(d, 2 * ctx.r, ctx.p, "t|th")
            for u, d in out.items()}


KANEDA_MAX_SIZE = 4096


def kaneda_matrix(op: DiffOp):
    """Matrix of right multiplication by P on the free left module
    O_X[theta]^(q^r), q = p^(m+1), with basis the d^<u>, u < q: column t
    holds d^<t> * P = sum_u M[u][t] d^<u>.  Rows and columns are indexed
    by box(q)^r in lex order.  Entries are commutative polynomials in
    "t|th"; the defining relation is M(P*Q) = M(Q) @ M(P).

    Each cell comes straight from the Leibniz rule.  A term g d^<l> of P
    and an a <= t add

        {t \\ a} <t-a+l \\ t-a> d^<a>(g) th^c,  t-a+l = c q + u,

    to the cell (row u, column t), since d^<cq+u> is theta^c d^<u>
    exactly (`theta_power`).  The weights are products of the
    coordinates' `leibniz_weights`, so each coordinate lists its
    (a, weight, t, u, c) once per term and the cells run over the
    product of those lists.  Each d^<a>(g) is formed once per term and
    serves every column t >= a.  More than KANEDA_MAX_SIZE rows (size^2
    entries) is refused with ValueError before anything is built.
    """
    ctx = op.ctx
    p, m, q, r = ctx.p, ctx.m, ctx.pm1, ctx.r
    size = q ** r
    if size > KANEDA_MAX_SIZE:
        raise ValueError(f"the Kaneda matrix has p^((m+1)r) = {size} rows; "
                         f"at most {KANEDA_MAX_SIZE} are supported")
    idx = {u: n for n, u in enumerate(box(q, r))}
    cells: dict = {}
    for l, g in op.terms.items():
        coords = []
        for hi, li in zip(g.max_exps(), l):
            trail = []
            for ti in range(q):
                row = leibniz_weights(ti, min(ti, hi), li, p, m)
                for ai, wi in zip(row[::2], row[1::2]):
                    c, u = divmod(ti - ai + li, q)
                    trail.append((ai, wi, ti, u, c))
            coords.append(trail)
        dg: dict = {}
        for combo in product(*coords):
            a, ws, t, u, c = zip(*combo)
            h = dg.get(a)
            if h is None:
                h = dg[a] = dp_coeffs(a, g.coeffs, p, m)
            if not h:
                continue
            w = 1
            for x in ws:
                w *= x
            acc = cells.setdefault((u, t), {})
            for e, x in h.items():
                e = e + c
                acc[e] = acc.get(e, 0) + w * x
    zero = Poly.zero(2 * r, p, "t|th")
    mat = [[zero] * size for _ in range(size)]
    for (u, t), acc in cells.items():
        f = reduced(acc, p)
        if f:
            mat[idx[u]][idx[t]] = Poly._trusted(f, 2 * r, p, "t|th")
    return mat


def box_matrix(ctx: Context, image, var: str):
    """The images of the box basis {t^a : a < q = p^(m+1)} of O_X over
    O_X' = k[t'], t' = t^q, as a matrix: column a holds image(a), its
    term t^h in row h mod q with t'^(h div q).  Variables of the image
    past the first r (theta, in O_X[theta]) ride along; the entries are
    polynomials in `var`."""
    q, r = ctx.pm1, ctx.r
    basis = list(box(q, r))
    idx = {a: n for n, a in enumerate(basis)}
    mat = [[{} for _ in basis] for _ in basis]
    for col, a in enumerate(basis):
        for e, c in image(a).coeffs.items():
            lo = tuple(x % q for x in e[:r])
            mat[idx[lo]][col][tuple(x // q for x in e[:r]) + e[r:]] = c
    nvars = r * len(var.split("|"))
    return [[Poly(d, nvars, ctx.p, var) for d in row] for row in mat]


def quotient_matrix(op: DiffOp):
    """Matrix of P acting on O_X = O_X'{t^a : a < p^(m+1)}, over O_X'.

    The curvature ideal acts as zero here (q(p^(m+1))! = p!), so this is
    the faithful matrix model of D^(m)/(theta).  Entries are polynomials
    in t' = t^(p^(m+1)).
    """
    ctx = op.ctx
    return box_matrix(
        ctx, lambda a: op.apply(Poly.monomial(a, 1, ctx.r, ctx.p)), "t'")


# ---------------------------------------------------------------------------
# changing the level

def frob_descend(op: DiffOp, divide_coeffs: bool = False) -> DiffOp:
    """Frobenius descent D^(m) -> D^(m-1), one level down: keep the terms
    whose index is divisible by p coordinate-wise, at index k/p; drop the
    rest.

    Coefficients ride along unchanged (the O_X (x) D^(m-1) reading); with
    `divide_coeffs` the t-exponents are divided too, which realizes the
    exact inverse of frob_raise.
    """
    ctx, p = op.ctx, op.ctx.p
    assert ctx.m >= 1
    return DiffOp(Context(p, ctx.m - 1, ctx.r), {
        tuple(x // p for x in k): f.divide_exponents(p) if divide_coeffs
        else f for k, f in op.terms.items() if not any(x % p for x in k)})


def frob_raise(op: DiffOp) -> DiffOp:
    """Frobenius pullback D^(m) -> D^(m+1), one level up: indices and
    coefficient exponents both dilate by p.  A ring map; frob_descend
    with divide_coeffs inverts it exactly."""
    ctx, p = op.ctx, op.ctx.p
    return DiffOp(Context(p, ctx.m + 1, ctx.r), {
        mi_scale(k, p): f.scale_exponents(p) for k, f in op.terms.items()})
