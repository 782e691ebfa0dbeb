"""Reference mathematics for the benchmark's checks, written from the
formulas alone.  Nothing here imports dopm.

Polynomials are dicts {exponent tuple: int}, operators dicts
{divided-power index: polynomial}, both with coefficients in 0..p-1 and
no zero entries.  Structure constants come from math.comb and
math.factorial over the integers:

    d^<k>(t^h)     = prod_i q_{k_i}! C(h_i, k_i) t^(h-k)
    d^<k> * g      = sum_{i<=k} {k \\ i} d^<i>(g) d^<k-i>          (Leibniz)
    d^<k> * d^<l>  = <k+l \\ k> d^<k+l>
    {k+l \\ k}     = q_{k+l}! / (q_k! q_l!)
    <k+l \\ k>     = C(k+l, k) / {k+l \\ k}

with q_n = floor(n / p^m), products taken coordinate by coordinate.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial, gcd

import numpy as np


# ---------------------------------------------------------------------------
# structure constants

def _qf(n: int, p: int, m: int) -> int:
    return factorial(n // p**m)


def brace_int(k, l, p: int, m: int) -> int:
    """{k+l \\ k} for multi-indices, an exact integer."""
    out = 1
    for a, b in zip(k, l):
        out *= _qf(a + b, p, m) // (_qf(a, p, m) * _qf(b, p, m))
    return out


def angle_mod(k, l, p: int, m: int) -> int:
    """<k+l \\ k> mod p; the fraction is p-integral, so its reduced
    denominator is a unit."""
    num, den = 1, 1
    for a, b in zip(k, l):
        num *= comb(a + b, a) * _qf(a, p, m) * _qf(b, p, m)
        den *= _qf(a + b, p, m)
    g = gcd(num, den)
    num, den = num // g, den // g
    if den % p == 0:
        raise ArithmeticError(f"<{k}+{l}> is not p-integral at p={p}")
    return num * pow(den, -1, p) % p


def dp_coeff(k, h, p: int, m: int) -> int:
    """The integer c with d^<k>(t^h) = c t^(h-k); 0 when k > h somewhere."""
    c = 1
    for ki, hi in zip(k, h):
        if ki > hi:
            return 0
        c *= _qf(ki, p, m) * comb(hi, ki)
    return c


# ---------------------------------------------------------------------------
# polynomials and operators

def poly_add(acc: dict, f: dict, c: int, p: int) -> None:
    """acc += c * f, in place."""
    for e, v in f.items():
        x = (acc.get(e, 0) + c * v) % p
        if x:
            acc[e] = x
        else:
            acc.pop(e, None)


def poly_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def dp_apply(k, f: dict, p: int, m: int) -> dict:
    """d^<k>(f)."""
    out: dict = {}
    for h, c in f.items():
        a = dp_coeff(k, h, p, m) * c % p
        if a:
            e = tuple(x - y for x, y in zip(h, k))
            out[e] = (out.get(e, 0) + a) % p
    return {e: c for e, c in out.items() if c}


def op_apply(op: dict, f: dict, p: int, m: int) -> dict:
    """P(f) = sum_k f_k d^<k>(f)."""
    out: dict = {}
    for k, fk in op.items():
        poly_add(out, poly_mul(fk, dp_apply(k, f, p, m), p), 1, p)
    return out


def op_mul(a: dict, b: dict, p: int, m: int) -> dict:
    """Composition a * b by the Leibniz rule and the basis law."""
    out: dict = {}
    for k, f in a.items():
        for l, g in b.items():
            for i in product(*(range(x + 1) for x in k)):
                ki = tuple(x - y for x, y in zip(k, i))
                c = brace_int(i, ki, p, m) * angle_mod(ki, l, p, m) % p
                if not c:
                    continue
                gi = dp_apply(i, g, p, m)
                if not gi:
                    continue
                s = tuple(x + y for x, y in zip(ki, l))
                slot = out.setdefault(s, {})
                poly_add(slot, poly_mul(f, gi, p), c, p)
    return {k: f for k, f in out.items() if f}


def op_pow(a: dict, n: int, r: int, p: int, m: int) -> dict:
    out = {(0,) * r: {(0,) * r: 1}}
    for _ in range(n):
        out = op_mul(out, a, p, m)
    return out


def op_add(a: dict, b: dict, p: int) -> dict:
    out = {k: dict(f) for k, f in a.items()}
    for k, g in b.items():
        slot = out.setdefault(k, {})
        poly_add(slot, g, 1, p)
    return {k: f for k, f in out.items() if f}


def op_premul(f: dict, a: dict, p: int) -> dict:
    """f * a for a function f: only the coefficients change."""
    out = {k: poly_mul(f, g, p) for k, g in a.items()}
    return {k: g for k, g in out.items() if g}


def zo_decompose(op: dict, p: int, m: int) -> dict:
    """Write P = sum_u z_u(t, theta) d^<u> with every u_i < q = p^(m+1)
    and theta_i = d_i^<q>: {u: polynomial in t_1..t_r, theta_1..theta_r}.
    theta^c d^<u> is a unit times d^<c q + u>, by the basis law."""
    q = p ** (m + 1)
    out: dict = {}
    for k, f in op.items():
        r = len(k)
        one = {(0,) * r: 1}
        c = tuple(x // q for x in k)
        u = tuple(x % q for x in k)
        mono = {(0,) * r: one}
        for i, ci in enumerate(c):
            theta = {tuple(q * (j == i) for j in range(r)): one}
            for _ in range(ci):
                mono = op_mul(mono, theta, p, m)
        mono = op_mul(mono, {u: one}, p, m)
        unit = mono.get(k, {}).get((0,) * r, 0)
        if mono != {k: {(0,) * r: unit}} or unit % p == 0:
            raise ArithmeticError(f"theta^{c} d^<{u}> is not a unit times "
                                  f"d^<{k}>")
        slot = out.setdefault(u, {})
        poly_add(slot, {e + c: x for e, x in f.items()}, pow(unit, -1, p), p)
    return {u: z for u, z in out.items() if z}


def mat_mul(a, b, p: int):
    """Product of matrices of commutative polynomials."""
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc: dict = {}
            for x, brow in zip(row, b):
                if x and brow[j]:
                    poly_add(acc, poly_mul(x, brow[j], p), 1, p)
            new.append(acc)
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# rendering, in the format the command line prints

def _signed(c: int, p: int) -> int:
    c %= p
    return c if c <= p // 2 else c - p


def _mono(e, groups, r) -> str:
    parts = []
    for gi, name in enumerate(groups):
        for i in range(r):
            x = e[gi * r + i]
            if x == 1:
                parts.append(f"{name}{i + 1}")
            elif x:
                parts.append(f"{name}{i + 1}^{x}")
    return "*".join(parts)


def render_poly(f: dict, p: int, var: str = "t") -> str:
    """Signed-minimal coefficients, exponents in descending order."""
    if not f:
        return "0"
    groups = var.split("|")
    r = len(next(iter(f))) // len(groups)
    out = ""
    for e in sorted(f, reverse=True):
        c = _signed(f[e], p)
        mono = _mono(e, groups, r)
        mag = abs(c)
        body = mono if mag == 1 and mono else \
            (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _dpart(k) -> str:
    return "*".join(f"d{i + 1}" if x == 1 else f"d{i + 1}<{x}>"
                    for i, x in enumerate(k) if x)


def render_op(op: dict, p: int) -> str:
    """Terms by descending (order, index); a lone coefficient monomial is
    inlined, a longer coefficient parenthesized."""
    if not op:
        return "0"
    out = ""
    for k in sorted(op, key=lambda k: (sum(k), k), reverse=True):
        f = op[k]
        dstr = _dpart(k)
        neg = False
        if len(f) == 1:
            (e, c), = f.items()
            c = _signed(c, p)
            neg = c < 0
            pieces = [s for s in (_mono(e, ["t"], len(k)), dstr) if s]
            if abs(c) != 1 or not pieces:
                pieces.insert(0, str(abs(c)))
            body = "*".join(pieces)
        else:
            inner = render_poly(f, p)
            body = f"({inner})*{dstr}" if dstr else f"({inner})"
        if not out:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out


def render_matrix(mat, p: int, var: str) -> str:
    return "\n".join("\t".join(render_poly(x, p, var) for x in row)
                     for row in mat)


# ---------------------------------------------------------------------------
# linear algebra over F_p

def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over F_p by Gauss-Jordan elimination, one pivot column at a
    time with every other row cleared in one update."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        factors = a[:, c].copy()
        factors[rank] = 0
        a = (a - np.outer(factors, a[rank])) % p
        rank += 1
    return rank


def span_errors(monomials, basis: np.ndarray, bound: int, n: int, r: int,
                q: int, p: int, constants_only: bool = False) -> list:
    """Check that the row space of `basis` is the O_X'-span of the
    constant frame inside the degree window: spanned by the sections
    t'^b e_j = t^(q b) e_j with q|b| <= bound, and nothing else.

    `monomials` indexes the coordinates as (component, t-exponent).
    With `constants_only`, only check that each e_j lies in the span.
    """
    index = {(j, tuple(a)): k for k, (j, a) in enumerate(monomials)}
    top = 0 if constants_only else bound // q
    wanted = [(j, tuple(q * x for x in b))
              for b in product(range(top + 1), repeat=r) if sum(b) <= top
              for j in range(n)]
    frame = np.zeros((len(wanted), len(monomials)), dtype=np.int64)
    for row, key in enumerate(wanted):
        col = index.get(key)
        if col is None:
            return [f"section {key} lies outside the solver's window"]
        frame[row, col] = 1
    errs = []
    have = rank_mod(basis, p) if basis.size else 0
    if basis.size and rank_mod(np.vstack([basis, frame]), p) != have:
        errs.append("some section t'^b e_j of the window is not invariant")
    if not basis.size and wanted:
        errs.append("no invariant sections at all")
    if not constants_only:
        if basis.shape[0] != len(wanted):
            errs.append(f"dim {basis.shape[0]} in degree <= {bound}, "
                        f"want n*C(top+r, r) = {len(wanted)}")
        elif have != basis.shape[0]:
            errs.append("basis rows are linearly dependent")
    return errs
