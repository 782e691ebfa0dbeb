"""Dense linear algebra over GF(p) (numpy int64) and tiny matrices of
polynomials.

Entries stay below p <= 7, so int64 accumulation never overflows at the
dimensions that occur here; everything is reduced after each product.
"""

from __future__ import annotations

import numpy as np

from .poly import Poly


def rref_mod(a: np.ndarray, p: int):
    """Row-reduce over GF(p); returns (matrix, pivot columns).

    Each pivot column is cleared in every other row by one outer-product
    update, restricted to the columns where the pivot row is nonzero (left
    of its pivot it is zero, and entries stay reduced), so the temporaries
    are as small as the fill-in allows."""
    a = np.asarray(a, dtype=np.int64) % p      # a new array; the input stays
    rows, cols = a.shape
    pivots = []
    rank = 0
    for c in range(cols):
        nz = np.flatnonzero(a[rank:, c])
        if not nz.size:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), -1, p) % p
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != rank]
        if hit.size:
            on = c + np.flatnonzero(a[rank, c:])
            block = np.ix_(hit, on)
            a[block] = (a[block] - np.outer(a[hit, c], a[rank, on])) % p
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return a, pivots


def rank_mod(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref_mod(a, p)[1])


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Rows span {x : a @ x = 0 mod p}: one row per free column, 1 there,
    0 at the other free columns."""
    rows, cols = a.shape
    if a.size == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref_mod(a, p)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -r[:len(pivots)][:, free].T % p
    return basis


def row_space_contains(basis: np.ndarray, v: np.ndarray, p: int) -> bool:
    if basis.shape[0] == 0:
        return not np.any(v % p)
    return rank_mod(np.vstack([basis, v]), p) == rank_mod(basis, p)


# ---------------------------------------------------------------------------
# matrices of polynomials (module actions, Higgs fields)

def pmat_zero(n: int, nvars: int, mod, var="t"):
    z = Poly.zero(nvars, mod, var)
    return [[z] * n for _ in range(n)]


def pmat_eye(n: int, nvars: int, mod, var="t"):
    out = pmat_zero(n, nvars, mod, var)
    one = Poly.one(nvars, mod, var)
    for i in range(n):
        out[i][i] = one
    return out


def pmat_scale(a, c):
    return [[x.scale(c) if not isinstance(c, Poly) else c * x for x in ra]
            for ra in a]


def pmat_mul(a, b):
    n, mid, cols = len(a), len(b), len(b[0])
    proto = a[0][0]
    zero = Poly.zero(proto.nvars, proto.mod, proto.var)
    out = [[zero] * cols for _ in range(n)]
    for i in range(n):
        for k in range(mid):
            if not a[i][k]:
                continue
            for j in range(cols):
                if b[k][j]:
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def pmat_pow(a, e: int):
    n = len(a)
    proto = a[0][0]
    out = pmat_eye(n, proto.nvars, proto.mod, proto.var)
    for _ in range(e):
        out = pmat_mul(out, a)
    return out


def pmat_add_inplace(a, b):
    """a += b, entry by entry; returns a."""
    for ra, rb in zip(a, b):
        for j, x in enumerate(rb):
            if x:
                ra[j] = ra[j] + x
    return a


def pmat_map(a, fn):
    return [[fn(x) for x in ra] for ra in a]


def pmat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def pmat_is_zero(a) -> bool:
    return all(not x for ra in a for x in ra)
