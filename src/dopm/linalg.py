"""Dense linear algebra over GF(p) (numpy int64) and tiny matrices of
polynomials.

Entries stay below p <= 7, so int64 accumulation never overflows at the
dimensions that occur here; everything is reduced after each product.
"""

from __future__ import annotations

import numpy as np

from .poly import Poly, mac, reduced


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
        if rank == rows:
            break
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
    return a, pivots


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over GF(p).  The rows U with one nonzero span the unit
    vectors of their columns, so rank([U; M]) = |cols(U)| + rank(M with
    cols(U) zeroed): only what is left is row-reduced."""
    nz = a % p != 0
    unit = np.count_nonzero(nz, axis=1) == 1
    cols = nz[unit].any(axis=0)
    return int(cols.sum()) + len(rref_mod(a[~unit][:, ~cols], p)[1])


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
    """a @ b, any compatible shapes: each entry multiply-accumulated into
    one coefficient dict over the nonzero pairs and reduced once."""
    proto = a[0][0]
    out = []
    for ra in a:
        accs = [{} for _ in b[0]]
        for x, rb in zip(ra, b):
            if x:
                for acc, y in zip(accs, rb):
                    if y:
                        mac(acc, x.coeffs, y.coeffs)
        out.append([Poly._trusted(reduced(acc, proto.mod), proto.nvars,
                                  proto.mod, proto.var) for acc in accs])
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
