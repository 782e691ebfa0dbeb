"""The mod-p kernel against a row-at-a-time reference elimination, and
the product of polynomial matrices against a Poly-per-entry one.

`rref_mod` clears a pivot column in one numpy update; the reference
below clears it one row at a time.  Both must give the same matrix and
the same pivots, and `nullspace_mod` the same basis as the reference
kernel read off that matrix.  `pmat_mul` accumulates each entry in one
coefficient dict; the reference adds up Polys.
"""

import random

import numpy as np
import pytest

from dopm.linalg import (nullspace_mod, pmat_eq, pmat_mul, pmat_zero,
                         rank_mod, rref_mod)
from dopm.poly import Poly


def reference_rref(a, p):
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    rank = 0
    for c in range(cols):
        pr = None
        for r in range(rank, rows):
            if a[r, c]:
                pr = r
                break
        if pr is None:
            continue
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] = (a[r] - a[r, c] * a[rank]) % p
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return a, pivots


def reference_nullspace(a, p):
    rows, cols = a.shape
    if a.size == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = reference_rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for n, fc in enumerate(free):
        basis[n, fc] = 1
        for i, pc in enumerate(pivots):
            basis[n, pc] = (-r[i, fc]) % p
    return basis


def matrices(p, seed):
    rng = np.random.default_rng(seed)
    full = lambda r, c: rng.integers(0, p, size=(r, c))   # noqa: E731
    sparse = full(30, 12) * (rng.random((30, 12)) < 0.15)
    with_zero_rows = full(9, 8)
    with_zero_rows[[0, 4, 8]] = 0
    with_zero_cols = full(8, 9)
    with_zero_cols[:, [0, 3]] = 0
    return {
        "tall": full(40, 7),
        "wide": full(6, 30),
        "square": full(12, 12),
        "rank-deficient": full(20, 4) @ full(4, 15),
        "rank-deficient-wide": full(5, 3) @ full(3, 25),
        "sparse": sparse,
        "zero-rows-inside": with_zero_rows,
        "zero-cols-inside": with_zero_cols,
        "all-zero": np.zeros((5, 6), dtype=np.int64),
        "no-rows": np.zeros((0, 5), dtype=np.int64),
        "no-cols": np.zeros((5, 0), dtype=np.int64),
        "negative": -full(7, 9),
    }


CASES = [(p, seed, name) for p in (2, 3, 5, 7) for seed in (1, 2)
         for name in matrices(p, seed)]


@pytest.mark.parametrize("p, seed, name", CASES,
                         ids=[f"p{p}-s{s}-{n}" for p, s, n in CASES])
def test_kernel_agrees_with_the_row_at_a_time_reference(p, seed, name):
    a = matrices(p, seed)[name]
    before = a.copy()
    got, got_piv = rref_mod(a, p)
    want, want_piv = reference_rref(a, p)
    assert got_piv == want_piv
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(a, before)     # the input is not modified
    assert rank_mod(a, p) == len(want_piv)
    kern = nullspace_mod(a, p)
    assert np.array_equal(kern, reference_nullspace(a, p))
    if a.size:
        assert not np.any(a @ kern.T % p)


def planted(p, seed):
    """Matrices whose rows with one nonzero `rank_mod` takes out before
    it row-reduces the rest."""
    rng = np.random.default_rng(seed)
    cols = 10

    def units(n):
        out = np.zeros((n, cols), dtype=np.int64)
        out[np.arange(n), rng.integers(0, cols, n)] = rng.integers(1, p, n)
        return out

    mixed = rng.integers(0, p, (8, cols))
    mixed[:, :2] = rng.integers(1, p, (8, 2))      # two nonzeros at least
    same_column = np.zeros((2, cols), dtype=np.int64)
    same_column[:, 3] = [1, -1]                     # different scalars
    with_zero_rows = np.vstack([units(3), np.zeros((2, cols), np.int64),
                                mixed[:3]])
    # mixed rows that lose rank once the unit columns are struck
    hidden = np.vstack([np.eye(3, cols, dtype=np.int64),
                        np.eye(3, cols, dtype=np.int64)
                        + np.eye(3, cols, 3, dtype=np.int64)])
    return {
        "planted": rng.permutation(np.vstack([mixed, units(6)])),
        "same-column": np.vstack([same_column, mixed[:4]]),
        "same-column-only": same_column,
        "all-unit": units(14),
        "no-unit": mixed,
        "zero-rows": with_zero_rows,
        "unit-columns-hide-rank": hidden,
        "0xk": np.zeros((0, cols), dtype=np.int64),
        "kx0": np.zeros((4, 0), dtype=np.int64),
    }


PLANTED = [(p, seed, name) for p in (2, 3, 5, 7) for seed in (1, 2)
           for name in planted(p, seed)]


@pytest.mark.parametrize("p, seed, name", PLANTED,
                         ids=[f"p{p}-s{s}-{n}" for p, s, n in PLANTED])
def test_rank_takes_out_unit_rows_exactly(p, seed, name):
    # rank([U; M]) = |cols(U)| + rank(M with cols(U) zeroed): the count
    # equals the pivots of a full elimination
    a = planted(p, seed)[name]
    before = a.copy()
    rank = rank_mod(a, p)
    assert type(rank) is int
    assert rank == len(rref_mod(a, p)[1])
    assert np.array_equal(a, before)


# -- matrices of polynomials ---------------------------------------------------

def pmat_mul_reference(a, b):
    """The product one Poly at a time, every partial product a Poly: the
    path `pmat_mul` replaced, kept as its oracle."""
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


def random_pmat(rng, rows, cols, nvars, p, var, density=0.6):
    """rows x cols, each entry zero with chance 1 - density and otherwise
    up to three terms of degree <= 3 per variable."""
    def entry():
        if rng.random() >= density:
            return Poly.zero(nvars, p, var)
        return Poly({tuple(rng.randrange(4) for _ in range(nvars)):
                     rng.randrange(p) for _ in range(rng.randrange(1, 4))},
                    nvars, p, var)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


# (variable family, number of variables): O_X, O_X' and O_X[theta] at r = 2
FAMILIES = [("t", 1), ("t", 2), ("t'", 2), ("t|th", 4)]
PMAT_CASES = [(p, var, nvars, n) for p in (2, 3, 5, 7)
              for var, nvars in FAMILIES for n in (1, 2, 3)]


@pytest.mark.parametrize("p, var, nvars, n", PMAT_CASES,
                         ids=[f"p{p}-{v}{k}-n{n}"
                              for p, v, k, n in PMAT_CASES])
def test_pmat_mul_is_the_poly_per_entry_oracle(p, var, nvars, n):
    rng = random.Random(f"{p}/{var}/{nvars}/{n}")
    zero = pmat_zero(n, nvars, p, var)
    for density in (1.0, 0.6, 0.2):
        a = random_pmat(rng, n, n, nvars, p, var, density)
        b = random_pmat(rng, n, n, nvars, p, var, density)
        col = random_pmat(rng, n, 1, nvars, p, var, density)
        for x, y in [(a, b), (b, a), (a, col), (a, a), (zero, b), (a, zero),
                     (zero, col), (a, [[f] for f in zero[0]])]:
            got = pmat_mul(x, y)
            want = pmat_mul_reference(x, y)
            assert [len(row) for row in got] == [len(row) for row in want]
            assert pmat_eq(got, want)
            assert all((f.nvars, f.mod, f.var) == (nvars, p, var)
                       and all(0 < c < p for c in f.coeffs.values())
                       for row in got for f in row)


def test_pmat_mul_is_the_oracle_over_z():
    # mod None keeps exact integers, and what cancels is dropped
    rng = random.Random(0)
    a = [[Poly({e: rng.randrange(-3, 4) for e in [(0,), (1,), (2,)]}, 1)
          for _ in range(3)] for _ in range(3)]
    b = [[Poly({(0,): 1, (1,): -1}, 1)], [Poly({(1,): 1}, 1)],
         [Poly({(0,): -1}, 1)]]
    for x, y in [(a, a), (a, b)]:
        got = pmat_mul(x, y)
        assert pmat_eq(got, pmat_mul_reference(x, y))
        assert all(0 not in f.coeffs.values() for row in got for f in row)
