"""The mod-p kernel against a row-at-a-time reference elimination.

`rref_mod` clears a pivot column in one numpy update; the reference
below clears it one row at a time.  Both must give the same matrix and
the same pivots, and `nullspace_mod` the same basis as the reference
kernel read off that matrix.
"""

import numpy as np
import pytest

from dopm.linalg import nullspace_mod, rank_mod, rref_mod


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
