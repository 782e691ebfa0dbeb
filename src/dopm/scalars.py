"""Exact p-adic combinatorics underlying level-m divided powers.

Two families of structure constants rule the whole kernel:

    brace(k, l)  =  {k+l \\ k}  =  q_{k+l}! / (q_k! q_l!)     (an integer)
    angle(k, l)  =  <k+l \\ k>  =  C(k+l, k) / {k+l \\ k}     (p-integral)

with q_n = floor(n / p^m).  brace is the multiplication law of the
divided-power algebra, angle the one of the operator ring.  Multi-index
variants are coordinate-wise products.  Both are read mod p or p^2 off
the base-p digits of their factorials, in time logarithmic in the order
(`_fact_ratio`); the `verify` suites also read the exact `brace`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import comb, factorial
from operator import add, sub


# ---------------------------------------------------------------------------
# valuations and factorial parts

def q_part(k: int, p: int, m: int) -> int:
    return k // p**m


def q_fact(k: int, p: int, m: int) -> int:
    return factorial(k // p**m)


@lru_cache(maxsize=None)
def _unit_rows(p: int, mod: int) -> dict:
    """{1: row, -1: its inverses}, row[x] for x < mod the product of the
    j <= x prime to p, mod `mod`."""
    row = list(accumulate(range(1, mod), initial=1,
                          func=lambda u, j: u * j % mod if j % p else u))
    return {1: row, -1: [pow(u, -1, mod) for u in row]}


def _fact_ratio(num, den, p: int, mod: int) -> int:
    """prod_(n in num) n! / prod_(n in den) n! mod `mod` = p or p^2, for a
    p-integral ratio, in one pass over the base-p digits of each n.

    Legendre: n! = p^v U(n) with v = sum_(i >= 1) n // p^i, and
    n! = F(n) p^(n // p) (n // p)!, F(x) the product of the j <= x prime
    to p, gives U(n) = prod_(i >= 0) F(n // p^i).  The units below p^e
    multiply to -1 mod p^e for e <= 2 (Gauss's form of Wilson's theorem),
    so F(x) = (-1)^(x // mod) F(x % mod), read off `_unit_rows` (inverted
    for a factor of `den`).  At mod = p this is Anton's congruence
    n! / p^v = (-1)^v prod_i d_i! over the digits d_i of n (A. Granville,
    "Arithmetic properties of binomial coefficients I", CMS Conf. Proc.
    20, 1997)."""
    rows = _unit_rows(p, mod)
    u, v, flips = 1, 0, 0
    for sign, ns in ((1, num), (-1, den)):
        row = rows[sign]
        for n in ns:
            while n:
                u = u * row[n % mod] % mod
                flips += n // mod
                n //= p
                v += sign * n
    return (-1) ** flips * u * pow(p, v, mod) % mod


# ---------------------------------------------------------------------------
# brace / angle structure constants

@lru_cache(maxsize=None)
def brace(k: int, l: int, p: int, m: int) -> int:
    """{k+l \\ k} = q_{k+l}!/(q_k! q_l!); an integer for all k, l >= 0."""
    num = factorial(q_part(k + l, p, m))
    den = q_fact(k, p, m) * q_fact(l, p, m)
    q, rem = divmod(num, den)
    assert rem == 0, (k, l, p, m)
    return q


@lru_cache(maxsize=None)
def brace_mod(k: int, l: int, p: int, m: int, mod: int) -> int:
    """brace(k, l) mod `mod` = p or p^2."""
    g = p**m
    return _fact_ratio(((k + l) // g,), (k // g, l // g), p, mod)


def brace_mi_mod(k, l, p: int, m: int, mod: int) -> int:
    out = 1
    for a, b in zip(k, l):
        out = out * brace_mod(a, b, p, m, mod) % mod
    return out


@lru_cache(maxsize=None)
def angle_mod(k: int, l: int, p: int, m: int, mod: int) -> int:
    """angle(k, l) = (k+l)! q_k! q_l! / (k! l! q_(k+l)!) mod `mod`."""
    g = p**m
    return _fact_ratio((k + l, k // g, l // g), (k, l, (k + l) // g), p, mod)


def angle_mi_mod(k, l, p: int, m: int, mod: int) -> int:
    """The multi-index angle <k \\ l> mod `mod`, as the product of the
    coordinates' residues."""
    out = 1
    for a, b in zip(k, l):
        out = out * angle_mod(a, b, p, m, mod) % mod
    return out


def dp_monomial_action(s, h, p: int, m: int) -> int:
    """Structure integer of the basis action d^<s>(t^h) = c * t^(h-s).

    c = prod_i q_{s_i}! C(h_i, s_i); zero when s_i > h_i somewhere.
    Exact integer; callers reduce mod p or p^2 as needed.
    """
    c = 1
    for si, hi in zip(s, h):
        if si > hi:
            return 0
        c *= factorial(si // p**m) * comb(hi, si)
    return c


@lru_cache(maxsize=None)
def leibniz_weights(k: int, a_max: int, l: int, p: int, m: int) -> tuple:
    """One coordinate of d^<k> * g * d^<l>, where d^<a>(g) dies past
    a_max <= k: the weights {k \\ a} <k - a + l \\ k - a> mod p of the
    a <= a_max with a nonzero one, flat as (a, weight, a', weight', ..).
    The weight of a multi-index is the product of its coordinates'."""
    out = []
    for a in range(a_max + 1):
        c = brace_mod(a, k - a, p, m, p)
        if c:
            c = c * angle_mod(k - a, l, p, m, p) % p
            if c:
                out += (a, c)
    return tuple(out)


@lru_cache(maxsize=None)
def dp_residues(s: int, p: int, m: int) -> tuple:
    """q_s! C(h, s) mod p for h = 0 .. P-1, P the least power of p above
    s.  By Lucas's theorem C(h, s) = prod_i C(h_i, s_i) mod p over the
    base-p digits, which depends on h only mod P: entry h % P is the
    coordinate factor of dp_monomial_action(s, h) mod p for every h >= 0
    (and 0 for h < s).  Built digit by digit, with no large binomial."""
    row = [_fact_ratio((s // p**m,), (), p, p)]
    while s:
        s, d = divmod(s, p)
        row = [comb(hd, d) * c % p for hd in range(p) for c in row]
    return tuple(row)


# ---------------------------------------------------------------------------
# the mod-p^2 congruences

def binom_mod_p2(n: int, i: int, p: int) -> int:
    """C(n, i) mod p^2, without the full factorials."""
    return _fact_ratio((n,), (i, n - i), p, p * p) if 0 <= i <= n else 0


def lucas_closed_form(p: int, m: int, i: int) -> int:
    """C(p^(m+1), i) mod p^2 in closed form.

    1 at the endpoints; (-1)^k p!/k at i = k p^m, 0 < k < p (inverse taken
    mod p^2; note p! = -p mod p^2); 0 at every other i.
    """
    mod = p * p
    n = p ** (m + 1)
    if i == 0 or i == n:
        return 1
    if not 0 < i < n or i % p**m:
        return 0
    k = i // p**m
    return (-1) ** k * factorial(p) * pow(k, -1, mod) % mod


def dp_power_factor(k: int, p: int) -> int:
    """(kp)!/((p!)^k k!), the k-th divided-power structure integer of a
    p-th divided power; always lies in 1 + pZ (checked)."""
    num = factorial(k * p)
    den = factorial(p) ** k * factorial(k)
    q, rem = divmod(num, den)
    assert rem == 0 and q % p == 1 % p, (k, p)
    return q


def div_p_fact(x: int, p: int) -> int:
    """(x / p!) mod p for an integer x that is divisible by p as a p^2
    residue.

    p! = p (p-1)! with (p-1)! = -1 mod p, so this equals -(x/p) mod p; the
    explicit inverse keeps a single code path (sign bugs hide here).
    """
    mod = p * p
    x %= mod
    if x % p:
        raise ArithmeticError(f"{x} is not divisible by {p}")
    return (x // p) * pow(factorial(p - 1) % p, -1, p) % p


# ---------------------------------------------------------------------------
# multi-index helpers

def mi_zero(r: int):
    return (0,) * r


def mi_unit(r: int, i: int):
    return tuple(1 if j == i else 0 for j in range(r))


def mi_add(a, b):
    return tuple(map(add, a, b))


def mi_sub(a, b):
    out = tuple(map(sub, a, b))
    assert min(out, default=0) >= 0, (a, b)
    return out


def mi_sum(a) -> int:
    return sum(a)


def mi_scale(a, c: int):
    return tuple(c * x for x in a)


def box(bound: int, r: int):
    """All multi-indices with every coordinate < bound, in lex order."""
    return product(range(bound), repeat=r)


def box_le(maxs):
    """All multi-indices <= maxs coordinate-wise, in lex order."""
    return product(*(range(x + 1) for x in maxs))


def degree_box(bound: int, r: int):
    """All multi-indices of total degree <= bound, in lex order."""
    return (a for a in product(range(bound + 1), repeat=r) if sum(a) <= bound)
