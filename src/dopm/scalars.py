"""Exact p-adic combinatorics underlying level-m divided powers.

Everything here is computed in arbitrary-precision integer/rational
arithmetic.  Two families of structure constants rule the whole kernel:

    brace(k, l)  =  {k+l \\ k}  =  q_{k+l}! / (q_k! q_l!)     (an integer)
    angle(k, l)  =  <k+l \\ k>  =  C(k+l, k) / {k+l \\ k}     (p-integral)

with q_n = floor(n / p^m).  brace is the multiplication law of the
divided-power algebra, angle the one of the operator ring.  Multi-index
variants are coordinate-wise products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from operator import add, sub


# ---------------------------------------------------------------------------
# valuations and factorial parts

def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's sum of floor(n/p^i)."""
    v, q = 0, n
    while q:
        q //= p
        v += q
    return v


def q_part(k: int, p: int, m: int) -> int:
    return k // p**m


def q_fact(k: int, p: int, m: int) -> int:
    return factorial(k // p**m)


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
def angle(k: int, l: int, p: int, m: int) -> Fraction:
    """<k+l \\ k> = C(k+l, k)/{k+l \\ k}; p-integral (checked)."""
    a = Fraction(comb(k + l, k), brace(k, l, p, m))
    if a.denominator % p == 0:
        raise ArithmeticError(f"angle({k},{l}) not p-integral at p={p}, m={m}")
    return a


def frac_mod(x: Fraction, mod: int) -> int:
    """Reduce a fraction with denominator prime to mod."""
    return x.numerator * pow(x.denominator, -1, mod) % mod


def brace_mi_mod(k, l, p: int, m: int, mod: int) -> int:
    out = 1
    for a, b in zip(k, l):
        out = out * brace(a, b, p, m) % mod
    return out


@lru_cache(maxsize=None)
def angle_mod(k: int, l: int, p: int, m: int, mod: int) -> int:
    """angle(k, l) reduced mod `mod`."""
    return frac_mod(angle(k, l, p, m), mod)


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
        c = brace(a, k - a, p, m) % p
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
    unit = factorial(s // p**m) % p
    row = [unit]
    while s:
        s, d = divmod(s, p)
        row = [comb(hd, d) * c % p for hd in range(p) for c in row]
    return tuple(row)


# ---------------------------------------------------------------------------
# the mod-p^2 congruences

def _fact_unit(n: int, p: int, mod: int) -> int:
    """Unit part of n! mod `mod`: n! = p^{v_p(n!)} * U(n) with
    U(n) = U(n//p) * prod of all j <= n coprime to p, exactly over Z."""
    if n == 0:
        return 1
    block = 1
    for j in range(1, mod):
        if j % p:
            block = block * j % mod
    u = pow(block, n // mod, mod)
    for j in range(mod * (n // mod) + 1, n + 1):
        if j % p:
            u = u * j % mod
    return u * _fact_unit(n // p, p, mod) % mod


def binom_mod_p2(n: int, i: int, p: int) -> int:
    """C(n, i) mod p^2 without constructing the full factorials.

    Uses Legendre valuations plus the factorial unit parts; values with
    valuation >= 2 collapse to 0.
    """
    if not 0 <= i <= n:
        return 0
    mod = p * p
    v = vp_factorial(n, p) - vp_factorial(i, p) - vp_factorial(n - i, p)
    if v >= 2:
        return 0
    u = _fact_unit(n, p, mod)
    u = u * pow(_fact_unit(i, p, mod) * _fact_unit(n - i, p, mod) % mod, -1, mod) % mod
    return u * p**v % mod


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
