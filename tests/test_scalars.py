"""The p-adic structure constants against direct rational arithmetic.

Every expected value here is either a frozen literal or recomputed on
the spot from math.comb / math.factorial / Fraction — never from the
functions under test.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopm.scalars import (angle, angle_mi_mod, binom_mod_p2, box, box_le,
                          brace, brace_mi_mod, degree_box, div_p_fact,
                          dp_monomial_action, dp_power_factor, dp_residues,
                          frac_mod, leibniz_weights, lucas_closed_form,
                          mi_add, mi_scale, mi_sub, mi_sum, mi_unit, mi_zero,
                          q_fact, q_part, vp_factorial)

PRIMES = (2, 3, 5, 7)

primes = st.sampled_from(PRIMES)
levels = st.integers(min_value=0, max_value=2)


def ref_brace(k, l, p, m):
    g = p**m
    return factorial((k + l) // g) // (factorial(k // g) * factorial(l // g))


# -- valuations ---------------------------------------------------------------

def vp(n, p):
    """p-adic valuation of a positive integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(primes, st.integers(min_value=0, max_value=400))
def test_vp_factorial_legendre(p, n):
    assert vp_factorial(n, p) == sum(n // p**i for i in range(1, 20))
    if n:
        assert vp_factorial(n, p) == vp(factorial(n), p)


def test_vp_factorial_digit_sum():
    # (n - s_p(n)) / (p - 1), the closed form of Legendre's sum
    for p in PRIMES:
        for n in range(0, 200, 7):
            digits = []
            x = n
            while x:
                digits.append(x % p)
                x //= p
            assert vp_factorial(n, p) == (n - sum(digits)) // (p - 1)


# -- brace and angle ----------------------------------------------------------

BRACE_TABLE = [
    (9, 9, 3, 1, 20),
    (8, 4, 2, 2, 3),
    (5, 7, 2, 1, 60),
    (4, 5, 3, 1, 6),
]

ANGLE_TABLE = [
    (9, 9, 3, 1, Fraction(2431)),
    (8, 4, 2, 2, Fraction(165)),
    (5, 7, 2, 1, Fraction(66, 5)),
    (4, 5, 3, 1, Fraction(21)),
    (2, 3, 5, 1, Fraction(10)),
]


@pytest.mark.parametrize("k,l,p,m,want", BRACE_TABLE)
def test_brace_frozen(k, l, p, m, want):
    assert brace(k, l, p, m) == want == ref_brace(k, l, p, m)


@pytest.mark.parametrize("k,l,p,m,want", ANGLE_TABLE)
def test_angle_frozen(k, l, p, m, want):
    assert angle(k, l, p, m) == want


def test_level_zero_degenerates_to_binomials():
    for p in (2, 3, 5):
        for k in range(12):
            for l in range(12):
                assert brace(k, l, p, 0) == comb(k + l, k)
                assert angle(k, l, p, 0) == 1


@given(primes, levels, st.integers(0, 60), st.integers(0, 60))
def test_angle_times_brace_is_the_binomial(p, m, k, l):
    a = angle(k, l, p, m)
    assert a * brace(k, l, p, m) == comb(k + l, k)
    assert a.denominator % p != 0          # p-integral
    assert brace(k, l, p, m) == brace(l, k, p, m)


@given(primes, levels, st.integers(0, 25), st.integers(0, 25),
       st.integers(0, 25))
def test_brace_cocycle(p, m, a, b, c):
    # associativity of tau^{a} tau^{b} tau^{c} in scalar form
    assert brace(a, b, p, m) * brace(a + b, c, p, m) == \
        brace(b, c, p, m) * brace(a, b + c, p, m)


def angle_mi(k, l, p, m):
    """The multi-index angle as the exact product of the coordinates'
    Fractions: the oracle of angle_mi_mod."""
    out = Fraction(1)
    for a, b in zip(k, l):
        out *= angle(a, b, p, m)
    return out


def test_multi_index_constants_are_products():
    k, l = (3, 5, 2), (4, 1, 7)
    for p, m in [(2, 1), (3, 0), (5, 1)]:
        assert brace_mi_mod(k, l, p, m, p * p) == \
            brace(3, 4, p, m) * brace(5, 1, p, m) * brace(2, 7, p, m) % (p * p)
        assert angle_mi(k, l, p, m) == \
            angle(3, 4, p, m) * angle(5, 1, p, m) * angle(2, 7, p, m)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("p", PRIMES)
def test_angle_residues_are_the_rational_product(p, m):
    # every supported (p, m), at the exponents where q_k = k // p^m
    # turns: around 0, p^m and p^(m+1), and one value past 2 p^(m+1)
    g, q = p**m, p ** (m + 1)
    grain = sorted({0, 1, g - 1, g, g + 1, q - 1, q, 2 * q + 3})
    pairs = [(a, b) for a in grain for b in grain]
    for mod in (p, p * p):
        for k in pairs:
            for l in pairs:
                assert angle_mi_mod(k, l, p, m, mod) == \
                    frac_mod(angle_mi(k, l, p, m), mod), (k, l, mod)


# -- the basis action ---------------------------------------------------------

@pytest.mark.parametrize("m", range(3))
@pytest.mark.parametrize("p", PRIMES)
def test_dp_residues_are_the_structure_integers(p, m):
    # entry h % P of the table is q_s! C(h, s) mod p for every h, including
    # h past the period P, for s around 0, p^m and p^(m+1)
    g, q = p**m, p ** (m + 1)
    for s in sorted({0, 1, g - 1, g, g + 1, q - 1, q, q + 1, 2 * q + 3}):
        row = dp_residues(s, p, m)
        period = 1
        while period <= s:
            period *= p
        assert len(row) == period
        for h in range(3 * len(row) + 2):
            assert row[h % len(row)] == \
                factorial(s // g) * comb(h, s) % p, (s, h)


@pytest.mark.parametrize("m", range(3))
@pytest.mark.parametrize("p", PRIMES)
def test_leibniz_weights_are_brace_times_angle(p, m):
    q = p ** (m + 1)
    for k in sorted({0, 1, p**m, q - 1, q, q + 2}):
        for l in sorted({0, 1, q - 1, q}):
            for a_max in sorted({0, k // 2, k}):
                row = leibniz_weights(k, a_max, l, p, m)
                want = []
                for a in range(a_max + 1):
                    # <j+l \\ j> = C(j+l, l) / {j+l \\ l} with j = k - a
                    c = frac_mod(Fraction(
                        ref_brace(a, k - a, p, m) * comb(k - a + l, l),
                        ref_brace(k - a, l, p, m)), p)
                    if c:
                        want += [a, c]
                assert list(row) == want, (k, l, a_max)

@given(primes, levels, st.integers(0, 30), st.integers(0, 30))
def test_dp_monomial_action_closed_form(p, m, s, h):
    want = factorial(s // p**m) * comb(h, s) if s <= h else 0
    assert dp_monomial_action((s,), (h,), p, m) == want


@given(primes, levels, st.integers(0, 15), st.integers(0, 15),
       st.integers(0, 12))
def test_dp_action_composes_through_angle(p, m, a, b, extra):
    # d^<a> after d^<b> on t^h equals <a+b \ a> d^<a+b>, coefficient-wise
    h = a + b + extra
    lhs = Fraction(dp_monomial_action((a,), (h - b,), p, m) *
                   dp_monomial_action((b,), (h,), p, m))
    rhs = angle(a, b, p, m) * dp_monomial_action((a + b,), (h,), p, m)
    assert lhs == rhs


# -- mod p^2 binomials --------------------------------------------------------

@given(primes, st.integers(0, 2500), st.integers(0, 2500))
@settings(max_examples=60)
def test_binom_mod_p2_matches_comb(p, n, i):
    assert binom_mod_p2(n, i, p) == comb(n, i) % p**2 if i <= n \
        else binom_mod_p2(n, i, p) == 0


def test_lucas_closed_form_everywhere():
    for p in PRIMES:
        for m in range(3):
            n = p ** (m + 1)
            for i in range(n + 1):
                assert lucas_closed_form(p, m, i) == comb(n, i) % p**2


LUCAS_TABLE = [
    (3, 1, 3, 3),      # comb(9, 3) = 84
    (3, 1, 6, 3),
    (2, 1, 2, 2),      # comb(4, 2) = 6
    (2, 1, 1, 0),
    (5, 0, 1, 5),
    (5, 0, 2, 10),
    (2, 2, 4, 2),      # comb(8, 4) = 70
    (7, 1, 7, 7),      # comb(49, 7) mod 49
]


@pytest.mark.parametrize("p,m,i,want", LUCAS_TABLE)
def test_lucas_frozen(p, m, i, want):
    assert lucas_closed_form(p, m, i) == want


def test_lucas_vanishes_off_the_grid():
    for p, m in [(2, 1), (3, 1), (5, 1)]:
        n = p ** (m + 1)
        for i in range(1, n):
            if i % p**m:
                assert lucas_closed_form(p, m, i) == 0


DP_POWER_TABLE = [
    (2, 2, 3),
    (3, 2, 15),
    (4, 2, 105),
    (2, 3, 10),
    (3, 3, 280),
    (2, 5, 126),
]


@pytest.mark.parametrize("k,p,want", DP_POWER_TABLE)
def test_dp_power_factor_frozen(k, p, want):
    assert dp_power_factor(k, p) == want


def test_dp_power_factor_is_one_plus_p():
    for p in (2, 3, 5):
        for k in range(21):
            v = dp_power_factor(k, p)
            assert v == factorial(k * p) // (factorial(p) ** k * factorial(k))
            assert v % p == 1 % p


@given(primes, st.integers(0, 200))
def test_div_p_fact_round_trip(p, x):
    assert div_p_fact(x * factorial(p) % p**2, p) == x % p


def test_div_p_fact_rejects_units():
    with pytest.raises(ArithmeticError):
        div_p_fact(1, 3)


def test_frac_mod():
    assert frac_mod(Fraction(1, 3), 5) == 2
    assert frac_mod(Fraction(-1, 2), 7) == 3
    assert frac_mod(Fraction(10), 5) == 0


# -- multi-index plumbing -----------------------------------------------------

def test_mi_helpers():
    assert mi_zero(3) == (0, 0, 0)
    assert mi_unit(3, 1) == (0, 1, 0)
    assert mi_add((1, 2), (3, 4)) == (4, 6)
    assert mi_sub((3, 4), (1, 2)) == (2, 2)
    assert mi_sum((2, 3, 4)) == 9
    assert mi_scale((1, 2), 3) == (3, 6)
    with pytest.raises(AssertionError):
        mi_sub((1, 0), (0, 1))


def test_boxes():
    assert len(list(box(3, 2))) == 9
    assert list(box(2, 1)) == [(0,), (1,)]
    assert len(list(box_le((2, 1)))) == 6
    got = list(degree_box(2, 2))
    assert len(got) == comb(2 + 2, 2)
    assert all(sum(a) <= 2 for a in got)
    assert q_part(7, 2, 1) == 3 and q_fact(7, 2, 1) == 6
