"""The center's scalars over Q in closed form, kept apart from `src/` so
that the oracles which scale by them stay independent of the code they
check.  `diffops.theta_power` proves that each one is 1 mod p.  With
q = p^(m+1), in one coordinate:

    (d^<p^m>)^p   = u theta,       u   = q! / ((p^m)!^p p!)
    theta^c       = A_c d^<c q>,   A_c = p!^c (c q)! / (q!^c (c p)!)
    theta^c d^<s> = <cq+s \\ cq> d^<cq+s>,
                    <cq+s \\ cq> = C(cq+s, s) / C(cp+s', s'), s' = s div p^m

and A_c of a multi-index c is the product over its coordinates.
"""

from fractions import Fraction
from math import comb, factorial


def mod_p(x: Fraction, p: int) -> int:
    """x mod p, for x with denominator prime to p."""
    return x.numerator * pow(x.denominator, -1, p) % p


def theta_unit(p: int, m: int) -> Fraction:
    pm = p**m
    return Fraction(factorial(p * pm), factorial(pm) ** p * factorial(p))


def central_unit(p: int, m: int, c) -> Fraction:
    q = p ** (m + 1)
    out = Fraction(1)
    for ci in c:
        out *= Fraction(factorial(p) ** ci * factorial(ci * q),
                        factorial(q) ** ci * factorial(ci * p))
    return out


def peel_angle(p: int, m: int, c: int, s: int) -> Fraction:
    q, sp = p ** (m + 1), s // p**m
    return Fraction(comb(c * q + s, s), comb(c * p + sp, sp))
