"""The center's scalars over Q in closed form, kept apart from `src/` so
that the oracles which scale by them stay independent of the code they
check.  `diffops.theta_power` proves that each one is 1 mod p.  With
q = p^(m+1), in one coordinate:

    (d^<p^m>)^p   = u theta,       u   = q! / ((p^m)!^p p!)
    theta^c       = A_c d^<c q>,   A_c = p!^c (c q)! / (q!^c (c p)!)
    theta^c d^<s> = <cq+s \\ cq> d^<cq+s>,
                    <cq+s \\ cq> = C(cq+s, s) / C(cp+s', s'), s' = s div p^m

and A_c of a multi-index c is the product over its coordinates.

`gamma_coeffs` is phi of the standard lifting in closed form, the oracle
of `frobenius.phi_basis`, which computes it for every lifting alike.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from dopm.poly import Poly


def mod_p(x: Fraction, p: int) -> int:
    """x mod p (p a prime or a power of one), for x with denominator
    prime to p."""
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


def gamma_coeffs(ctx, n) -> dict:
    """{c: [tau^{n}] prod_j gamma_{c_j}(w_j)} for the standard lifting
    F_j = t_j^q over the context's ring, over the c with a nonzero
    coefficient: the theta^c coefficients of phi(d^<n>), by
    `standard_gamma_coeff`."""
    p, pm, q, r = ctx.p, ctx.pm, ctx.pm1, ctx.r
    if any(x % pm for x in n):
        return {}
    ks = [x // pm for x in n]
    out = {}
    for c in product(*[range(-(-k // p), k + 1) for k in ks]):
        v = 1
        for k, cj in zip(ks, c):
            v = v * standard_gamma_coeff(k, cj, p) % p
        if v:
            e = tuple(q * cj - x for cj, x in zip(c, n))
            out[c] = Poly({e: v}, r, p)
    return out


@lru_cache(maxsize=None)
def standard_gamma_coeff(k: int, c: int, p: int) -> int:
    """A(k, c) = k!/(c! (p!)^c) sum_i (-1)^(c-i) C(c, i) C(p i, k) mod p:
    for the standard lifting F_j = t_j^q, q = p^(m+1), at every level m,

        [tau^{n}] prod_j gamma_{c_j}(w_j)
            = prod_j A(n_j/p^m, c_j) t_j^(q c_j - n_j)   if p^m | n,

    and 0 otherwise.  Raises ArithmeticError unless A is p-integral, as
    `dpalg.gamma_dp` does (by the proof it always is).

    Proof.  Write tau^{s} = tau^s / q_s! (q_s = floor(s/p^m)).
    1. Homogeneity.  F_j(t+tau) - F_j(t) is homogeneous of degree q in
       (t_j, tau_j), so [tau_j^{n_j}] gamma_c(w_j) is A t_j^(q c - n_j),
       with A its value at t_j = 1: the coefficient of gamma_c(W_m),
       W_m(x) = ((1+x)^q - 1)/p!.
    2. Level reduction.  (1+x)^(p^m) = 1 + x^(p^m) + pR with R integral,
       so (1+x)^q = (1 + x^(p^m) + pR)^p = (1 + x^(p^m))^p mod p^2, and
       W_m(x) = W_0(x^(p^m)) + pE with E p-integral in the plain basis,
       hence in the level-m lattice.  For b >= 1, gamma_b(pE) =
       (p^b/b!) E^b = 0 mod p, since v_p(b!) < b.  The span of the
       tau^{k p^m} is the level-0 divided-power algebra in y = tau^{p^m}
       (its braces are C(a+b, a)), and W_0(y) = sum_s y^s/(s!(p-s)!) lies
       in its divided-power ideal, so each gamma_a(W_0(y)) is integral.
       Hence gamma_c(W_m) = sum_(a+b=c) gamma_a(W_0(y)) gamma_b(pE)
       = gamma_c(W_0(y)) mod p, which has no term off the multiples of
       p^m.  At n = k p^m, tau^{n} = y^k/k!, and
       gamma_c(W_0(y)) = ((1+y)^p - 1)^c / (c! (p!)^c), whose y^k
       coefficient is sum_i (-1)^(c-i) C(c, i) C(p i, k) / (c! (p!)^c):
       times k! this is A(k, c).
    3. Coordinates.  w_j involves only t_j and tau_j, and the brace
       between multi-indices of disjoint supports is 1, so the
       coefficient of the product is the product of the coefficients.
       gamma_c(w_j) lives in tau_j-degrees c p^m .. c q, so only
       n_j/q <= c_j <= n_j/p^m contribute.
    """
    a = Fraction(factorial(k) * sum((-1) ** (c - i) * comb(c, i)
                                    * comb(p * i, k) for i in range(c + 1)),
                 factorial(c) * factorial(p) ** c)
    if a.denominator % p == 0:
        raise ArithmeticError(f"A({k}, {c}) not p-integral at p={p}")
    return mod_p(a, p)
