"""The level-m divided-power algebra O_X<tau_1,..,tau_r>^(m).

Elements are finite sums  sum_s  f_s(t) * tau^{s}, every term kept,
over the brace basis tau^{s}, with the multiplication law

    tau^{a} * tau^{b} = {a+b \\ a} * tau^{a+b}.

Usual divided powers gamma_k are computed in the *rational model*
(`gamma_dp`): lift coefficients to Z, identify tau^{s} with
prod tau_i^{s_i} / q_{s_i}!, compute w^k/k! exactly over Q (integer
numerators over one common denominator), re-express in the brace basis,
check every coefficient is p-integral, and reduce with integer
arithmetic only.  That model is the single source of truth; the
closed-form structure constants and the maps of `frobenius`, none of
which forms a divided power, are cross-checked against it in the suites
and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .context import Context
from .poly import Poly
from .scalars import (box_le, brace_mi_mod, dp_monomial_action,
                      mi_add, mi_sum, mi_zero, q_fact)


class DPElem:
    """An element at the context's level m: a finite sum, every term kept.
    A product needs an integer `mod`: an element with Fraction
    coefficients (`gamma_dp(..., mod=None)`) is compared, never
    multiplied."""

    __slots__ = ("ctx", "coeffs", "mod")

    def __init__(self, ctx: Context, coeffs, mod):
        self.ctx = ctx
        self.mod = mod
        self.coeffs = {tuple(s): f for s, f in coeffs.items() if f}

    # -- constructors -------------------------------------------------------

    @classmethod
    def basis(cls, ctx, s, mod, coeff=None):
        f = coeff if coeff is not None else Poly.one(ctx.r, mod)
        return cls(ctx, {tuple(s): f}, mod)

    # -- basics -------------------------------------------------------------

    def _check(self, other: "DPElem"):
        assert (self.ctx, self.mod) == (other.ctx, other.mod), \
            "DPElem mismatch"

    def __eq__(self, other):
        if not isinstance(other, DPElem):
            return NotImplemented
        return (self.ctx.m, self.mod, self.coeffs) == \
            (other.ctx.m, other.mod, other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def constant_term(self) -> Poly:
        return self.coeffs.get(mi_zero(self.ctx.r),
                               Poly.zero(self.ctx.r, self.mod))

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for s, f in other.coeffs.items():
            out[s] = out.get(s, Poly.zero(self.ctx.r, self.mod)) + f
        return DPElem(self.ctx, out, self.mod)

    def scale(self, c: int):
        out = {s: f.scale(c) for s, f in self.coeffs.items()}
        return DPElem(self.ctx, out, self.mod)

    def __mul__(self, other):
        self._check(other)
        p, m = self.ctx.p, self.ctx.m
        out = {}
        for a, f in self.coeffs.items():
            for b, g in other.coeffs.items():
                s = mi_add(a, b)
                c = brace_mi_mod(a, b, p, m, self.mod)
                if c:
                    term = (f * g).scale(c)
                    out[s] = out.get(s, Poly.zero(self.ctx.r, self.mod)) + term
        return DPElem(self.ctx, out, self.mod)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for s in sorted(self.coeffs, key=lambda s: (mi_sum(s), s)):
            mono = "*".join(f"tau{i+1}{{{x}}}" for i, x in enumerate(s) if x)
            f = self.coeffs[s]
            fs = repr(f)
            if mono:
                fs = f"({fs})*{mono}" if (len(f.coeffs) > 1 or fs != "1") else mono
            bits.append(fs)
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Taylor embedding

def taylor(ctx: Context, f: Poly, mod) -> DPElem:
    """eps(f) = sum_s d^<s>(f) tau^{s}: the image of f under t -> t + tau.

    Exact and finite: |s| <= deg f.  The constant term is f.
    """
    out: dict = {}
    for h, c in f.coeffs.items():
        for s in box_le(h):
            a = dp_monomial_action(s, h, ctx.p, ctx.m) * c
            if mod is not None:
                a %= mod
            if not a:
                continue
            e = tuple(hi - si for hi, si in zip(h, s))
            cur = out.setdefault(s, {})
            cur[e] = cur.get(e, 0) + a
    polys = {s: Poly(d, ctx.r, mod) for s, d in out.items()}
    return DPElem(ctx, polys, mod)


def pair_op(op, w: DPElem) -> Poly:
    """O_X-bilinear duality pairing, <d^<k>, tau^{l}> = delta_{k,l}.

    `op` is any object with a `.terms` dict of multi-index -> Poly
    (a DiffOp); for every polynomial f, pair_op(P, taylor(f)) = P(f).
    """
    acc = Poly.zero(w.ctx.r, w.mod)
    for k, f in op.terms.items():
        g = w.coeffs.get(k)
        if g is not None:
            acc = acc + f * g
    return acc


# ---------------------------------------------------------------------------
# the rational model and usual divided powers

def gamma_dp(w: DPElem, k: int, lift=None, mod=0, top=None) -> DPElem:
    """Usual divided power gamma_k(w) = w^k/k! in the rational model, from
    scratch.

    A term f_s tau^{s} of w stands for f_s tau^s / prod q_{s_i}!; its
    coefficients are lifted to Z by `lift(s, e, c)` (default: c as
    stored, the 0..p-1 representative; the result does not depend on the
    choice, which tests randomize).  w^k/k! is formed exactly, integer
    numerators on (t-exponent, tau-exponent) keys over one common
    denominator, dropping terms of total tau-degree above `top` (sound:
    tau-degrees only ever add; None keeps all).  Back in the brace basis,
    the coefficient c prod q_{s_i}! / den must be p-integral, else
    ArithmeticError (the loud failure outside the divided-power lattice):
    with den = p^v u, u prime to p, that is p^v | c prod q_{s_i}!, and
    its value is (c prod q_{s_i}! / p^v) u^-1.

    `mod=0` means "reduce to w's own modulus"; pass None for the exact
    rational answer (used by the compd suite).
    """
    if w.constant_term():
        raise ValueError("gamma_k needs a zero constant term")
    ctx = w.ctx
    p, r = ctx.p, ctx.r
    target = w.mod if mod == 0 else mod
    dens = {s: _q_fact_mi(s, ctx) for s in w.coeffs}
    den = lcm(*dens.values())
    terms = [(e, s, (lift(s, e, c) if lift else c) * (den // dens[s]))
             for s, f in w.coeffs.items() for e, c in f.coeffs.items()]
    power = {(mi_zero(r), mi_zero(r)): 1}
    for _ in range(k):
        nxt: dict = {}
        for (e1, s1), c1 in power.items():
            for e2, s2, c2 in terms:
                s = mi_add(s1, s2)
                if top is None or mi_sum(s) <= top:
                    key = (mi_add(e1, e2), s)
                    nxt[key] = nxt.get(key, 0) + c1 * c2
        power = nxt
    full = den**k * factorial(k)
    u, pv = full, 1
    while u % p == 0:
        u //= p
        pv *= p
    inv = pow(u, -1, target) if target is not None else None
    slots: dict = {}
    for (e, s), c in power.items():
        qf = _q_fact_mi(s, ctx)
        num, rem = divmod(c * qf, pv)
        if rem:
            raise ArithmeticError(f"gamma output not p-integral at tau^{s}: "
                                  f"{Fraction(c * qf, full)}")
        v = Fraction(num, u) if target is None else num * inv % target
        if v:
            slots.setdefault(s, {})[e] = v
    return DPElem(ctx, {s: Poly._trusted(d, r, target)
                        for s, d in slots.items()}, target)


def _q_fact_mi(s, ctx: Context) -> int:
    """prod q_{s_i}!, the plain-basis denominator of tau^{s}."""
    out = 1
    for si in s:
        out *= q_fact(si, ctx.p, ctx.m)
    return out
