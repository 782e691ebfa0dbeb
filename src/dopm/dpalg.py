"""The level-m divided-power algebra O_X<tau_1,..,tau_r>^(m).

Elements are finite sums  sum_s  f_s(t) * tau^{s}  over the brace basis
tau^{s}, with the multiplication law

    tau^{a} * tau^{b} = {a+b \\ a} * tau^{a+b}.

Usual divided powers gamma_k are computed in the *rational model*
(`RatDP`): lift coefficients to Z, identify tau^{s} with
prod tau_i^{s_i} / q_{s_i}!, compute w^k/k! exactly over Q (integer
numerators over one common denominator, each term's exponents packed
into one integer key, so a product of terms is one integer addition),
re-express in the brace basis, check every coefficient is p-integral,
and reduce with integer arithmetic only.  That model is the single
source of truth; the closed-form structure constants are cross-checked
against it in the suites.

w^k/k! has one implementation, the tower gamma_k = gamma_{k-1} * w / k
(`GammaTower`).  A tower keeps its rational steps, so a caller that needs
gamma_0..gamma_K of one w (as FrobData does for phi of a lifting with a
nonzero deviation) pays K products, not K^2/2; `gamma_dp` builds a fresh
tower per call and is the from-scratch oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .context import Context
from .poly import Poly
from .scalars import (box_le, brace_mi_mod, dp_monomial_action,
                      mi_add, mi_sum, mi_zero, q_fact)


class DPElem:
    """An element at the context's level m, with every term of total
    tau-degree above ctx.tau_trunc dropped.  A product needs an integer
    `mod`: an element with Fraction coefficients (`gamma_dp(...,
    mod=None)`) is compared, never multiplied."""

    __slots__ = ("ctx", "coeffs", "mod")

    def __init__(self, ctx: Context, coeffs, mod):
        self.ctx = ctx
        self.mod = mod
        clean = {}
        for s, f in coeffs.items():
            s = tuple(s)
            if f and mi_sum(s) <= ctx.tau_trunc:
                clean[s] = f
        self.coeffs = clean

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
        p, m, trunc = self.ctx.p, self.ctx.m, self.ctx.tau_trunc
        out = {}
        for a, f in self.coeffs.items():
            for b, g in other.coeffs.items():
                s = mi_add(a, b)
                if mi_sum(s) > trunc:
                    continue
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

    Exact for |s| within the truncation bound; the constant term is f.
    """
    out: dict = {}
    for h, c in f.coeffs.items():
        for s in box_le(h):
            if mi_sum(s) > ctx.tau_trunc:
                continue
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

class RatDP:
    """Plain-basis model over Q of the elements of one tower: t^e tau^{s},
    with tau^{s} standing for  prod tau_i^{s_i}/q_{s_i}!.  Each value is
    an integer numerator over the one common denominator `den`, so
    products multiply integers and no step reduces a fraction; `to_dp`
    reduces once per output term.  Terms of total tau-degree
    |s| > ctx.tau_trunc are dropped (sound: tau-degrees only ever add).

    Keys.  A term's key is one integer, its exponents packed in fields of
    `width` W bits:

        e_1 + e_2 2^W + .. + e_r 2^((r-1)W)
            + s_1 2^(rW) + .. + s_r 2^((2r-1)W) + |s| 2^(2rW),

    |s| in the top field, which has no bound.  So the key of a product of
    terms is the sum of their keys, and a product is dropped by the one
    compare key >= (tau_trunc + 1) << 2rW.  Keys are unpacked only in
    `to_dp`.

    Width.  `from_dp(w)` takes the least W with
    2^W > max(1, tau_trunc) * max(1, largest t-exponent of w), and a
    tower only ever multiplies gamma_(k-1) by w, starting from `one`.
    Every term of w has |s| >= 1 (gamma needs a zero constant term), so
    a term of gamma_k with |s| <= tau_trunc is a product of
    k <= tau_trunc terms of w: each of its t-exponents is at most
    tau_trunc times the largest one of w, and each s_i at most
    |s| <= tau_trunc, both below 2^W.  So no field of a kept term
    carries, and its key is exact.  The fields of a term with
    |s| > tau_trunc may carry, but a carry only moves a bit into a higher
    field: the top field of the sum is at least its true |s|, so
    the term is still dropped."""

    __slots__ = ("ctx", "terms", "den", "width")

    def __init__(self, ctx, terms, den=1, width=1):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if v}
        self.den = den
        self.width = width

    @classmethod
    def one(cls, ctx, width=1):
        return cls(ctx, {0: 1}, 1, width)

    @classmethod
    def from_dp(cls, w: DPElem, lift=None):
        """Lift a mod-p element into the model, over the lcm of its
        prod q_{s_i}! denominators, with the field width its tower needs.
        `lift(s, e, c)` chooses the integer representative of each
        coefficient (default: c as stored, i.e. the 0..p-1
        representative); the result of any gamma computation is
        independent of this choice, which tests randomize."""
        ctx = w.ctx
        top_t = max((x for f in w.coeffs.values() for e in f.coeffs
                     for x in e), default=0)
        width = (max(1, ctx.tau_trunc) * max(1, top_t)).bit_length()
        dens = {s: _q_fact_mi(s, ctx) for s in w.coeffs}
        den = lcm(*dens.values())
        terms = {}
        for s, f in w.coeffs.items():
            base = _pack(s, width, ctx.r, sum(s))
            for e, c in f.coeffs.items():
                ci = lift(s, e, c) if lift else c
                terms[base + _pack(e, width)] = ci * (den // dens[s])
        return cls(ctx, terms, den, width)

    def __mul__(self, other):
        """The product of two elements of one tower (the width proof in
        the class docstring covers gamma_(k-1) * w)."""
        if self.width != other.width:
            raise ValueError("RatDP factors of different key widths")
        room = (self.ctx.tau_trunc + 1) << (2 * self.ctx.r * self.width)
        right = sorted(other.terms.items())
        out = {}
        for k1, c1 in self.terms.items():
            below = room - k1
            for k2, c2 in right:
                if k2 >= below:
                    break
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return RatDP(self.ctx, out, self.den * other.den, self.width)

    def to_dp(self, mod) -> DPElem:
        """Back to the brace basis, raising ArithmeticError unless every
        coefficient is p-integral (the loud failure outside the
        divided-power lattice).

        With an integer `mod` (a power of p) no Fraction is formed:
        den = p^v u with u prime to p, a term's brace coefficient
        c q_s! / den is p-integral iff p^v divides c q_s!, and its value
        is (c q_s! / p^v) u^-1 mod `mod`.  `mod=None` gives Fractions."""
        ctx = self.ctx
        p, r, width = ctx.p, ctx.r, self.width
        mask = (1 << width) - 1
        e_at = [i * width for i in range(r)]
        s_at = [i * width for i in range(r, 2 * r)]
        den, pv = self.den, 1
        while den % p == 0:
            den //= p
            pv *= p
        inv = pow(den, -1, mod) if mod is not None else None
        facts: dict = {}
        slots: dict = {}
        for key, c in self.terms.items():
            e = tuple([(key >> at) & mask for at in e_at])
            s = tuple([(key >> at) & mask for at in s_at])
            qf = facts.get(s)
            if qf is None:
                qf = facts[s] = _q_fact_mi(s, ctx)
            num, rem = divmod(c * qf, pv)
            if rem:
                raise ArithmeticError(
                    f"gamma output not p-integral at tau^{s}: "
                    f"{Fraction(c * qf, self.den)}")
            v = Fraction(num, den) if mod is None else num * inv % mod
            if v:
                slots.setdefault(s, {})[e] = v
        polys = {s: Poly._trusted(d, r, mod) for s, d in slots.items()}
        return DPElem(ctx, polys, mod)


def _pack(exps, width: int, offset: int = 0, top: int = 0) -> int:
    """exps in the fields offset, offset + 1, .. of `width` bits, and
    `top` in field offset + len(exps): RatDP's key layout."""
    key = top
    for x in reversed(exps):
        key = (key << width) | x
    return key << (offset * width)


def _q_fact_mi(s, ctx: Context) -> int:
    """prod q_{s_i}!, the plain-basis denominator of tau^{s}."""
    out = 1
    for si in s:
        out *= q_fact(si, ctx.p, ctx.m)
    return out


class GammaTower:
    """The usual divided powers of one element w with zero constant term,
    by the recurrence gamma_k = gamma_{k-1} * w / k in the rational model.

    Every step is kept, so `rational(k)` multiplies only past the highest
    k reached so far; callers reduce each value they use through `to_dp`,
    which checks its p-integrality."""

    __slots__ = ("w", "steps")

    def __init__(self, w: DPElem, lift=None):
        if w.constant_term():
            raise ValueError("gamma_k needs a zero constant term")
        self.w = RatDP.from_dp(w, lift=lift)
        self.steps = [RatDP.one(w.ctx, self.w.width)]

    def rational(self, k: int) -> RatDP:
        """gamma_k(w), exact over Q."""
        while len(self.steps) <= k:
            step = self.steps[-1] * self.w
            step.den *= len(self.steps)         # the 1/k of w^k/k!
            self.steps.append(step)
        return self.steps[k]


def gamma_dp(w: DPElem, k: int, lift=None, mod=0) -> DPElem:
    """Usual divided power gamma_k on the PD part, via the rational model,
    from scratch: the oracle for every kept GammaTower.

    `mod=0` means "reduce to w's own modulus"; pass None for the exact
    rational answer (used by the compd suite).
    """
    target = w.mod if mod == 0 else mod
    return GammaTower(w, lift=lift).rational(k).to_dp(target)
