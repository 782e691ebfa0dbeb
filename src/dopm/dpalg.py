"""The level-m divided-power algebra O_X<tau_1,..,tau_r>^(m).

Elements are finite sums  sum_s  f_s(t) * tau^{s}  over the brace basis
tau^{s}, with the multiplication law

    tau^{a} * tau^{b} = {a+b \\ a} * tau^{a+b}.

Usual divided powers gamma_k are computed in the *rational model*: lift
coefficients to Z, identify tau^{s} with  prod tau_i^{s_i} / q_{s_i}!,
compute w^k/k! exactly over Q (integer numerators over one common
denominator), re-express in the brace basis, check every coefficient is
p-integral, reduce.  That model is the single source of truth; the
closed-form structure constants are cross-checked against it in the
suites.

w^k/k! has one implementation, the tower gamma_k = gamma_{k-1} * w / k
(`GammaTower`).  A tower keeps its rational steps, so a caller that needs
gamma_0..gamma_K of one w (as FrobData does for phi) pays K products, not
K^2/2; `gamma_dp` builds a fresh tower per call and is the from-scratch
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .context import Context
from .poly import Poly
from .scalars import (angle_mi_mod, box_le, brace_mi, brace_mi_mod,
                      dp_monomial_action, frac_mod, mi_add, mi_sum, mi_zero,
                      q_fact)


class DPElem:
    """An element at the context's level m, with every term of total
    tau-degree above ctx.tau_trunc dropped."""

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
    def one(cls, ctx, mod):
        return cls(ctx, {mi_zero(ctx.r): Poly.one(ctx.r, mod)}, mod)

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

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, Poly):
            out = {s: c * f for s, f in self.coeffs.items()}
        else:
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
                c = brace_mi_mod(a, b, p, m, self.mod) if self.mod is not None \
                    else brace_mi(a, b, p, m)
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


def comult_basis(ctx: Context, n, mod):
    """delta(tau^{n}) = sum_{i+j=n} <n \\ i> tau^{i} (x) tau^{j}."""
    out = []
    for i in box_le(n):
        j = tuple(a - b for a, b in zip(n, i))
        c = angle_mi_mod(i, j, ctx.p, ctx.m, mod)
        if c:
            out.append((i, j, c))
    return out


# ---------------------------------------------------------------------------
# the rational model and usual divided powers

class RatDP:
    """Plain-basis model over Q: keys are (t-exps, tau-exps), with tau^{s}
    standing for  prod tau_i^{s_i}/q_{s_i}!.  Each value is an integer
    numerator over the one common denominator `den`, so products multiply
    integers and no step reduces a fraction; `to_dp` does that once per
    output term.  Truncation is by total tau-degree above ctx.tau_trunc
    (sound: tau-degrees only ever add)."""

    __slots__ = ("ctx", "terms", "den")

    def __init__(self, ctx, terms, den=1):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if v}
        self.den = den

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {(mi_zero(ctx.r), mi_zero(ctx.r)): 1})

    @classmethod
    def from_dp(cls, w: DPElem, lift=None):
        """Lift a mod-p element into the model, over the lcm of its
        prod q_{s_i}! denominators.  `lift(s, e, c)` chooses the integer
        representative of each coefficient (default: c as stored, i.e. the
        0..p-1 representative); the result of any gamma computation is
        independent of this choice, which tests randomize."""
        dens = {s: _q_fact_mi(s, w.ctx) for s in w.coeffs}
        den = lcm(*dens.values())
        terms = {}
        for s, f in w.coeffs.items():
            for e, c in f.coeffs.items():
                ci = lift(s, e, c) if lift else c
                terms[(e, s)] = ci * (den // dens[s])
        return cls(w.ctx, terms, den)

    def __mul__(self, other):
        trunc = self.ctx.tau_trunc
        out = {}
        for (te1, se1), c1 in self.terms.items():
            for (te2, se2), c2 in other.terms.items():
                se = mi_add(se1, se2)
                if mi_sum(se) > trunc:
                    continue
                k = (mi_add(te1, te2), se)
                out[k] = out.get(k, 0) + c1 * c2
        return RatDP(self.ctx, out, self.den * other.den)

    def scale(self, c):
        """c * self for a rational c: its numerator goes into every
        numerator, its denominator into `den`."""
        c = Fraction(c)
        return RatDP(self.ctx,
                     {k: c.numerator * v for k, v in self.terms.items()},
                     self.den * c.denominator)

    def to_dp(self, mod) -> DPElem:
        """Back to the brace basis; asserts p-integrality of every
        coefficient (the loud failure outside the divided-power lattice)."""
        p = self.ctx.p
        slots: dict = {}
        for (te, se), c in self.terms.items():
            b = Fraction(c * _q_fact_mi(se, self.ctx), self.den)
            if b.denominator % p == 0:
                raise ArithmeticError(
                    f"gamma output not p-integral at tau^{se}: {b}")
            cur = slots.setdefault(se, {})
            cur[te] = cur.get(te, 0) + (frac_mod(b, mod) if mod is not None else b)
        polys = {s: Poly(d, self.ctx.r, mod) for s, d in slots.items()}
        return DPElem(self.ctx, polys, mod)


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
        self.steps = [RatDP.one(w.ctx)]

    def rational(self, k: int) -> RatDP:
        """gamma_k(w), exact over Q."""
        while len(self.steps) <= k:
            j = len(self.steps)
            self.steps.append((self.steps[-1] * self.w).scale(Fraction(1, j)))
        return self.steps[k]


def gamma_dp(w: DPElem, k: int, lift=None, mod=0) -> DPElem:
    """Usual divided power gamma_k on the PD part, via the rational model,
    from scratch: the oracle for every kept GammaTower.

    `mod=0` means "reduce to w's own modulus"; pass None for the exact
    rational answer (used by the compd suite).
    """
    target = w.mod if mod == 0 else mod
    return GammaTower(w, lift=lift).rational(k).to_dp(target)
