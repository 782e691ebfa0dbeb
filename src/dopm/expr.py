"""Parsing and printing of operator expressions.

Input grammar (whitespace is ignored everywhere, at either end too):

    expr := ['+'|'-'] term (('+'|'-') term)*
    term := atom ('*' atom)*
    atom := int | 't'IDX['^'NAT] | 'd'IDX['<'NAT'>']['^'NAT]
          | '(' expr ')' ['^'NAT]

t1..tr are the coordinates, d1..dr the divided partials: dI<k> is the
k-th divided power in direction I, dI alone is order one, and k is at
most MAX_ORDER.  Products are ring products written with '*', so "d1*t1"
and "t1*d1 + 1" parse to the same operator; juxtaposition ("d1 t1") is
an error.  A power is the ring power: "d1<2>^3" is "(d1<2>)^3", the
product d1<2>*d1<2>*d1<2>, refused past MAX_ORDER, MAX_DEGREE or
MAX_BOX.

The parser reads straight into the basis form sum_k f_k d^<k>, as
unreduced coefficient dicts reduced once at the end.  A term is read
left to right: when the left factor is a function f, the product is
the premultiplication f * sum g_l d^<l> = sum (f g_l) d^<l>; every
other product, and every power, is the ring product DiffOp.__mul__.

Output is deterministic: terms in descending index order, coefficients
signed-minimal mod p, composite coefficients parenthesized.  The tokens
th1..thr (the central frame) and t'1..t'r (downstairs coordinates) occur
only in output, never in input.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import prod

from .context import Context
from .diffops import DiffOp
from .poly import Poly, mac
from .scalars import mi_sum, mi_zero

# int | tI or dI | symbol | anything else, a bad token; whitespace
# between tokens matches nothing and is skipped
_TOKEN = re.compile(r"(\d+)|([td])(\d+)|([-+*()^<>])|(\S)")

# The largest divided-power order dI<k> the parser accepts.  A product's
# structure constants cost O(log k) (`scalars._fact_ratio`), but d^<k> on
# a function that reaches degree k reads q_k! C(h, k) mod p over a period
# of up to p k exponents h (`scalars.dp_residues`), built in time linear
# in k: at p = 7, 9 ms at 10^5, 0.4 s at 10^6 and 3 s at 10^7 on a Xeon
# core.
MAX_ORDER = 10**5

# The largest total degree in t a power may reach: C(D + r, r) terms per
# coefficient at most.  MAX_PAIRS, not this cap, bounds the squarings:
# (t1+t2+t3+1)^97 at p = 7 took 41 s on a Xeon core before it did.
MAX_DEGREE = 100

# The most indices d^<k> a power x^n may span: its index box
# prod_i (n ord_i(x) + 1), ord_i(x) the largest k_i in x, bounds its
# terms, and the products by squaring multiply such term lists pairwise.
# It is the box of d1^MAX_ORDER, so it refuses no power of one
# coordinate that MAX_ORDER allows.  Within it the slowest sums of dI
# found, (d1+d2)^293 and (d1+d2+d3)^41 at p = 7, take half a second on a
# Xeon core; (d1+d2+d3)^342, past it, took 11 s.
MAX_BOX = MAX_ORDER + 1

# The most term pairs (t^e d^<k> by t^e' d^<k'>) the squarings of one
# power may multiply, counted from the operands before each product.  A
# pair's structure constants cost O(log k), so its orders hardly set its
# price, but each pair still runs the Leibniz rule in Python: 11 to 15 us
# per pair of constant coefficients, more with more coefficient terms.
# (d1+d1<2>)^1000 at p = 7 multiplies 13892 pairs in 0.16 s on a Xeon
# core, ^2000 208373 in 2.3 s and ^4000 1887989 in 24 s.
MAX_PAIRS = 10**5


class ExprError(ValueError):
    pass


def tokenize(s: str):
    out = []
    for num, var, idx, sym, bad in _TOKEN.findall(s):
        if bad:
            raise _bad_token(s)
        try:
            if num:
                out.append(("int", int(num)))
            elif var:
                out.append((var, int(idx)))
            else:
                out.append((sym, None))
        except ValueError:      # past sys.get_int_max_str_digits()
            raise ExprError(f"integer of {len(num or idx)} digits is too "
                            f"long") from None
    return out


def _bad_token(s: str) -> ExprError:
    """The error for s's first bad token, quoting s from the end of the
    token before it."""
    end = 0
    for m in _TOKEN.finditer(s):
        if m.group(5):
            return ExprError(f"bad token at ...{s[end:end+12]!r}")
        end = m.end()


def _add_into(acc: dict, x: dict, sign: int = 1) -> dict:
    """acc += sign * x on {k: {e: c}} dicts, unreduced; returns acc."""
    for k, g in x.items():
        f = acc.get(k)
        if f is None:
            f = acc[k] = {}
        for e, c in g.items():
            f[e] = f.get(e, 0) + sign * c
    return acc


def _term_count(op: DiffOp) -> int:
    return sum(len(f.coeffs) for f in op.terms.values())


class _Parser:
    """Recursive descent into unreduced {k: {e: c}} dicts, the basis form
    sum_k f_k d^<k>.  Every dict it returns is its own, so sums add in
    place."""

    def __init__(self, ctx: Context, tokens):
        self.ctx = ctx
        self.toks = tokens
        self.pos = 0
        self.zero = mi_zero(ctx.r)

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind=None):
        if self.pos >= len(self.toks):
            raise ExprError("unexpected end of expression")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[0]!r}")
        self.pos += 1
        return tok

    def expr(self) -> dict:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = _add_into({}, acc, -1)
        while self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            _add_into(acc, self.term(), sign)
        return acc

    def term(self) -> dict:
        acc = self.atom()
        while self.peek() == "*":
            self.take()
            acc = self._product(acc, self.atom())
        return acc

    def atom(self) -> dict:
        ctx, zero = self.ctx, self.zero
        kind, val = self.take()
        if kind == "int":
            return {zero: {zero: val}}
        if kind == "t":
            idx = self._index(val)
            e = 1
            if self.peek() == "^":
                self.take()
                e = self._nat()
            exps = tuple(e if i == idx else 0 for i in range(ctx.r))
            return {zero: {exps: 1}}
        if kind == "d":
            idx = self._index(val)
            k = 1
            if self.peek() == "<":
                self.take()
                k = self._nat()
                if k > MAX_ORDER:
                    raise ExprError(f"order of 'd{val}<{k}>' is above the "
                                    f"cap {MAX_ORDER}")
                self.take(">")
            exps = tuple(k if i == idx else 0 for i in range(ctx.r))
            return self._power({exps: {zero: 1}})
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return self._power(inner)
        raise ExprError(f"unexpected {kind!r}")

    def _product(self, a: dict, b: dict) -> dict:
        """a * b.  A function f on the left premultiplies:
        f * sum g_l d^<l> = sum (f g_l) d^<l>.  Anything else is the
        ring product DiffOp.__mul__."""
        f = a.get(self.zero) if len(a) == 1 else None
        if f is not None:
            out = {}
            for l, g in b.items():
                mac(out.setdefault(l, {}), f, g)
            return out
        return self._dicts(self._op(a) * self._op(b))

    def _power(self, x: dict) -> dict:
        """x, or its ring power x^n if '^' n follows, n times x's largest
        order (1 at least) and degree are within MAX_ORDER and MAX_DEGREE,
        its index box is within MAX_BOX, and its squarings multiply at
        most MAX_PAIRS term pairs."""
        if self.peek() != "^":
            return x
        self.take()
        n = self._nat()
        order = max([1, *(max(k) for k in x)])
        degree = max([0, *(sum(e) for f in x.values() for e in f)])
        if n * order > MAX_ORDER or n * degree > MAX_DEGREE:
            raise ExprError(f"power '^{n}' reaches order {n * order} and "
                            f"degree {n * degree}; the caps are {MAX_ORDER} "
                            f"and {MAX_DEGREE}")
        box = prod(n * max([0, *(k[i] for k in x)]) + 1
                   for i in range(self.ctx.r))
        if box > MAX_BOX:
            raise ExprError(f"power '^{n}' spans an index box of {box} "
                            f"multi-indices; the cap is {MAX_BOX}")
        pairs = 0

        def times(a: DiffOp, b: DiffOp) -> DiffOp:
            nonlocal pairs
            pairs += _term_count(a) * _term_count(b)
            if pairs > MAX_PAIRS:
                raise ExprError(f"power '^{n}' multiplies at least {pairs} "
                                f"term pairs; the cap is {MAX_PAIRS}")
            return a * b

        return self._dicts(self._op(x).power(n, times))

    def _op(self, x: dict) -> DiffOp:
        return DiffOp.from_dicts(self.ctx, x)

    @staticmethod
    def _dicts(op: DiffOp) -> dict:
        return {k: f.coeffs for k, f in op.terms.items()}

    def _index(self, val: int) -> int:
        if not 1 <= val <= self.ctx.r:
            raise ExprError(f"coordinate index {val} out of range 1..{self.ctx.r}")
        return val - 1

    def _nat(self) -> int:
        return self.take("int")[1]


# What a token left over after a whole expression breaks.
_LEFTOVER_RULES = {
    ")": "it closes no '('",
    "^": "'^' takes one exponent, after tI, dI, dI<k> or ')'",
    "<": "'<k>' follows only dI",
    ">": "'<k>' follows only dI",
}


def parse(ctx: Context, s: str) -> DiffOp:
    p = _Parser(ctx, tokenize(s))
    out = p.expr()
    if p.pos != len(p.toks):
        kind, val = p.toks[p.pos]
        found = kind if val is None else f"{val}" if kind == "int" else \
            f"{kind}{val}"
        rule = _LEFTOVER_RULES.get(kind, "products need '*'")
        raise ExprError(f"unexpected {found!r} at token {p.pos}: {rule}")
    return DiffOp.from_dicts(ctx, out)


# ---------------------------------------------------------------------------
# rendering

_GROUP_NAMES = {"t": "t", "t'": "t'", "th": "th", "dt'": "dt'", "tau": "tau"}


def _signed(c: int, p: int) -> int:
    c %= p
    return c if c <= p // 2 else c - p


@lru_cache(maxsize=None)
def _var_names(var: str, nvars: int) -> tuple:
    """The names of a polynomial's variables, in exponent order."""
    groups = var.split("|")
    r = nvars // len(groups)
    return tuple(f"{_GROUP_NAMES[g]}{i+1}" for g in groups for i in range(r))


def _mono_str(e, names) -> str:
    return "*".join([n if x == 1 else f"{n}^{x}"
                     for n, x in zip(names, e) if x])


def render_poly(f: Poly) -> str:
    """Signed-minimal, descending exponent order."""
    if not f:
        return "0"
    names = _var_names(f.var, f.nvars)
    out = ""
    for e in sorted(f.coeffs, reverse=True):
        c = _signed(f.coeffs[e], f.mod)
        mono = _mono_str(e, names)
        mag = abs(c)
        if mag == 1 and mono:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _dpart_str(k, names) -> str:
    return "*".join([n if x == 1 else f"{n}<{x}>"
                     for n, x in zip(names, k) if x])


def render_op(op: DiffOp) -> str:
    if not op:
        return "0"
    p = op.ctx.p
    dnames = [f"d{i+1}" for i in range(op.ctx.r)]
    out = ""
    for k in sorted(op.terms, key=lambda k: (mi_sum(k), k), reverse=True):
        f = op.terms[k]
        dstr = _dpart_str(k, dnames)
        neg = False
        if len(f.coeffs) == 1:
            (e, c), = f.coeffs.items()
            c = _signed(c, p)
            neg, mag = c < 0, abs(c)
            mono = _mono_str(e, _var_names(f.var, f.nvars))
            pieces = [s for s in (mono, dstr) if s]
            if mag != 1 or not pieces:
                pieces.insert(0, str(mag))
            body = "*".join(pieces)
        else:
            body = f"({render_poly(f)})*{dstr}" if dstr else \
                f"({render_poly(f)})"
        if not out:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out


def render_matrix(mat) -> str:
    """One row per line, entries tab-separated."""
    return "\n".join("\t".join(render_poly(x) for x in row) for row in mat)
