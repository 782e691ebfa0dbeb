"""Parsing and printing of operator expressions.

Input grammar (whitespace-insensitive):

    expr := ['+'|'-'] term (('+'|'-') term)*
    term := atom ('*' atom)*
    atom := int | 't'IDX['^'NAT] | 'd'IDX['<'NAT'>']['^'NAT]
          | '(' expr ')' ['^'NAT]

t1..tr are the coordinates, d1..dr the divided partials: dI<k> is the
k-th divided power in direction I, dI alone is order one.  Products are
ring products written with '*', so "d1*t1" and "t1*d1 + 1" parse to the
same operator; juxtaposition ("d1 t1") is an error.  A power is the ring
power: "d1<2>^3" is "(d1<2>)^3", the product d1<2>*d1<2>*d1<2>.

Output is deterministic: terms in descending index order, coefficients
signed-minimal mod p, composite coefficients parenthesized.  The tokens
th1..thr (the central frame) and t'1..t'r (downstairs coordinates) occur
only in output, never in input.
"""

from __future__ import annotations

import re

from .context import Context
from .diffops import DiffOp
from .poly import Poly
from .scalars import mi_sum

_TOKEN = re.compile(r"\s*(?:(\d+)|([td])(\d+)|([-+*()^<>]))")


class ExprError(ValueError):
    pass


def tokenize(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ExprError(f"bad token at ...{s[pos:pos+12]!r}")
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append((m.group(2), int(m.group(3))))
        else:
            out.append((m.group(4), None))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, ctx: Context, tokens):
        self.ctx = ctx
        self.toks = tokens
        self.pos = 0

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

    def expr(self) -> DiffOp:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def term(self) -> DiffOp:
        acc = self.atom()
        while self.peek() == "*":
            self.take()
            acc = acc * self.atom()
        return acc

    def atom(self) -> DiffOp:
        ctx = self.ctx
        kind, val = self.take()
        if kind == "int":
            return DiffOp.from_poly(ctx, Poly.const(val, ctx.r, ctx.p))
        if kind == "t":
            idx = self._index(val)
            e = 1
            if self.peek() == "^":
                self.take()
                e = self._nat()
            exps = tuple(e if i == idx else 0 for i in range(ctx.r))
            return DiffOp.from_poly(ctx, Poly.monomial(exps, 1, ctx.r, ctx.p))
        if kind == "d":
            idx = self._index(val)
            k = 1
            if self.peek() == "<":
                self.take()
                k = self._nat()
                self.take(">")
            exps = tuple(k if i == idx else 0 for i in range(ctx.r))
            return self._power(DiffOp.dpartial(ctx, exps))
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return self._power(inner)
        raise ExprError(f"unexpected {kind!r}")

    def _power(self, op: DiffOp) -> DiffOp:
        """op, or its ring power op^n when '^' n follows."""
        if self.peek() == "^":
            self.take()
            return op ** self._nat()
        return op

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
    return out


# ---------------------------------------------------------------------------
# rendering

_GROUP_NAMES = {"t": "t", "t'": "t'", "th": "th", "dt'": "dt'", "tau": "tau"}


def _signed(c: int, p: int) -> int:
    c %= p
    return c if c <= p // 2 else c - p


def _mono_str(e, groups, r) -> str:
    parts = []
    for gi, g in enumerate(groups):
        name = _GROUP_NAMES[g]
        for i in range(r):
            x = e[gi * r + i]
            if x == 1:
                parts.append(f"{name}{i+1}")
            elif x:
                parts.append(f"{name}{i+1}^{x}")
    return "*".join(parts)


def render_poly(f: Poly) -> str:
    """Signed-minimal, descending exponent order."""
    if not f:
        return "0"
    groups = f.var.split("|")
    r = f.nvars // len(groups)
    out = ""
    for e in sorted(f.coeffs, reverse=True):
        c = _signed(f.coeffs[e], f.mod)
        mono = _mono_str(e, groups, r)
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


def _dpart_str(k) -> str:
    parts = []
    for i, x in enumerate(k):
        if x == 1:
            parts.append(f"d{i+1}")
        elif x:
            parts.append(f"d{i+1}<{x}>")
    return "*".join(parts)


def render_op(op: DiffOp) -> str:
    if not op:
        return "0"
    p = op.ctx.p
    out = ""
    for k in sorted(op.terms, key=lambda k: (mi_sum(k), k), reverse=True):
        f = op.terms[k]
        dstr = _dpart_str(k)
        neg = False
        if len(f.coeffs) == 1:
            (e, c), = f.coeffs.items()
            c = _signed(c, p)
            neg, mag = c < 0, abs(c)
            mono = _mono_str(e, f.var.split("|"), op.ctx.r)
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
