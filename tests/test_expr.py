"""Expression grammar: parse/render round trips and error reporting.

`parse` reads straight into the basis form sum f_k d^<k>; its oracle is
`parse_reference`, which builds one DiffOp per atom and composes them
with ring products throughout."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopm.context import Context
from dopm.diffops import DiffOp
from dopm.expr import (MAX_BOX, MAX_DEGREE, MAX_ORDER, MAX_PAIRS, ExprError,
                       parse, render_matrix, render_op, render_poly)
from dopm.poly import Poly

from test_diffops import ORACLE_CTXS, ORACLE_IDS


# -- the reference parser ---------------------------------------------------------

_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([td])(\d+)|([-+*()^<>]))")


def _ref_tokenize(s):
    """One regex match per token from the end of the last one; what is
    left at the end may be whitespace only."""
    pos = 0
    out = []
    while pos < len(s) and not s[pos:].isspace():
        m = _REF_TOKEN.match(s, pos)
        if not m:
            raise ExprError(f"bad token at ...{s[pos:pos+12]!r}")
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append((m.group(2), int(m.group(3))))
        else:
            out.append((m.group(4), None))
        pos = m.end()
    return out


class _RefParser:
    def __init__(self, ctx, tokens):
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

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def term(self):
        acc = self.atom()
        while self.peek() == "*":
            self.take()
            acc = acc * self.atom()
        return acc

    def atom(self):
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

    def _power(self, op):
        """op^n as n ring products, not `DiffOp.__pow__`'s squaring."""
        if self.peek() == "^":
            self.take()
            out = DiffOp.one(self.ctx)
            for _ in range(self._nat()):
                out = out * op
            return out
        return op

    def _index(self, val):
        if not 1 <= val <= self.ctx.r:
            raise ExprError(f"coordinate index {val} out of range 1..{self.ctx.r}")
        return val - 1

    def _nat(self):
        return self.take("int")[1]


_REF_LEFTOVER = {
    ")": "it closes no '('",
    "^": "'^' takes one exponent, after tI, dI, dI<k> or ')'",
    "<": "'<k>' follows only dI",
    ">": "'<k>' follows only dI",
}


def parse_reference(ctx, s):
    """One DiffOp per atom, ring products and DiffOp sums throughout."""
    p = _RefParser(ctx, _ref_tokenize(s))
    out = p.expr()
    if p.pos != len(p.toks):
        kind, val = p.toks[p.pos]
        found = kind if val is None else f"{val}" if kind == "int" else \
            f"{kind}{val}"
        rule = _REF_LEFTOVER.get(kind, "products need '*'")
        raise ExprError(f"unexpected {found!r} at token {p.pos}: {rule}")
    return out


def _outcome(fn, ctx, s):
    try:
        return fn(ctx, s)
    except ExprError as e:
        return ("ExprError", str(e))


def test_documented_forms():
    ctx = Context(2, 0)
    # products normalize to the coefficient-first basis form
    assert render_op(parse(ctx, "d1*t1")) == "t1*d1 + 1"
    assert parse(ctx, "d1*t1") == parse(ctx, "t1*d1 + 1")
    assert render_op(parse(ctx, "d1<3>")) == "d1<3>"
    assert render_op(parse(ctx, "0")) == "0"
    assert render_op(parse(ctx, "2")) == "0"        # mod 2


def test_signed_rendering_at_odd_p():
    ctx = Context(3, 0)
    assert render_op(parse(ctx, "2*t1^2*d1<3>")) == "-t1^2*d1<3>"
    assert render_op(parse(ctx, "-d1")) == "-d1"
    assert render_poly(Poly({(2,): 2}, 1, 3)) == "-t1^2"
    assert render_poly(Poly({(1,): 1, (0,): 2}, 1, 3)) == "t1 - 1"


def test_parse_powers_and_parens():
    ctx = Context(5, 0)
    assert parse(ctx, "(t1+1)^2") == \
        parse(ctx, "t1^2 + 2*t1 + 1")
    # at level zero the angle coefficients are all 1: plain Weyl algebra
    assert parse(ctx, "(d1)^2") == DiffOp.dpartial(ctx, (2,))
    assert parse(ctx, "d1<2>*d1") == DiffOp.dpartial(ctx, (3,))
    # at level one they are not: d^<1> d^<1> = <2 \ 1> d^<2> = 2 d^<2>
    ctx1 = Context(3, 1)
    assert parse(ctx1, "d1*d1") == DiffOp.dpartial(ctx1, (2,)).scale(2)


def test_powers_of_d_atoms_are_ring_powers():
    # dI^n and dI<k>^n are (dI<k>)^n, never d^<kn>
    for ctx in (Context(2, 0), Context(3, 1), Context(2, 1, r=2)):
        d = DiffOp.dpartial(ctx, (1,) + (0,) * (ctx.r - 1))
        d2 = DiffOp.dpartial(ctx, (0,) * (ctx.r - 1) + (2,))
        assert parse(ctx, "d1^3") == parse(ctx, "(d1)^3") == d ** 3
        assert parse(ctx, "d1^0") == DiffOp.one(ctx)
        assert parse(ctx, f"d{ctx.r}<2>^2") == d2 * d2
        assert parse(ctx, f"t1*d{ctx.r}<2>^2*t1") == \
            parse(ctx, f"t1*(d{ctx.r}<2>)^2*t1")
    # at level one the power differs from the divided power:
    # d^<1> d^<1> = <2 \ 1> d^<2> = 2 d^<2>
    ctx = Context(3, 1)
    assert parse(ctx, "d1^2") == DiffOp.dpartial(ctx, (2,)).scale(2)


@pytest.mark.parametrize("s, found, rule", [
    ("d1 t1", "'t1' at token 1", "products need '*'"),
    ("3 3", "'3' at token 1", "products need '*'"),
    ("d1<2>(t1)", "'(' at token 4", "products need '*'"),
    ("t1)", "')' at token 1", "it closes no '('"),
    ("t1^2^3", "'^' at token 3", "'^' takes one exponent"),
    ("d1>2<", "'>' at token 1", "'<k>' follows only dI"),
    ("t1<2>", "'<' at token 1", "'<k>' follows only dI"),
])
def test_leftover_input_names_the_token_and_the_rule(s, found, rule):
    with pytest.raises(ExprError) as err:
        parse(Context(2, 0), s)
    msg = str(err.value)
    assert "\n" not in msg
    assert msg.startswith(f"unexpected {found}: ") and rule in msg


def test_multi_coordinate_atoms():
    ctx = Context(3, 0, r=2)
    op = parse(ctx, "t2^2*d1<3>*d2")
    assert op == DiffOp.dpartial(ctx, (3, 1),
                                 coeff=Poly.monomial((0, 2), 1, 2, 3))
    with pytest.raises(ExprError):
        parse(ctx, "t3")
    with pytest.raises(ExprError):
        parse(ctx, "d3<2>")


BAD = ["", "d1<", "d1<2", "t1^", "1 +", ")", "(t1", "x1", "t1**2", "d1>2<",
       "3 3", "d1^", "d1<2>^", "d1^2^2"]


@pytest.mark.parametrize("s", BAD)
def test_malformed_input_raises(s):
    ctx = Context(2, 0, r=1)
    with pytest.raises(ExprError):
        parse(ctx, s)


@st.composite
def ops(draw, ctx):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        k = tuple(draw(st.integers(0, 6)) for _ in range(ctx.r))
        coeffs = {}
        for _ in range(draw(st.integers(1, 2))):
            e = tuple(draw(st.integers(0, 4)) for _ in range(ctx.r))
            coeffs[e] = draw(st.integers(1, ctx.p - 1))
        f = Poly(coeffs, ctx.r, ctx.p)
        terms[k] = terms.get(k, Poly.zero(ctx.r, ctx.p)) + f
    return DiffOp(ctx, terms)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(data):
    ctx = data.draw(st.sampled_from([Context(2, 0), Context(3, 0),
                                     Context(5, 0, r=2), Context(3, 1,
                                                                 r=2)]))
    op = data.draw(ops(ctx))
    assert parse(ctx, render_op(op)) == op


def test_rendering_is_deterministic():
    ctx = Context(3, 0, r=2)
    a = parse(ctx, "d1<3> + t1*d2 + 2*t2")
    b = parse(ctx, "2*t2 + t1*d2 + d1<3>")
    assert render_op(a) == render_op(b) == "d1<3> + t1*d2 - t2"


def test_render_matrix_shape():
    f = Poly({(1,): 1}, 1, 3, "t'")
    z = Poly.zero(1, 3, "t'")
    out = render_matrix([[f, z], [z, f]])
    assert out == "t'1\t0\n0\tt'1"


# -- whitespace, the order cap, and the reference parser --------------------

@pytest.mark.parametrize("s", ["t1 ", "t1\n", " t1", " \tt1 \n", "t1  \t"])
def test_whitespace_is_ignored_at_either_end(s):
    ctx = Context(3, 0)
    assert parse(ctx, s) == parse(ctx, "t1")


def test_bad_token_names_the_text_after_the_last_good_token():
    ctx = Context(2, 0)
    for s, rest in [("t1 + x1 ", " x1 "), ("x", "x"), ("d1 * t", " t"),
                    ("t1 $", " $"), ("2 + d1<3> + t1# and more text",
                                     "# and more t")]:
        with pytest.raises(ExprError) as err:
            parse(ctx, s)
        assert str(err.value) == f"bad token at ...{rest!r}"


def test_an_order_above_the_cap_is_refused():
    ctx = Context(2, 0)
    assert parse(ctx, f"d1<{MAX_ORDER}>") == \
        DiffOp.dpartial(ctx, (MAX_ORDER,))
    for s in (f"d1<{MAX_ORDER + 1}>", "t1*d1<99999999999999999999>*t1"):
        with pytest.raises(ExprError) as err:
            parse(ctx, s)
        token = re.search(r"d1<\d+>", s).group()
        assert str(err.value) == \
            f"order of {token!r} is above the cap {MAX_ORDER}"


def test_a_power_past_the_caps_is_refused():
    ctx = Context(2, 0, r=2)
    at_caps = [(f"d1^{MAX_ORDER}", DiffOp.dpartial(ctx, (MAX_ORDER, 0))),
               (f"(t1*t2)^{MAX_DEGREE // 2}",
                DiffOp.from_poly(ctx, Poly.monomial(
                    (MAX_DEGREE // 2,) * 2, 1, 2, 2))),
               (f"(1)^{MAX_ORDER}", DiffOp.one(ctx))]
    for s, want in at_caps:
        assert parse(ctx, s) == want
    for s, n, order, degree in [
            (f"d1^{MAX_ORDER + 1}", MAX_ORDER + 1, MAX_ORDER + 1, 0),
            ("t1*d1<4>^25001", 25001, 100004, 0),
            (f"(t1*t2)^{MAX_DEGREE // 2 + 1}", 51, 51, 102),
            (f"(1)^{MAX_ORDER + 1}", MAX_ORDER + 1, MAX_ORDER + 1, 0),
            ("d1^1000000", 10**6, 10**6, 0)]:
        with pytest.raises(ExprError) as err:
            parse(ctx, s)
        assert str(err.value) == \
            f"power '^{n}' reaches order {order} and degree {degree}; " \
            f"the caps are {MAX_ORDER} and {MAX_DEGREE}"


def test_a_power_past_the_index_box_cap_is_refused():
    # the box prod_i (n ord_i + 1) bounds the terms of a power of a sum;
    # d1^MAX_ORDER, one coordinate at the order cap, fills it exactly
    assert MAX_BOX == MAX_ORDER + 1
    for r, s, box in [(2, "(d1+d2)^315", 316**2),
                      (3, "(d1+d2+d3)^45", 46**3),
                      (3, "(d1<2>+t1*d2+d3)^22", 45 * 23 * 23),
                      (2, f"d1^{MAX_ORDER}", MAX_BOX)]:
        assert box <= MAX_BOX
        assert parse(Context(7, 0, r=r), s)
    for r, s, n, box in [(2, "(d1+d2)^316", 316, 317**2),
                         (3, "(d1+d2+d3)^46", 46, 47**3),
                         (3, "(d1<2>+t1*d2+d3)^37", 37, 75 * 38 * 38),
                         (3, "(d1+d2+d3)^2400", 2400, 2401**3)]:
        with pytest.raises(ExprError) as err:
            parse(Context(7, 0, r=r), s)
        assert str(err.value) == \
            f"power '^{n}' spans an index box of {box} multi-indices; " \
            f"the cap is {MAX_BOX}"


def test_a_power_past_the_pair_cap_is_refused():
    # the squarings' term pairs, counted from the operands before each
    # product, up to the one that passes the cap
    assert MAX_PAIRS == 10**5
    for r, s in [(1, "(d1+d1<2>)^1000"), (2, "(d1+d2)^293"),
                 (3, "(d1+d2+d3)^41"), (1, "(t1+d1)^100")]:
        assert parse(Context(7, 0, r=r), s)
    for r, s, n, pairs in [(1, "(d1+d1<2>)^2000", 2000, 208373),
                           (3, "(t1+t2+t3+1)^97", 97, 217688),
                           (2, "(t1+t2+d1+d2)^50", 50, 119936)]:
        with pytest.raises(ExprError) as err:
            parse(Context(7, 0, r=r), s)
        assert str(err.value) == \
            f"power '^{n}' multiplies at least {pairs} term pairs; " \
            f"the cap is {MAX_PAIRS}"


@pytest.mark.parametrize("s", ["7" * 5000 + "*t1", "d1<" + "7" * 5000 + ">",
                               "t" + "1" * 5000])
def test_an_integer_too_long_to_convert_is_refused(s):
    with pytest.raises(ExprError) as err:
        parse(Context(2, 0), s)
    assert str(err.value) == "integer of 5000 digits is too long"


@st.composite
def atom_tokens(draw, ctx, depth):
    """The tokens of a random atom, a parenthesized group while depth
    allows, with or without a power."""
    kind = draw(st.sampled_from(["int", "t", "d", "("] if depth else
                                ["int", "t", "d"]))
    i = draw(st.integers(1, ctx.r))

    def power(top):
        return ["^", str(draw(st.integers(0, top)))] if draw(st.booleans()) \
            else []

    if kind == "int":
        return [str(draw(st.integers(0, 2 * ctx.p)))]
    if kind == "t":
        return [f"t{i}"] + power(4)
    if kind == "d":
        order = ["<", str(draw(st.integers(0, ctx.pm1 + 1))), ">"] \
            if draw(st.booleans()) else []
        return [f"d{i}"] + order + power(3)
    return ["("] + draw(expr_tokens(ctx, depth - 1)) + [")"] + power(2)


@st.composite
def expr_tokens(draw, ctx, depth=2):
    """The tokens of a random well-formed expression: an optional sign,
    up to three terms of up to three factors."""
    out = [draw(st.sampled_from("+-"))] if draw(st.integers(0, 3)) == 0 \
        else []
    for t in range(draw(st.integers(1, 3))):
        if t:
            out.append(draw(st.sampled_from("+-")))
        for a in range(draw(st.integers(1, 3))):
            if a:
                out.append("*")
            out += draw(atom_tokens(ctx, depth))
    return out


def _spaced(draw, tokens, least=""):
    """The tokens joined by random whitespace, at either end too; `least`
    is put in every gap."""
    gaps = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n "])
    return "".join(draw(gaps) + least + tok for tok in tokens) + draw(gaps)


@pytest.mark.parametrize("ctx", ORACLE_CTXS, ids=ORACLE_IDS)
@pytest.mark.parametrize("s", [
    "d1*t1", "(0)", "(t1 + d1 - d1)*t1", "t1*(t1 + d1 - d1)", "-(0)",
    "(0)^0", "(d1 - d1)^0", "(d1 - d1)*d1<2>", "-(t1 - d1)^2*d1",
    "((t1 + 1))^2*(d1)^2", "t1^0*d1^0", "2*t1*3*d1<2>*t1^2*d1",
    "d1<2>*(t1^2 + 1)^2 - 1", "(t1*d1 + 1)^2*(t1 + 1)", "+d1*t1 - t1*d1",
])
def test_parse_is_the_reference_on_fixed_forms(ctx, s):
    assert parse(ctx, s) == parse_reference(ctx, s)


@pytest.mark.parametrize("ctx", ORACLE_CTXS, ids=ORACLE_IDS)
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_parse_is_the_reference(ctx, data):
    tokens = data.draw(expr_tokens(ctx))
    s = _spaced(data.draw, tokens)
    got = parse(ctx, s)
    assert got == parse_reference(ctx, s)
    assert got == parse(ctx, " ".join(tokens))      # whitespace-insensitive


NOISE = ["x", "t", "d", "t9", "d0", "<", ">", "(", ")", "^", "*", "+", "-",
         "1", "t1", "d1", "#", "**", "<>", ".5", "t1^"]


@pytest.mark.parametrize("ctx", ORACLE_CTXS, ids=ORACLE_IDS)
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_malformed_input_fails_as_the_reference_does(ctx, data):
    tokens = data.draw(expr_tokens(ctx, depth=1))
    at = data.draw(st.integers(0, len(tokens)))
    how = data.draw(st.sampled_from(["delete", "insert", "replace",
                                     "truncate"]))
    if how == "delete":
        tokens = tokens[:at] + tokens[at + 1:]
    elif how == "truncate":
        tokens = tokens[:at]
    else:
        noise = data.draw(st.sampled_from(NOISE))
        tokens = tokens[:at] + [noise] + tokens[at + (how == "replace"):]
    # a space in every gap, so no two tokens run together into a new one
    s = _spaced(data.draw, tokens, least=" ")
    assert _outcome(parse, ctx, s) == _outcome(parse_reference, ctx, s)
