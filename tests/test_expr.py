"""Expression grammar: parse/render round trips and error reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopm.context import Context
from dopm.diffops import DiffOp
from dopm.expr import ExprError, parse, render_matrix, render_op, render_poly
from dopm.poly import Poly


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
