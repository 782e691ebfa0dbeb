"""Context parameters: integers only, in the supported range."""

import dataclasses

import pytest

from dopm.context import Context


@pytest.mark.parametrize("kw", [
    {"p": 2.0, "m": 0}, {"p": 2, "m": True}, {"p": 2, "m": 0, "r": 1.0},
    {"p": 3, "m": 0, "theta_trunc": 9.0},
    {"p": 3, "m": 0, "theta_trunc": True},
    {"p": 3, "m": 0, "deg_bound": "6"},
], ids=["float-p", "bool-m", "float-r", "float-theta", "bool-theta",
        "str-deg-bound"])
def test_non_integer_parameters_are_refused(kw):
    with pytest.raises(ValueError, match="is not an integer"):
        Context(**kw)


def test_defaults_and_levels():
    ctx = Context(3, 1, r=2, theta_trunc=2, deg_bound=5)
    down = ctx.at_level(0)
    assert (down.m, down.r, down.theta_trunc, down.deg_bound) == (0, 2, 2, 5)
    # theta_trunc is the one Frobenius window
    assert [f.name for f in dataclasses.fields(Context)] == \
        ["p", "m", "r", "theta_trunc", "deg_bound"]
