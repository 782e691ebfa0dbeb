"""Context parameters: integers only, in the supported range."""

import dataclasses

import pytest

from dopm.context import Context


@pytest.mark.parametrize("kw", [
    {"p": 2.0, "m": 0}, {"p": 2, "m": True}, {"p": 2, "m": 0, "r": 1.0},
    {"p": 3, "m": 0, "theta_trunc": 9.0},
    {"p": 3, "m": 0, "theta_trunc": True},
], ids=["float-p", "bool-m", "float-r", "float-theta", "bool-theta"])
def test_non_integer_parameters_are_refused(kw):
    with pytest.raises(ValueError, match="is not an integer"):
        Context(**kw)


def test_defaults_and_levels():
    ctx = Context(3, 1, r=2, theta_trunc=2)
    down = ctx.at_level(0)
    assert (down.m, down.r, down.theta_trunc) == (0, 2, 2)
    # theta_trunc is the one Frobenius window; the degree bound of a solve
    # is an argument of the solve, so two contexts of one ring are equal
    assert [f.name for f in dataclasses.fields(Context)] == \
        ["p", "m", "r", "theta_trunc"]
