"""Context parameters: the ring (p, m, r), integers only, in the supported
range."""

import dataclasses

import pytest

from dopm.context import Context
from dopm.diffops import DiffOp, frob_descend, frob_raise


@pytest.mark.parametrize("kw", [
    {"p": 2.0, "m": 0}, {"p": 2, "m": True}, {"p": 2, "m": 0, "r": 1.0},
], ids=["float-p", "bool-m", "float-r"])
def test_non_integer_parameters_are_refused(kw):
    with pytest.raises(ValueError, match="is not an integer"):
        Context(**kw)


def test_defaults_and_levels():
    # r defaults to 1, and the level maps land on the ring one level
    # down and one level up
    assert Context(3, 1) == Context(3, 1, 1)
    op = DiffOp.dpartial(Context(3, 1, r=2), (3, 0))
    assert frob_descend(op).ctx == Context(3, 0, 2)
    assert frob_raise(op).ctx == Context(3, 2, 2)


def test_the_ring_is_p_m_r():
    # the degree bound of a solve and the theta-degree cut of phitilde are
    # arguments of the calls that read them, so two contexts of one ring
    # are equal; the default cut is a constant, not a field
    assert [f.name for f in dataclasses.fields(Context)] == ["p", "m", "r"]
    assert Context(2, 0, 1).theta_trunc == 3
    with pytest.raises(TypeError):
        Context(2, 0, 1, theta_trunc=5)
