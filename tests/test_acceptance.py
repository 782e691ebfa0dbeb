"""Runs each verification suite end to end on its default grid.

Every comparison inside a suite is exact (mod p or mod p^2); one failed
case fails the whole suite, and the failure message lists the offending
cases with expected/actual values.  Three suites carry wall budgets.
"""

import time

import pytest

from dopm.suites import SUITES, _liftings, run_suite


def check(name, budget_s=None):
    t0 = time.perf_counter()
    rep = run_suite(name, seed=0)
    wall = time.perf_counter() - t0
    assert rep.cases, f"{name}: no cases ran"
    bad = [c for c in rep.cases if c.status == "fail"]
    detail = "\n".join(f"  {c.name}: expected {c.expected}, got {c.actual}"
                       for c in bad[:10])
    assert rep.ok, f"{name}: {len(bad)} of {len(rep.cases)} failed\n{detail}"
    if budget_s is not None:
        assert wall < budget_s, f"{name}: {wall:.1f}s over budget {budget_s}s"


def test_suite_registry_is_complete():
    assert sorted(SUITES) == sorted([
        "lucas", "compd", "ringlaws", "kaneda", "phi", "phibar", "bullet",
        "vanderput", "glue", "descent", "simpson", "ov-compare"])


def test_binomial_digit_congruences():
    check("lucas", budget_s=1.0)


def test_operator_composition_against_closed_forms():
    check("compd")


def test_ring_axioms_on_random_operators():
    check("ringlaws", budget_s=60.0)


def test_block_matrix_form_over_the_center():
    check("kaneda")


def test_divided_frobenius_images():
    check("phi")


@pytest.mark.parametrize("seed", range(4))
def test_the_suites_liftings_are_all_deviated(seed):
    # the phi, phibar and bullet suites check ten deviated liftings, not
    # the standard closed form again
    fds = [fd for _, fd in _liftings(seed, None)]
    assert len(fds) == 10
    assert not any(fd.is_standard for fd in fds)


def test_center_automorphism_and_its_inverse():
    check("phibar")


def test_split_module_action():
    check("bullet")


def test_derivation_series_expansion():
    check("vanderput")


def test_lifting_change_cocycle():
    check("glue")


def test_level_change_round_trips():
    check("descent")


def test_higgs_module_correspondence():
    check("simpson", budget_s=180.0)


def test_splitting_matrix_comparison():
    check("ov-compare")
