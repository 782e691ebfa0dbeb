"""Command-line behavior: rendered output, JSON determinism and schema,
exit codes, and the entry points, installed or run from a checkout."""

import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import random
import shlex
import shutil
import subprocess
import sys
from itertools import takewhile

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dopm
from dopm import cli, diffops, frobenius
from dopm.cli import main
from dopm.context import Context
from dopm.diffops import DiffOp
from dopm.dpalg import DPElem, gamma_dp
from dopm.expr import (MAX_BOX, MAX_DEGREE, MAX_ORDER, MAX_PAIRS,
                       render_op)
from dopm.frobenius import (FrobData, divided_frob_tau, random_strong_lifting,
                            standard_lifting)
from dopm.poly import Poly
from dopm.scalars import degree_box
from dopm.simpson import pmat_eye, pullback, random_higgs, worked_example
from dopm.suites import SUITES, SuiteCase, SuiteReport
from test_simpson import gauged

REPO = pathlib.Path(__file__).parents[1]
SCHEMA = json.loads((REPO / "docs" / "report_schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_higgs(tmp_path, ctx=None):
    path = tmp_path / "higgs.json"
    h = worked_example(ctx or Context(2, 0))
    path.write_text(json.dumps(h.to_json()))
    return str(path)


# -- rendered output ----------------------------------------------------------

def test_mul_example(capsys):
    code, out, _ = run(capsys, "mul", "d1", "t1")
    assert code == 0
    assert out == "t1*d1 + 1\n"


def test_phi_example(capsys):
    code, out, _ = run(capsys, "phi", "--p", "3", "--m", "0",
                       "--lift", "std", "d1")
    assert code == 0
    assert out == "-t1^2*d1<3>\n"


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", "--p", "5", "d1", "t1^2")
    assert code == 0
    assert out == "2*t1\n"


def test_phitilde_fixes_theta(capsys):
    # the twisted map is the identity on the center
    code, out, _ = run(capsys, "phitilde", "--p", "2", "--m", "0", "d1<2>")
    assert code == 0
    assert out == "d1<2>\n"


def test_bullet(capsys):
    # d acts on t^2 as (2 - t^2 theta) t at m = 0
    code, out, _ = run(capsys, "bullet", "--p", "3", "d1", "t1^2")
    assert code == 0
    assert out == "-t1^4*th1 - t1\n"
    code, out, _ = run(capsys, "bullet", "--p", "2", "d1", "t1^2")
    assert code == 0
    assert out == "t1^3*th1\n"


def test_kaneda_matrix_json(capsys):
    code, out, _ = run(capsys, "kaneda-matrix", "--p", "3", "--json", "d1")
    assert code == 0
    mat = json.loads(out)["matrix"]
    assert len(mat) == 3 and all(len(row) == 3 for row in mat)
    assert mat[1][0] == "1" and mat[2][1] == "1"
    assert mat[0][0] == "0"


def test_kaneda_matrix_too_large_exits_3(capsys, monkeypatch):
    # 3^12 = 531441 rows: refused before the basis is listed, while
    # 2^12 = 4096 rows, the largest size allowed, gets that far
    def no_basis(*args):
        raise AssertionError("the basis was listed")

    monkeypatch.setattr(diffops, "box", no_basis)
    code, out, err = run(capsys, "kaneda-matrix", "--p", "3", "--m", "3",
                         "--r", "3", "d1")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "531441" in err
    with pytest.raises(AssertionError, match="the basis was listed"):
        main(["kaneda-matrix", "--p", "2", "--m", "3", "--r", "3", "d1"])


def readme_examples():
    """(argv, printed text) of README's expression-command examples."""
    lines = (REPO / "README.md").read_text().splitlines()
    out = []
    for n, line in enumerate(lines):
        if line.startswith("$ dopm ") and not line.endswith(".json"):
            argv = shlex.split(line[2:].split("#")[0])[1:]
            printed = takewhile(lambda s: s and not s.startswith("```"),
                                lines[n + 1:])
            out.append((argv, "".join(s + "\n" for s in printed)))
    return out


def test_readme_examples_print_what_readme_says(capsys):
    examples = readme_examples()
    assert len(examples) >= 7
    for argv, printed in examples:
        assert run(capsys, *argv) == (0, printed, ""), argv


@pytest.mark.parametrize("power, product", [
    ("d1^2", "(d1)^2"), ("d1^2", "d1*d1"), ("d1<2>^3", "(d1<2>)^3"),
    ("t1*d1<4>^2*t1", "t1*(d1<4>)^2*t1"), ("d1^0", "1"),
])
def test_a_power_of_a_d_atom_is_the_ring_power(capsys, power, product):
    for fmt in ((), ("--json",)):
        want = run(capsys, "mul", "--p", "3", "--m", "1", *fmt, product)
        assert want[0] == 0
        assert run(capsys, "mul", "--p", "3", "--m", "1", *fmt,
                   power) == want


@pytest.mark.parametrize("expr, message", [
    ("d1 t1", "unexpected 't1' at token 1: products need '*'"),
    ("(t1 + 1) d1<2>", "unexpected 'd1' at token 5: products need '*'"),
    ("t1^2^3", "unexpected '^' at token 3: '^' takes one exponent, "
               "after tI, dI, dI<k> or ')'"),
    ("d1)", "unexpected ')' at token 1: it closes no '('"),
])
def test_leftover_input_exits_2_naming_the_rule(capsys, expr, message):
    assert run(capsys, "mul", expr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("space", [" ", "\n", "  \t"])
def test_trailing_whitespace_is_accepted(capsys, space):
    want = run(capsys, "mul", "--p", "3", "--m", "0", "t1", "d1")
    assert want == (0, "t1*d1\n", "")
    assert run(capsys, "mul", "--p", "3", "--m", "0", "t1" + space,
               "d1" + space) == want


HUGE_ORDER = "d1<99999999999999999999>"


@pytest.mark.parametrize("argv", [
    ["mul", HUGE_ORDER, "d1"],
    ["apply", HUGE_ORDER, "t1"],
    ["kaneda-matrix", HUGE_ORDER],
], ids=["mul", "apply", "kaneda-matrix"])
def test_an_order_above_the_cap_exits_2(argv):
    # factorial(k) of such an order overflows: refused before any arithmetic
    cmd, *exprs = argv
    res = subprocess.run([sys.executable, "-m", "dopm.cli", cmd, "--p", "3",
                          "--m", "0", *exprs],
                         capture_output=True, text=True, env=child_env())
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: order of {HUGE_ORDER!r} is above the " \
                         f"cap {MAX_ORDER}\n"


def test_readme_states_the_order_cap():
    text = " ".join((REPO / "README.md").read_text().split())
    assert f"order `<k>` above {MAX_ORDER} is refused with exit 2" in text
    assert f"order above {MAX_ORDER} or total degree in `t` above " \
           f"{MAX_DEGREE}" in text
    assert f"index box `prod_i (n*ord_i(x) + 1)` passes {MAX_BOX}" in text
    assert f"squarings multiply more than {MAX_PAIRS} term pairs" in text


@pytest.mark.parametrize("expr, message", [
    ("d1^1000000", f"power '^1000000' reaches order 1000000 and degree 0; "
                   f"the caps are {MAX_ORDER} and {MAX_DEGREE}"),
    ("7" * 5000 + "*t1", "integer of 5000 digits is too long"),
], ids=["huge-power", "huge-integer"])
def test_huge_input_exits_2_before_any_product(expr, message):
    # refused while parsing: the million-fold product would not end, and
    # int() of 5000 digits raises a ValueError that would exit 3
    res = subprocess.run([sys.executable, "-m", "dopm.cli", "mul", "--p",
                          "3", "--m", "0", expr, "d1"],
                         capture_output=True, text=True, env=child_env(),
                         timeout=30)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {message}\n"


def test_a_power_of_a_sum_past_the_box_cap_exits_2_quickly():
    # within the order and degree caps, but 2401^3 indices: it ran past
    # 30 s before the index box was capped
    res = subprocess.run([sys.executable, "-m", "dopm.cli", "mul", "--p",
                          "7", "--m", "0", "--r", "3", "(d1+d2+d3)^2400",
                          "1"], capture_output=True, text=True,
                         env=child_env(), timeout=30)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: power '^2400' spans an index box of " \
                         f"{2401**3} multi-indices; the cap is {MAX_BOX}\n"


def test_a_power_of_a_sum_past_the_pair_cap_exits_2_quickly():
    # within the order, degree and box caps, at one coordinate: its last
    # squaring would multiply 194481 term pairs of order about 4000, and
    # it ran past 60 s before the pairs were capped
    res = subprocess.run([sys.executable, "-m", "dopm.cli", "mul", "--p",
                          "7", "--m", "0", "(d1+d1<2>)^2000", "1"],
                         capture_output=True, text=True, env=child_env(),
                         timeout=30)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: power '^2000' multiplies at least 208373 " \
                         f"term pairs; the cap is {MAX_PAIRS}\n"


def test_phi_past_the_window_exits_3_at_once():
    # the commands' window guards cost: phi(d1<1000>) alone takes
    # seconds, and d1<4000> is far past the default window |n| <= 3 p at
    # p = 2
    res = subprocess.run([sys.executable, "-m", "dopm.cli", "phi", "--p", "2",
                          "d1<4000>"], capture_output=True, text=True,
                         env=child_env(), timeout=10)
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == "error: phi(d^<(4000,)>) is past the window " \
                         "|n| <= 6: it needs theta_trunc >= 2000\n"


# -- module files -------------------------------------------------------------

def test_pullback_and_curvature_files(capsys, tmp_path):
    higgs = write_higgs(tmp_path)
    code, out, _ = run(capsys, "pullback", "--json", higgs)
    assert code == 0
    dm = json.loads(out)
    assert dm["rank"] == 2 and "generators" in dm

    dmfile = tmp_path / "dm.json"
    dmfile.write_text(out)
    code, out, _ = run(capsys, "curvature", "--json", str(dmfile))
    assert code == 0
    theta, = json.loads(out)["theta"]
    assert theta == [["0", "1"], ["0", "0"]]

    # the Higgs route gives the same curvature
    code, out2, _ = run(capsys, "curvature", "--json", higgs)
    assert code == 0 and json.loads(out2)["theta"] == [theta]


# each field has A_j^p != 0 (rank above p), so G_i^p is not zero either
@pytest.mark.parametrize("pmr, rank, seed, lift_seed", [
    ((2, 0, 1), 3, 7, None), ((3, 1, 2), 4, 0, None), ((2, 1, 2), 3, 7, 4)],
    ids=["p2m0r1", "p3m1r2", "p2m1r2-lifted"])
def test_curvature_of_a_higgs_file_is_that_of_its_pullback_file(
        capsys, tmp_path, pmr, rank, seed, lift_seed):
    # the Higgs file's pullback stores its curvature in closed form; the
    # D-module file it writes has only generators, so its curvature takes
    # the Leibniz path: both must print the same bytes
    ctx = Context(*pmr)
    higgs = tmp_path / "higgs.json"
    higgs.write_text(json.dumps(random_higgs(
        ctx, random.Random(seed), rank, linear=True).to_json()))
    lift = ["--lift", write_lifting(tmp_path, random_strong_lifting(
        ctx, random.Random(lift_seed), deg=2))] if lift_seed else []
    code, out, err = run(capsys, "pullback", "--json", str(higgs), *lift)
    assert (code, err) == (0, "")
    dmfile = tmp_path / "dm.json"
    dmfile.write_text(out)
    for flags in ([], ["--json"]):
        got = [run(capsys, "curvature", *flags, str(path), *lift)
               for path in (higgs, dmfile)]
        assert got[0] == got[1]
        code, out, err = got[0]
        assert (code, err) == (0, "") and out.startswith(("Theta_1", "{"))


def test_invariants_file(capsys, tmp_path):
    higgs = write_higgs(tmp_path)
    code, out, _ = run(capsys, "invariants", "--json", higgs)
    assert code == 0
    obj = json.loads(out)
    assert obj["deg_bound"] == 6 and obj["dim"] == 8 and obj["rank"] == 2
    assert len(obj["sections"]) == 8


def test_roundtrip_file(capsys, tmp_path):
    higgs = write_higgs(tmp_path)
    code, out, _ = run(capsys, "roundtrip", "--json", higgs)
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["rank"] == obj["rank_expected"] == 2
    assert obj["recovered_exact"]
    assert obj["recovered"][0][0][1] == "1"

    code, out, _ = run(capsys, "roundtrip", higgs)
    assert code == 0 and "round trip ok" in out


@pytest.mark.parametrize("cmd, head", [
    ("invariants", "degree bound 0: dim 2, rank 2\n1*e1\n1*e2\n"),
    ("roundtrip", "degree bound 0: dim 2, rank 2 (expected 2)\n")],
    ids=["invariants", "roundtrip"])
def test_deg_bound_zero_solves_at_degree_zero(capsys, tmp_path, cmd, head):
    # 0 is a bound like any other, not a stand-in for the default
    code, out, err = run(capsys, cmd, "--deg-bound", "0",
                         write_higgs(tmp_path))
    assert (code, err) == (0, "") and out.startswith(head)


def test_a_composite_coefficient_is_parenthesized(capsys, tmp_path):
    # the gauge S = I + (t1^2 + 2 t1) E_12 puts a two-term coefficient in
    # an invariant section
    ctx = Context(3, 0)
    dm = pullback(FrobData.standard(ctx),
                  random_higgs(ctx, random.Random(0), 2))
    f = Poly({(2,): 1, (1,): 2}, 1, 3)
    s, s_inv = pmat_eye(2, 1, 3), pmat_eye(2, 1, 3)
    s[0][1], s_inv[0][1] = f, -f
    path = tmp_path / "gauged.json"
    path.write_text(json.dumps(gauged(dm, s, s_inv).to_json()))
    sections = ["1*e1", "(t1^2 - t1)*e1 + 1*e2", "t1^3*e1",
                "(t1^5 - t1^4)*e1 + t1^3*e2", "t1^6*e1",
                "(t1^8 - t1^7)*e1 + t1^6*e2", "t1^9*e1"]
    code, out, err = run(capsys, "invariants", str(path))
    assert (code, err) == (0, "")
    assert out == "degree bound 9: dim 7, rank 2\n" + \
        "\n".join(sections) + "\n"
    code, out, err = run(capsys, "invariants", "--json", str(path))
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == \
        "329082c06c3eca80bed2abf6c9ca102e"
    assert json.loads(out) == {"deg_bound": 9, "dim": 7, "rank": 2,
                               "sections": sections}


# -- verify -------------------------------------------------------------------

def test_verify_json_is_deterministic_and_valid(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--suite", "lucas", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])
    jsonschema.validate(rep, SCHEMA)
    assert rep["suite"] == "lucas" and rep["ok"] and rep["wall_ms"] == 0
    assert rep["failed"] == 0 and rep["passed"] == len(rep["cases"])


def test_verify_all_aggregate_schema(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--json",
                       "--p", "2", "--m", "0")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    assert obj["ok"] and len(obj["reports"]) == 12
    names = [r["suite"] for r in obj["reports"]]
    assert len(set(names)) == 12


def test_verify_narrowing_drops_cases(capsys):
    _, full, _ = run(capsys, "verify", "--suite", "lucas", "--json")
    _, part, _ = run(capsys, "verify", "--suite", "lucas", "--json",
                     "--p", "3")
    nfull = len(json.loads(full)["cases"])
    npart = len(json.loads(part)["cases"])
    assert 0 < npart < nfull


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lucas")
    assert code == 0
    assert out.startswith("lucas") and "ok" in out and "FAIL" not in out


def test_verify_reports_failures_with_exit_1(capsys, monkeypatch):
    # exercise the failure path of the reporting plumbing itself
    def broken(name, seed, only=None):
        rep = SuiteReport("lucas", "p in {2}")
        rep.cases.append(SuiteCase("forced", "fail", "0", "1"))
        return rep

    monkeypatch.setattr("dopm.cli.run_suite", broken)
    code, out, _ = run(capsys, "verify", "--suite", "lucas")
    assert code == 1
    assert "FAIL forced" in out and "expected: 0" in out

    code, out, _ = run(capsys, "verify", "--suite", "lucas", "--json")
    assert code == 1
    rep = json.loads(out)
    jsonschema.validate(rep, SCHEMA)
    assert not rep["ok"] and rep["failed"] == 1


@pytest.mark.parametrize("flags", [("--p", "11"), ("--m", "4"), ("--m", "-1"),
                                   ("--p", "4", "--suite", "lucas")])
def test_verify_refuses_unsupported_parameters(capsys, flags):
    code, out, err = run(capsys, "verify", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# the positional arguments of each command, and the flags beyond
# --p/--m/--json each one reads: --r everywhere but in verify, which
# narrows its suites by p and m alone, --theta-trunc only where phi is,
# and --deg-bound only where the invariants are solved
COMMAND_ARGS = {"mul": ("d1",), "apply": ("d1", "t1"), "phi": ("d1",),
                "phitilde": ("d1",), "bullet": ("d1", "t1"),
                "kaneda-matrix": ("d1",), "curvature": ("m.json",),
                "pullback": ("m.json",), "invariants": ("m.json",),
                "roundtrip": ("m.json",), "verify": ()}
COMMAND_FLAGS = {
    **{cmd: {"--r", "--lift"} for cmd in ("mul", "apply", "kaneda-matrix",
                                          "curvature", "pullback")},
    **{cmd: {"--r", "--lift", "--theta-trunc"}
       for cmd in ("phi", "phitilde", "bullet")},
    **{cmd: {"--r", "--lift", "--deg-bound"}
       for cmd in ("invariants", "roundtrip")},
    "verify": {"--suite", "--seed"}}
UNREAD_FLAGS = [(cmd, flag) for cmd in COMMAND_ARGS if cmd != "verify"
                for flag in ("--tau-trunc", "--theta-trunc", "--deg-bound")
                if flag not in COMMAND_FLAGS[cmd]]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "lucas", "--lift", "/no/such/file.json",
     "--deg-bound", "5"),
    ("verify", "--lift", "std"),
    ("verify", "--tau-trunc", "9"),
    ("verify", "--theta-trunc", "2"),
    ("mul", "--seed", "3", "d1"),
    ("verify", "--suite", "nosuch"),
    ("mul", "--p", "x", "d1"),
    *[(cmd, flag, "9", *COMMAND_ARGS[cmd]) for cmd, flag in UNREAD_FLAGS],
    ("verify", "--suite", "lucas", "--r", "2"),
], ids=["verify-lift-deg-bound", "verify-lift", "verify-tau-trunc",
        "verify-theta-trunc", "mul-seed", "unknown-suite", "non-integer-p",
        *[cmd + flag[1:] for cmd, flag in UNREAD_FLAGS], "verify-r"])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    # each command takes only the flags it reads; a flag error is one line
    # that names the flag
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert [a for a in argv if a.startswith("--")][-1] in err


@pytest.mark.parametrize("cmd", COMMAND_ARGS)
def test_each_command_registers_the_flags_it_reads(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    flags = {word.strip("[],") for word in out.split()
             if word.strip("[],").startswith("--")}
    assert flags == {"--help", "--p", "--m", "--json"} | COMMAND_FLAGS[cmd]


def test_verify_accepts_supported_parameters_off_the_grid(capsys):
    # lucas runs p in {2, 3, 5}: p = 7 is supported, so no case is an error
    code, out, err = run(capsys, "verify", "--p", "7", "--suite", "lucas")
    assert (code, err) == (0, "")
    assert out.startswith("lucas") and " 0 passed" in out


# -- exit codes for bad input -------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (("mul", "x1"), ""),
    (("mul", "d1<"), ""),
    (("apply", "d1", "d1"), ""),           # function slot holds an operator
    (("mul", "--p", "11", "d1"), ""),      # unsupported prime
    (("mul", "--p", "2", "--m", "9", "d1"), ""),
    (("curvature", "/no/such/file.json"), ""),
    (("phi", "--theta-trunc", "0", "d1"), "theta_trunc must be positive"),
    (("phitilde", "--theta-trunc", "0", "d1"), "theta_trunc must be positive"),
    (("bullet", "--theta-trunc", "0", "d1", "t1"),
     "theta_trunc must be positive"),
    (("phi", "--lift", "LIFT", "--theta-trunc", "0", "d1"),
     "theta_trunc must be positive"),
    (("phitilde", "--lift", "LIFT", "--theta-trunc", "0", "d1"),
     "theta_trunc must be positive"),
    (("bullet", "--lift", "LIFT", "--theta-trunc", "0", "d1", "t1"),
     "theta_trunc must be positive"),
    (("invariants", "--deg-bound", "-1", "HIGGS"), "deg_bound must be >= 0"),
    (("pullback", "DMODULE"), "pullback needs a Higgs file"),
    (("mul", "--r", "4", "d1"), "r=4 out of range 1..3"),
], ids=[*[f"argv{i}" for i in range(6)], "theta-trunc-0",
        "phitilde-theta-trunc-0", "bullet-theta-trunc-0",
        "lifted-theta-trunc-0", "lifted-phitilde-theta-trunc-0",
        "lifted-bullet-theta-trunc-0",
        "negative-deg-bound", "pullback-of-a-d-module", "r-out-of-range"])
def test_malformed_input_exits_2(capsys, tmp_path, argv, message):
    # HIGGS, DMODULE and LIFT stand for valid files of each kind
    files = {"HIGGS": write_higgs(tmp_path), "DMODULE": tmp_path / "dm.json",
             "LIFT": write_lifting(tmp_path, deviated_lifting(
                 Context(2, 0), "malformed input"))}
    files["DMODULE"].write_text(json.dumps(_fuzz_dmodule()))
    code, _, err = run(capsys, *[str(files.get(a, a)) for a in argv])
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


JORDAN_ROW = [[], [[[0], 1]]]


@pytest.mark.parametrize("command, module", [
    # exponent [0, 0] with r = 1
    ("roundtrip", {"p": 2, "m": 0, "r": 1, "rank": 2,
                   "matrices": [[[[], [[[0, 0], 1]]], [[], []]]]}),
    # r = 2 with one matrix (its exponents of length 2, so that the
    # count is what is refused)
    ("roundtrip", {"p": 2, "m": 0, "r": 2, "rank": 2,
                   "matrices": [[[[], [[[0, 0], 1]]], [[], []]]]}),
    # ragged: the second row is short
    ("roundtrip", {"p": 2, "m": 0, "r": 1, "rank": 2,
                   "matrices": [[JORDAN_ROW, [[]]]]}),
    # rank key disagrees with the matrices
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 3,
                    "matrices": [[JORDAN_ROW, [[], []]]]}),
    # a bool or float rank, even one equal to the matrix size
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": True,
                    "matrices": [[[[]]]]}),
    ("roundtrip", {"p": 2, "m": 0, "r": 1, "rank": 2.0,
                   "matrices": [[JORDAN_ROW, [[], []]]]}),
    # D-module at m = 1 without the generator (0, 1)
    ("invariants", {"p": 2, "m": 1, "r": 1, "rank": 1,
                    "generators": [[0, 0, [[[]]]]]}),
    # p, m, r that are not integers, or are bools
    ("roundtrip", {"p": 2.0, "m": 0, "r": 1, "rank": 2,
                   "matrices": [[JORDAN_ROW, [[], []]]]}),
    ("roundtrip", {"p": 2, "m": 0, "r": 1.0, "rank": 2,
                   "matrices": [[JORDAN_ROW, [[], []]]]}),
    ("roundtrip", {"p": 2, "m": True, "r": 1, "rank": 2,
                   "matrices": [[JORDAN_ROW, [[], []]]]}),
    ("curvature", {"p": 2, "m": 1.0, "r": 1, "rank": 1,
                   "generators": [[0, 0, [[[]]]], [0, 1, [[[]]]]]}),
    # a D-module of rank 0, with no generators, or with one given twice
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 0,
                    "generators": [[0, 0, [[[]]]]]}),
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 2, "generators": {}}),
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 2,
                    "generators": [[0, 0, [[[], [[[1], 1]]], [[], []]]]] * 2}),
    # a matrix that is not a list of rows, a generator not [i, l, matrix]
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 2, "matrices": [5]}),
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 2, "generators": [[0]]}),
    # a generator of a level above m
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 2,
                    "generators": [[0, 1, [[[], [[[1], 1]]], [[], []]]]]}),
    # a Higgs file whose matrices are an object
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 2, "matrices": {}}),
], ids=["exponent-arity", "matrix-count", "ragged", "rank-key",
        "bool-rank", "float-rank", "missing-generator", "float-p", "float-r",
        "bool-m", "float-m-dmodule", "rank-zero", "generators-object",
        "generator-twice", "matrix-not-rows", "generator-shape",
        "generator-level", "matrices-object"])
def test_malformed_module_file_exits_2(capsys, tmp_path, command, module):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(module))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_flag_file_disagreement_exits_2(capsys, tmp_path):
    higgs = write_higgs(tmp_path)
    code, _, err = run(capsys, "curvature", "--p", "3", higgs)
    assert code == 2 and "disagrees" in err


def test_not_json_file_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all")
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 2 and "JSON" in err


def test_module_without_payload_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"p": 2, "m": 0, "r": 1, "rank": 1}))
    code, _, err = run(capsys, "curvature", str(path))
    assert code == 2 and "matrices" in err


def test_non_nilpotent_higgs_exits_3(capsys, tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({
        "p": 2, "m": 0, "r": 1, "rank": 1,
        "matrices": [[[[[[0], 1]]]]],
    }))
    code, _, err = run(capsys, "curvature", str(path))
    assert code == 3 and err.startswith("error:")


@pytest.mark.parametrize("matrix", [
    [[[[[0], 1]]]],                                  # a unit
    [[[], [[[0], 1]]], [[[[0], 1]], []]],            # A^2 = 1
    [[[], [[[0], 1]], []], [[], [], [[[0], 1]]],
     [[[[1], 1]], [], []]],                          # A^3 = t'
], ids=["unit", "involution", "cyclic-t'"])
def test_roundtrip_of_a_matrix_with_no_zero_power_exits_3(capsys, tmp_path,
                                                          matrix):
    path = tmp_path / "higgs.json"
    path.write_text(json.dumps({"p": 3, "m": 0, "r": 1, "rank": len(matrix),
                                "matrices": [matrix]}))
    code, out, err = run(capsys, "roundtrip", str(path))
    assert code == 3 and out == ""
    assert err == "error: Higgs matrix 0 is not nilpotent\n"


# rho(d) = 1 at p = 2, m = 1: d*d = 2 d^<2> = 0, but rho(d)^2 = 1
NOT_A_MODULE = {
    "p": 2, "m": 1, "r": 1, "rank": 1,
    "generators": [[0, 0, [[[[[0], 1]]]]], [0, 1, [[[]]]]],
}


def test_a_file_that_is_not_a_module_exits_3(capsys, tmp_path):
    path = tmp_path / "notmodule.json"
    path.write_text(json.dumps(NOT_A_MODULE))
    for command in ("invariants", "curvature"):
        code, out, err = run(capsys, command, str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: module action law fails")


# the pullback of A = [[1, 1], [1, 1]] at p = 2, m = 0, gauged by
# S = I + t1 E_12: a valid module whose Theta = S A S^-1 has odd exponents
GAUGED_PULLBACK = {
    "p": 2, "m": 0, "r": 1, "rank": 2,
    "generators": [[0, 0, [[[[[1], 1], [[2], 1]],
                            [[[0], 1], [[1], 1], [[3], 1]]],
                           [[[[1], 1]], [[[1], 1], [[2], 1]]]]]],
}


def test_curvature_off_o_x_prime_is_printed_over_t(capsys, tmp_path):
    path = tmp_path / "gauged.json"
    path.write_text(json.dumps(GAUGED_PULLBACK))
    code, out, err = run(capsys, "curvature", str(path))
    assert (code, err) == (0, "")
    assert out == "Theta_1:\nt1 + 1\tt1^2 + 1\n1\tt1 + 1\n"
    code, out, err = run(capsys, "curvature", "--json", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"theta": [[["t1 + 1", "t1^2 + 1"],
                                          ["1", "t1 + 1"]]]}


def test_weak_lifting_exits_3(capsys, tmp_path):
    # F = t^4 + 2t reduces to Frobenius^2 but is not strong at level 1
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({
        "p": 2, "m": 1, "r": 1,
        "lift": [[[[1], 2], [[4], 1]]],
    }))
    code, _, err = run(capsys, "phi", "--lift", str(path), "d1")
    assert code == 3 and err.startswith("error:")


def test_custom_lifting_file_works(capsys, tmp_path):
    # F = t^2 + 2t at (2, 0); any degree-one perturbation is allowed there
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({
        "p": 2, "m": 0, "r": 1,
        "lift": [[[[1], 2], [[2], 1]]],
    }))
    code, out, _ = run(capsys, "phi", "--lift", str(path), "d1")
    assert code == 0 and "d1<2>" in out


def lifting_commands(tmp_path, lift_path):
    """phi and mul read p, m, r from the lifting file; roundtrip from the
    module.  mul uses no lifting, but checks the file it is given."""
    return [("phi", "--lift", lift_path, "d1"),
            ("mul", "--lift", lift_path, "d1"),
            ("roundtrip", "--lift", lift_path,
             write_higgs(tmp_path, Context(3, 0)))]


@pytest.mark.parametrize("lift", [
    5,
    [5],
    [[[[3, 0], 1]]],
    [[[[-3], 1]]],
    [[[[3], "1"]]],
    [[[[3], 1.0]]],
    [[[[3], 1, 0]]],
    [[[[3], 1]], [[[3], 1]]],
    [],
], ids=["lift-not-a-list", "poly-not-a-list", "exponent-arity",
        "negative-exponent", "string-coefficient", "float-coefficient",
        "not-a-pair", "too-many-polys", "no-polys"])
def test_malformed_lifting_file_exits_2(capsys, tmp_path, lift):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({"p": 3, "m": 0, "r": 1, "lift": lift}))
    for argv in lifting_commands(tmp_path, str(path)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("data", [
    [3, 0, 1],
    {"p": "3", "m": 0, "r": 1, "lift": [[[[3], 1]]]},
    {"p": 3, "r": 1, "lift": [[[[3], 1]]]},
    {"p": 3, "m": 0, "r": 1},
], ids=["not-an-object", "string-p", "no-m", "no-lift"])
def test_lifting_file_of_the_wrong_kind_exits_2(capsys, tmp_path, data):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(data))
    for argv in lifting_commands(tmp_path, str(path)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1


def test_well_formed_non_lifting_still_exits_3(capsys, tmp_path):
    # t^2 is not t^3 mod 3: the file has the right shape, the data is wrong
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({"p": 3, "m": 0, "r": 1,
                                "lift": [[[[2], 1]]]}))
    for argv in lifting_commands(tmp_path, str(path)):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error:") and "not t1^3" in err


# -- mutated files ------------------------------------------------------------

# valid inputs at p = 2, m = 0: a Higgs file (r = 2), a D-module file and
# a lifting file for the Higgs file's parameters
FUZZ_HIGGS = {"p": 2, "m": 0, "r": 2, "rank": 2,
              "matrices": [[[[], [[[0, 0], 1]]], [[], []]],
                           [[[], [[[1, 0], 1]]], [[], []]]]}
FUZZ_LIFT = {"p": 2, "m": 0, "r": 2,
             "lift": [[[[2, 0], 1], [[1, 0], 2]], [[[0, 2], 1]]]}
JUNK = [None, True, False, -1, 0, 1, 2, 1.5, "1", [], {}, [[]], [0],
        [[0], 1], [[[0], 1]]]


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def mutated(draw, doc):
    """doc with one to three edits: a key or list entry dropped (ragged
    lists), a value replaced by junk, an int replaced by a bool, or a
    list entry repeated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        junk = copy.deepcopy(draw(st.sampled_from(JUNK)))
        if not path:
            doc = junk
            continue
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        key, value = path[-1], holder[path[-1]]
        edit = draw(st.sampled_from(["drop", "junk", "bool", "repeat"]))
        if edit == "drop":
            del holder[key]
        elif edit == "bool" and isinstance(value, int):
            holder[key] = bool(value)
        elif edit == "repeat" and isinstance(value, list) and value:
            value.append(copy.deepcopy(value[-1]))
        else:
            holder[key] = junk
    return doc


def _fuzz_dmodule():
    fd = FrobData.standard(Context(2, 0))
    return pullback(fd, worked_example(Context(2, 0))).to_json()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), which=st.sampled_from(["higgs", "dmodule", "lift"]))
def test_mutated_files_exit_cleanly(tmp_path_factory, data, which):
    # every exit is 0-3, and a refusal is one error line, not a traceback
    where = tmp_path_factory.mktemp("fuzz")
    docs = {"higgs": FUZZ_HIGGS, "dmodule": _fuzz_dmodule(),
            "lift": FUZZ_LIFT}
    files = {}
    for name, doc in docs.items():
        if name == which:
            doc = data.draw(mutated(doc), label=name)
        files[name] = where / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    module = files["dmodule" if which == "dmodule" else "higgs"]
    lift = ["--lift", str(files["lift"])] if which == "lift" else []
    for command, bound in (("invariants", ["--deg-bound", "2"]),
                           ("roundtrip", ["--deg-bound", "2"]),
                           ("curvature", [])):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *bound, *lift, str(module)])
        assert code in (0, 1, 2, 3)
        if code >= 2:
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1


# -- entry points -------------------------------------------------------------

# Loads a console-script target and calls it, as the wrapper that pip
# generates for `[project.scripts]` does.
ENTRY_POINT_LAUNCHER = (
    "import sys; from importlib.metadata import EntryPoint; "
    "sys.exit(EntryPoint('dopm', {target!r}, 'console_scripts').load()())")


def child_env():
    """Environment in which a child Python imports the same `dopm` source
    this suite imported, installed or run from a checkout."""
    env = dict(os.environ)
    src = str(pathlib.Path(dopm.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def console_script_target():
    """The `dopm` target declared under `[project.scripts]`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["dopm"]


def test_module_entry_point():
    res = subprocess.run([sys.executable, "-m", "dopm.cli", "mul", "d1", "t1"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0
    assert res.stdout == "t1*d1 + 1\n"


NUMPY_MA_PROBE = """
import contextlib, io, random, sys
from dopm.cli import main
from dopm.context import Context
from dopm.diffops import DiffOp
from dopm.dpalg import DPElem, gamma_dp
from dopm.expr import render_op
from dopm.frobenius import (FrobData, divided_frob_tau, random_strong_lifting,
                            standard_lifting)
from dopm.scalars import degree_box
from dopm.simpson import random_higgs, round_trip
ctx = Context(3, 1, 2)
higgs = random_higgs(ctx, random.Random(1), 2)
rep = round_trip(FrobData.standard(ctx), higgs)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--suite", "all"])
print(rep["rank"], code, "numpy.ma" in sys.modules)
"""


def test_round_trip_and_verify_leave_numpy_ma_unimported():
    # numpy.ma costs memory and import time, and nothing here needs it;
    # np.unique, for one, imports it
    res = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == "2 0 False\n"


def test_input_checks_hold_under_python_O(tmp_path):
    # python -O strips assert statements: a check on a file must not be one
    module = tmp_path / "module.json"       # r = 2 with one Higgs matrix
    module.write_text(json.dumps({
        "p": 2, "m": 0, "r": 2, "rank": 2,
        "matrices": [[[[], [[[0, 0], 1]]], [[], []]]]}))
    lift = tmp_path / "lift.json"           # an exponent of length 2 at r = 1
    lift.write_text(json.dumps({"p": 3, "m": 0, "r": 1,
                                "lift": [[[[3, 0], 1]]]}))
    notmodule = tmp_path / "notmodule.json"
    notmodule.write_text(json.dumps(NOT_A_MODULE))
    for argv, want in [(["roundtrip", str(module)], 2),
                       (["phi", "--lift", str(lift), "d1"], 2),
                       (["invariants", str(notmodule)], 3)]:
        res = subprocess.run([sys.executable, "-O", "-m", "dopm.cli", *argv],
                             capture_output=True, text=True, env=child_env())
        assert (res.returncode, res.stdout) == (want, ""), argv
        assert res.stderr.startswith("error:"), argv
        assert res.stderr.count("\n") == 1, argv


# a short output is written by the flush at exit, a long one (more than
# the 8 KiB buffer) by print itself; both must meet the closed pipe
BIG_POLY = " + ".join(f"t1^{i}" for i in range(1, 1500))


@pytest.mark.parametrize("argv", [["mul", "d1", "t1"], ["mul", BIG_POLY]],
                         ids=["flushed-at-exit", "written-by-print"])
def test_closed_stdout_exits_141_quietly(argv):
    # the reader is gone before dopm writes, as in `dopm ... | head -c 10`
    proc = subprocess.Popen([sys.executable, "-m", "dopm.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_console_script():
    args = ["verify", "--suite", "lucas", "--json"]
    exe = shutil.which("dopm")
    if exe:
        res = subprocess.run([exe, *args], capture_output=True, text=True)
    else:
        # uninstalled checkout: run the declared target instead
        launcher = ENTRY_POINT_LAUNCHER.format(target=console_script_target())
        res = subprocess.run([sys.executable, "-c", launcher, *args],
                             capture_output=True, text=True, env=child_env())
    assert res.returncode == 0
    assert json.loads(res.stdout)["ok"]


def test_import_dopm_leaves_the_suites_unloaded():
    # a fresh interpreter: `import dopm` compiles no suite, and the suite
    # names still import from the package, from `dopm.suites` itself
    code = ("import sys, dopm\n"
            "before = 'dopm.suites' in sys.modules\n"
            "from dopm import SUITES, SuiteCase, SuiteReport, run_suite\n"
            "suites = sys.modules['dopm.suites']\n"
            "print(before, run_suite is suites.run_suite,\n"
            "      SUITES is suites.SUITES, SuiteReport.__module__)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env(), timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "False True True dopm.suites\n"


def test_a_command_other_than_verify_leaves_the_suites_unloaded():
    # `dopm mul d1 t1` in a fresh interpreter: only verify imports suites
    code = ("import sys\n"
            "from dopm.cli import main\n"
            "code = main(['mul', 'd1', 't1'])\n"
            "print(code, 'dopm.suites' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env(), timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "t1*d1 + 1\n0 False\n"


def test_the_suite_choices_are_the_suites():
    assert cli.SUITE_NAMES == tuple(SUITES)


# -- byte stability -----------------------------------------------------------

# md5 of `dopm verify --suite all --json`.  A change meant to alter these
# bytes (new suites or cases) updates the pin and says so; a speed-up
# never does.
VERIFY_ALL_MD5 = "66bc0e47dc4aadbfce7be7c7df14e8d7"


def test_verify_all_json_bytes_are_pinned():
    res = subprocess.run([sys.executable, "-m", "dopm.cli", "verify",
                          "--suite", "all", "--json"],
                         capture_output=True, env=child_env())
    assert res.returncode == 0
    assert hashlib.md5(res.stdout).hexdigest() == VERIFY_ALL_MD5


# Narrowing by --p/--m picks configurations out of each suite's grid;
# the cases that survive, and their random draws, must not move.
@pytest.mark.parametrize("flags, digest", [
    (("--p", "3"), "657d5a411aa6d50dc210f228638ae8d0"),
    (("--m", "1", "--seed", "2"), "ffaa9f17e0f418e9189af89b7923ac00"),
    (("--p", "2", "--m", "0", "--seed", "5"),
     "43bd646d640004faefec620395d6c558"),
])
def test_narrowed_verify_json_bytes_are_pinned(flags, digest):
    res = subprocess.run([sys.executable, "-m", "dopm.cli", "verify",
                          "--suite", "all", "--json", *flags],
                         capture_output=True, env=child_env())
    assert res.returncode == 0
    assert hashlib.md5(res.stdout).hexdigest() == digest


# md5 of the text and then the --json output of each expression command
# on seeded operators: products with polynomial coefficients, constant
# coefficients, orders past p^(m+1) (the th shifts) and a power.  Taken
# before the Kaneda matrix and the product got their direct routes.
PIN_COMMANDS = ("mul", "apply", "kaneda-matrix", "phi", "phitilde")
EXPRESSION_PINS = {
    (2, 0, 1): ("74554feb7ef0544df7fa00da49a5b4db",
                "cfd03f4e2fc76b67d769ada153ed995f",
                "ab9ffe2a4a76aa70f6429109efe9885f",
                "5d9876024d4c75eb8d452263dd0e9e90",
                "a3197de544c810255c2445ba54e00e7b"),
    (3, 1, 1): ("943b31dff5d2a7aa2b72c822a907fc36",
                "dbcf499d1f263ceff3353f8c0fe62e10",
                "acafc8fec3f50846204d8b0a393d3473",
                "469575730de92c6145d7280d2e67cd9f",
                "37430c9e4ed669032c827e0d91b08e3c"),
    (7, 0, 1): ("f4c0425af08a8f9b3cb09a3bab8c3460",
                "cd39154d85d3c8d32535d871bb28156e",
                "e6b26614351b1684c89e3417009771d0",
                "bddf39aadf7c83eba534b874e7e5247c",
                "f31dd553e9878e7ddab7bb0a8a2444cc"),
    (5, 0, 2): ("a68130aba9876ab8f894642b374ed6a7",
                "d3f4dbc8d0d1af0aadabd20e06477c05",
                "6bc29b641dae450a4ab0b5ad11639149",
                "a2b2f597d4197858029def48b9e4b6da",
                "37fe34241e4563618e07d7a1ced6f1e5"),
    (2, 1, 2): ("67343f5d6b1b4bd6eb6c51e10fa00954",
                "c9ace5e867399a68a981e421f9296246",
                "ea0197ed00c469399989094525a7a060",
                "3d1eb5bf21f02b71debeb273cd788b07",
                "a609c353f166d5db5d97be71cc8385db"),
    (3, 0, 3): ("9347e1138213d4d4412183182c075d86",
                "5ff51696e497fdb5e4a3188be075af8e",
                "880a7e461fdff2c28521d6a33e8298b8",
                "bd33e6c915cd5912974f661e3a469be6",
                "63d529a91e138a1d5d5badd2b41a4408"),
}


def pin_inputs(p, m, r):
    """The seeded arguments of each expression command at (p, m, r)."""
    rng = random.Random(f"cli-pins/{p}/{m}/{r}")
    q = p ** (m + 1)

    def mono(top):
        return "*".join(f"t{i + 1}^{rng.randrange(top)}" for i in range(r))

    def dpart():
        # orders up to 3q // r: past q, within phi's default window 3q
        return "*".join(f"d{i + 1}<{rng.randrange(3 * q // r + 1)}>"
                        for i in range(r))

    def coeff():
        return f"({rng.randrange(1, p)}*{mono(q + 2)} + {mono(3)} - 1)"

    a = (f"{coeff()}*{dpart()} - {rng.randrange(1, p)}*{dpart()}"
         f" + {dpart()}*{mono(q)} + {mono(q)}")
    b = f"{coeff()}*{dpart()} + (d1 + t{r})^2 - 1"
    f = f"{coeff()} + {mono(2 * q)}"
    return {"mul": (a, b), "apply": (a, f), "kaneda-matrix": (a,),
            "phi": (a,), "phitilde": (b,)}


@pytest.mark.parametrize("pmr", list(EXPRESSION_PINS),
                         ids=lambda c: "p{}m{}r{}".format(*c))
@pytest.mark.parametrize("cmd", PIN_COMMANDS)
def test_expression_command_bytes_are_pinned(capsys, cmd, pmr):
    p, m, r = pmr
    args = pin_inputs(p, m, r)[cmd]
    digest = hashlib.md5()
    for fmt in ((), ("--json",)):
        code, out, err = run(capsys, cmd, "--p", str(p), "--m", str(m),
                             "--r", str(r), *fmt, *args)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == EXPRESSION_PINS[pmr][PIN_COMMANDS.index(cmd)]


# -- a lifting file holding the standard lifting --------------------------------

def write_lifting(tmp_path, lifting):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(lifting.to_json()))
    return str(path)


@pytest.mark.parametrize("pmr", [(3, 1, 1), (2, 0, 2)],
                         ids=lambda c: "p{}m{}r{}".format(*c))
@pytest.mark.parametrize("cmd", ["phi", "phitilde"])
def test_a_standard_lifting_file_prints_what_std_prints(capsys, tmp_path,
                                                        monkeypatch, cmd, pmr):
    # the closed form is chosen by the lifting, not by how it was named:
    # neither call Taylor-expands the lifting
    def no_taylor(*args):
        raise AssertionError("the standard lifting was Taylor-expanded")

    monkeypatch.setattr(frobenius, "taylor", no_taylor)
    p, m, r = pmr
    lift = write_lifting(tmp_path, standard_lifting(Context(*pmr)))
    args = pin_inputs(p, m, r)[cmd]
    for fmt in ((), ("--json",)):
        std = run(capsys, cmd, "--p", str(p), "--m", str(m), "--r", str(r),
                  "--lift", "std", *fmt, *args)
        assert std[0] == 0 and std[1]
        assert run(capsys, cmd, "--lift", lift, *fmt, *args) == std


def tower_phi(ctx, lifting, n) -> str:
    """phi(d^<n>) = sum_c [tau^{n}] prod_j gamma_{c_j}(w_j) d^<c q>,
    rendered, from the rational model `gamma_dp` and DPElem products."""
    ws = divided_frob_tau(ctx, lifting)
    terms = {}
    for c in degree_box(sum(n) // ctx.pm, ctx.r):
        prod = DPElem.basis(ctx, (0,) * ctx.r, ctx.p)
        for w, cj in zip(ws, c):
            prod = prod * gamma_dp(w, cj, top=sum(n))
        terms[tuple(ctx.pm1 * x for x in c)] = prod.coeffs.get(n)
    return render_op(DiffOp(ctx, terms))


@pytest.mark.parametrize("pmr, ns", [
    ((3, 1, 1), [(1,), (3,), (9,), (10,), (12,), (18,)]),
    ((2, 0, 2), [(1, 0), (0, 2), (1, 1), (2, 1), (3, 2)]),
], ids=["p3m1r1", "p2m0r2"])
def test_a_deviated_lifting_file_is_the_tower_oracle(capsys, tmp_path,
                                                     pmr, ns):
    ctx = Context(*pmr)
    lifting = random_strong_lifting(ctx, random.Random(str(pmr)), deg=2)
    assert any(lifting.deviation(j) for j in range(ctx.r))
    lift = write_lifting(tmp_path, lifting)
    for n in ns:
        dn = "*".join(f"d{j + 1}<{x}>" for j, x in enumerate(n) if x)
        code, out, err = run(capsys, "phi", "--lift", lift, dn)
        assert (code, err) == (0, "")
        assert out == tower_phi(ctx, lifting, n) + "\n"


def deviated_lifting(ctx, seed):
    """A random strong lifting of degree 2 with a nonzero deviation."""
    rng = random.Random(seed)
    while True:
        lifting = random_strong_lifting(ctx, rng, deg=2)
        if not FrobData(ctx, lifting).is_standard:
            return lifting


# md5 of the text and then the --json output of phi and bullet, under the
# standard lifting or a deviated one, at orders past the default window
# 3q: `--theta-trunc ceil(T/q)` prints what `--tau-trunc T` printed when
# the window had two knobs, q = p^(m+1)
WINDOW_PINS = {
    ("phi", (2, 0, 1), False, 100, ("d1<100>",)):
        "4c4325745375cf6a468f90c74f12c9fe",
    ("bullet", (3, 1, 1), False, 40, ("d1<40>", "t1^5")):
        "d4ec03f7d5c3ed7e2895cd7a7f570ae9",
    ("phi", (2, 0, 2), True, 7, ("d1<4>*d2<3>",)):
        "1862ceadfc6caa3046611461c5ffa6b6",
    ("phi", (3, 0, 3), True, 12, ("d1<12>",)):
        "5b02955f9a08e29aa825cb3a926057c3",
    ("phi", (7, 3, 1), False, 8232, ("d1<8232>",)):
        "68a878b50b8b0dfdb46b037fe0f4777c",
    ("phi", (2, 0, 3), False, 7, ("d1<3>*d2<2>*d3<2>",)):
        "822b675d81b085868a9391ed40bd5d0b",
    ("bullet", (2, 0, 3), True, 7, ("d1<2>*d2<2>*d3<3>", "t1*t3")):
        "c85bf484d0b73872a619ac2e4003f442",
    ("phi", (5, 0, 2), False, 20, ("d1<10>*d2<10>",)):
        "cc0c509afa2fc24d21bf91108741b99f",
    ("bullet", (2, 1, 1), True, 20, ("d1<20>", "t1")):
        "81e5b3515349ccdd44d2293e1e0a6fe2",
    ("phi", (2, 2, 1), False, 41, ("d1<40> + t1*d1<32>",)):
        "9baffc51257e55ecc6784f0a6f422a1e",
    ("phi", (3, 0, 1), True, 20, ("d1<20>",)):
        "6718131d543499eb0f7645fd7f65bdaf",
}


@pytest.mark.parametrize("case", WINDOW_PINS, ids=lambda c: "{}-p{}m{}r{}{}"
                         .format(c[0], *c[1], "-lifted" if c[2] else ""))
def test_the_window_prints_the_pinned_bytes(capsys, tmp_path, case):
    cmd, (p, m, r), lifted, top, args = case
    flags = ["--p", str(p), "--m", str(m), "--r", str(r)]
    if lifted:
        flags += ["--lift", write_lifting(tmp_path, deviated_lifting(
            Context(p, m, r), f"window {p} {m} {r}"))]
    window = ["--theta-trunc", str(-(-top // p ** (m + 1)))]
    digest = hashlib.md5()
    for fmt in ((), ("--json",)):
        code, out, err = run(capsys, cmd, *flags, *window, *fmt, *args)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == WINDOW_PINS[case]
    # the default window refuses the same order
    code, out, err = run(capsys, cmd, *flags, *args)
    assert (code, out) == (3, "") and "theta_trunc" in err
    assert err.count("\n") == 1


def test_phitilde_inside_the_window_fixes_the_center(capsys, tmp_path):
    # d1<27> = theta_1^9 at p = 3, m = 0 under a random lifting of degree 4:
    # refused in the default window, the identity in the window 9
    ctx = Context(3, 0, 3)
    lift = write_lifting(tmp_path, random_strong_lifting(
        ctx, random.Random(str((3, 0, 3)))))
    argv = ["phitilde", "--p", "3", "--m", "0", "--r", "3", "--lift", lift]
    assert run(capsys, *argv, "d1<27>") == (
        3, "", "error: phi(d^<(27, 0, 0)>) is past the window |n| <= 9: "
               "it needs theta_trunc >= 9\n")
    assert run(capsys, *argv, "--theta-trunc", "9", "d1<27>") == \
        (0, "d1<27>\n", "")


def test_the_window_refuses_below_it_under_a_deviated_lifting(capsys,
                                                              tmp_path):
    # phi(d^<(0, 2, 2)>) has a term at theta-degree 1 under this lifting
    # (`test_a_deviated_image_past_the_window_reaches_theta_degree_1`), but
    # the window reads |n| alone, so T = 1 refuses it
    ctx = Context(3, 0, 3)
    lift = write_lifting(tmp_path, random_strong_lifting(ctx,
                                                         random.Random(0)))
    assert run(capsys, "phi", "--p", "3", "--r", "3", "--lift", lift,
               "--theta-trunc", "1", "d2<2>*d3<2>") == (
        3, "", "error: phi(d^<(0, 2, 2)>) is past the window |n| <= 3: "
               "it needs theta_trunc >= 2\n")


def test_bullet_refuses_an_operator_past_the_window_on_zero(capsys):
    # the window reads the operator, not the function it acts on
    code, out, err = run(capsys, "bullet", "d1<7>", "0")
    assert (code, out) == (3, "")
    assert err == "error: phi(d^<(7,)>) is past the window |n| <= 6: " \
                  "it needs theta_trunc >= 4\n"

