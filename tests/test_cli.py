"""Command-line behavior: rendered output, JSON determinism and schema,
exit codes, and the entry points, installed or run from a checkout."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import jsonschema
import pytest

import dopm
from dopm.cli import main
from dopm.context import Context
from dopm.simpson import worked_example
from dopm.suites import SuiteCase, SuiteReport

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


# -- exit codes for bad input -------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("mul", "x1"),
    ("mul", "d1<"),
    ("apply", "d1", "d1"),           # function slot holds an operator
    ("mul", "--p", "11", "d1"),      # unsupported prime
    ("mul", "--p", "2", "--m", "9", "d1"),
    ("curvature", "/no/such/file.json"),
])
def test_malformed_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


JORDAN_ROW = [[], [[[0], 1]]]


@pytest.mark.parametrize("command, module", [
    # exponent [0, 0] with r = 1
    ("roundtrip", {"p": 2, "m": 0, "r": 1, "rank": 2,
                   "matrices": [[[[], [[[0, 0], 1]]], [[], []]]]}),
    # r = 2 with one matrix
    ("roundtrip", {"p": 2, "m": 0, "r": 2, "rank": 2,
                   "matrices": [[JORDAN_ROW, [[], []]]]}),
    # ragged: the second row is short
    ("roundtrip", {"p": 2, "m": 0, "r": 1, "rank": 2,
                   "matrices": [[JORDAN_ROW, [[]]]]}),
    # rank key disagrees with the matrices
    ("invariants", {"p": 2, "m": 0, "r": 1, "rank": 3,
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
], ids=["exponent-arity", "matrix-count", "ragged", "rank-key",
        "missing-generator", "float-p", "float-r", "bool-m",
        "float-m-dmodule"])
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
    """phi reads p, m, r from the lifting file; roundtrip from the module."""
    return [("phi", "--lift", lift_path, "d1"),
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
], ids=["not-an-object", "string-p", "no-m"])
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
