"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest -q bench

Each oracle must report a planted wrong output, one value changed, as a
failure; the references must reproduce the README's worked outputs; the
short mode must run clean; traced counts must repeat exactly; and the
benchmark must refuse to report from a directory without the program.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles as ref  # noqa: E402
import workloads  # noqa: E402


def _bump(f: dict, nvars: int) -> dict:
    """Change one coefficient (or add a constant term to zero)."""
    f = dict(f)
    e = min(f) if f else (0,) * nvars
    f[e] = f.get(e, 0) + 1
    return f


def _bump_op(op: dict) -> dict:
    op = dict(op)
    k = min(op)
    op[k] = _bump(op[k], len(k))
    return op


def _break_window(solve):
    """Put a stray 1 into the basis row that holds the constant e_1, at
    the coordinate of t_1 e_1, which is not invariant."""
    mons, basis, bound = solve
    basis = basis.copy()
    r = len(mons[0][1])
    row = int(np.nonzero(basis[:, mons.index((0, (0,) * r))])[0][0])
    basis[row, mons.index((0, (1,) + (0,) * (r - 1)))] += 1
    return mons, basis, bound


def _plant_frame(out):
    mat = out["recovered"][0]
    row = next(i for i, r in enumerate(mat) if any(r))
    col = next(j for j, f in enumerate(mat[row]) if f)
    mat[row][col] = _bump(mat[row][col], 0)
    return out


def _plant_solve(index):
    def plant(out):
        out["solves"][index] = _break_window(out["solves"][index])
        return out
    return plant


def _plant_key(key):
    def plant(out):
        out[key] = _bump_op(out[key]) if key == "op" else \
            _bump(out[key], len(next(iter(out[key]))))
        return out
    return plant


def _plant_matrix(out):
    out["mat"][0][0] = _bump(out["mat"][0][0], len(next(
        e for row in out["mat"] for f in row for e in f)))
    return out


PLANTS = {
    "frame": _plant_frame,
    "rank": lambda out: {**out, "rank": out["rank"] + 1},
    "constants": _plant_solve(0),
    "stable": _plant_solve(1),
    "product": _plant_key("op"),
    "apply": _plant_key("poly"),
    "linear": _plant_key("op"),
    "theta": _plant_key("op"),
    "central": _plant_key("op"),
    "columns": _plant_matrix,
    "antimorphism": _plant_matrix,
}


def _oracle_cases():
    """(workload, op index, oracle): the first operation of each
    workload that carries each oracle."""
    cases = []
    for wl in workloads.WORKLOADS:
        seen = set()
        for i, op in enumerate(workloads.build(wl, 1)[:8]):
            for name in op.checks:
                if name not in seen:
                    seen.add(name)
                    cases.append((wl, i, name))
    return cases


CASES = _oracle_cases()


@pytest.fixture(scope="module")
def outputs():
    """Plain outputs of the operations under test, computed once."""
    cache = {}
    for wl, i, _ in CASES:
        if (wl, i) not in cache:
            op = workloads.build(wl, 1)[i]
            cache[(wl, i)] = (op, op.plain(op.run()))
    return cache


def test_every_oracle_is_exercised():
    names = {name for _, _, name in CASES}
    assert names == set(PLANTS)


@pytest.mark.parametrize("wl,i,name", CASES,
                         ids=[f"{wl}-{name}" for wl, _, name in CASES])
def test_oracle_reports_planted_output(outputs, wl, i, name):
    op, plain = outputs[(wl, i)]
    assert op.checks[name](plain) == []
    planted = PLANTS[name](copy.deepcopy(plain))
    assert op.checks[name](planted), f"{name} missed a planted output"
    assert any(msg.startswith(name + ":") for msg in op.failures(planted))


def test_references_reproduce_readme_outputs():
    t, d = {(0,): {(1,): 1}}, {(1,): {(0,): 1}}
    assert ref.render_op(ref.op_mul(d, t, 2, 0), 2) == "t1*d1 + 1"
    d7, t3 = {(7,): {(0,): 1}}, {(0,): {(3,): 1}}
    assert ref.render_op(ref.op_mul(d7, t3, 5, 0), 5) == \
        "t1^3*d1<7> + t1^2*d1<6> + t1*d1<5>"
    assert ref.render_poly(ref.op_apply(d, {(2,): 1}, 5, 0), 5) == "2*t1"


def test_rank_mod():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert ref.rank_mod(a, 7) == 2
    assert ref.rank_mod(np.eye(4, dtype=np.int64), 2) == 4


def _run(args, cwd=ROOT, timeout=300):
    script = os.path.join(cwd, "bench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("wl", workloads.WORKLOADS)
def test_short_mode(wl):
    proc = _run(["--workload", wl, "--short"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for m in result["metrics"].values():
        assert m["value"] > 0


def test_traced_counts_repeat():
    runs = []
    for _ in range(2):
        proc = _run(["--workload", "roundtrip-lifted", "--short", "--trace",
                     "1"])
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["simpson.solve_invariants.calls"] > 0
    assert counts[0]["linalg.nullspace_mod.cells"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "ring", "--seconds", "1"], cwd=str(tmp_path),
                timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_raising_operation_fails_the_run(tmp_path):
    """An operation that raises produces no output to check: it counts
    as failed, `correct` is false and the exit code is 1."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    with open(tmp_path / "src" / "dopm" / "diffops.py", "a") as fh:
        fh.write("\n\ndef _planted(self, other):\n"
                 "    raise RuntimeError('planted fault')\n\n\n"
                 "DiffOp.__mul__ = _planted\n")
    proc = _run(["--workload", "ring", "--short"], cwd=str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "RuntimeError: planted fault" in proc.stdout


def test_clock_reads_cpu_time_finely():
    from clock import SpeedClock, unit
    clock = SpeedClock()
    clock.start()
    try:
        t = clock.begin()
        for _ in range(100):
            unit()
        clock.end(t)
        clock.sample()
    finally:
        clock.stop()
    assert all(s > 0 for s in clock.samples)
    assert clock.marks[0][2] > 0
    assert clock.scaled()[0] > 0


def test_benchmark_json_names_every_metric():
    import layers
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(x) for x in layers.metric_names() + run.TRACE_METRICS]
