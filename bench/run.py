#!/usr/bin/env python3
"""Run the dopm benchmark: one workload, or all of them, from the root
of a checkout.

    python3 bench/run.py --workload ring --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1           # every workload
    python3 bench/run.py --workload ring --seed 1 --trace 1  # per-layer run
    python3 bench/run.py --workload ring --short           # first ops, checked

A run repeats passes until `--seconds` have gone by: at least
MIN_PASSES, or MIN_TRACED_PAIRS with tracing.  Each pass is one fresh
single-threaded worker process: it imports dopm from `src/`, builds the
workload's seeded inputs, runs every operation once under the clock,
and checks every output afterwards.  With `--trace 1` the passes
alternate between an untraced worker and a worker whose calls into the
dopm layers are traced; the end-to-end metrics always come from
untraced workers.

Times are CPU seconds scaled to the reference host speed (clock.py).
Every metric is the median over the run's passes; `setup_s` over at
least MIN_SETUPS set-ups.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every operation ran and its output checked out, 1 when one raised or a
check failed, 2 when a worker could not run.  Results go to bench/out/,
traces too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers
from clock import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# The parent never imports dopm, so it keeps its own copy of the names;
# test_bench.py checks it against workloads.WORKLOADS.
WORKLOADS = ("roundtrip-graded", "roundtrip-lifted", "ring")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
MIN_SETUPS = 9
SHORT_OPS = 4
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "peak_rss_mb": "MB"}


# Reported by traced runs beside the layer metrics of layers.py.
TRACE_METRICS = [("trace.wall_s", "s", "lower"),
                 ("trace.untraced_wall_s", "s", "lower"),
                 ("trace.overhead", "ratio", "lower")]


# ---------------------------------------------------------------------------
# the worker: one pass in a fresh process

def worker(args) -> int:
    clock = SpeedClock()
    tracer = None
    if args.trace:
        # The sampling signal would run inside the spans, so traced
        # passes sample the host's speed between operations only.
        tracer = layers.Tracer()
        tracer.install()
    else:
        clock.start()
    t0 = clock.begin()
    import workloads
    ops = workloads.build(args.workload, args.seed)
    if args.short:
        ops = ops[:SHORT_OPS]
    clock.end(t0)
    if args.setup_only:
        clock.sample()
        clock.stop()
        print(json.dumps({"setup_s": clock.scaled()[0]}))
        return 0

    failed, messages = 0, []
    for op in ops:
        t = clock.begin()
        if tracer:
            tracer.begin(op.label)
        try:
            out = op.run()
            err = None
        except Exception as exc:   # an operation that raises is a failed one
            out, err = None, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end()
        clock.end(t)
        if err is not None:
            errs = [err]
        else:
            try:
                plain = op.plain(out)
                errs = op.failures(plain)
            except Exception as exc:   # output the checks cannot read
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                if tracer and "nnil" in plain:
                    tracer.add_size("simpson.nnil", plain["nnil"])
        if errs:
            failed += 1
            messages.append(f"{op.label}: {errs[0]}"[:400])
    clock.sample()
    clock.stop()
    import numpy
    scaled = clock.scaled()
    latencies = scaled[1:]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = dict(
        setup_s=scaled[0],
        wall_s=sum(latencies),
        op_p50_ms=statistics.median(latencies) * 1e3,
        peak_rss_mb=rss / (2**20 if sys.platform == "darwin" else 2**10),
        cpu_s=sum(dt for _, _, dt in clock.marks[1:]),
        unit_ms=statistics.median(clock.samples) * 1e3,
        attempted=len(ops), failed=failed, messages=messages,
        numpy=numpy.__version__)
    if tracer:
        report["layers"] = tracer.metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# the parent: passes, medians, the result line

class WorkerError(RuntimeError):
    pass


def _spawn(workload, seed, trace=False, setup_only=False,
           short=False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerError(f"{workload}: worker exited {proc.returncode}: "
                          + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, short=False) -> dict:
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(_spawn(workload, seed, short=short))
        if trace:
            traced.append(_spawn(workload, seed, trace=True, short=short))
        enough = MIN_TRACED_PAIRS if trace else MIN_PASSES
        if short or (len(plain) >= enough
                   and time.monotonic() - start >= seconds):
            break
    # a traced worker installs its wrappers before it sets up
    setups = [w["setup_s"] for w in plain]
    while not short and len(setups) < MIN_SETUPS:
        setups.append(_spawn(workload, seed, setup_only=True)["setup_s"])
    everyone = plain + traced
    failed = sum(w["failed"] for w in everyone)
    result = {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in everyone),
        "failed": failed,
    }
    if trace:
        t_wall = statistics.median(w["wall_s"] for w in traced)
        u_wall = statistics.median(w["wall_s"] for w in plain)
        values = {"trace.wall_s": t_wall, "trace.untraced_wall_s": u_wall,
                  "trace.overhead": t_wall / u_wall}
        for key in traced[0]["layers"]:
            values[key] = statistics.median(w["layers"][key] for w in traced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.metric_names() + TRACE_METRICS}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(w["wall_s"] for w in plain),
            "op_p50_ms": statistics.median(w["op_p50_ms"] for w in plain),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
    result["metrics"] = metrics
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": len(plain),
        "pass_wall_s": [w["wall_s"] for w in plain],
        "pass_cpu_s": [w["cpu_s"] for w in plain],
        "pass_unit_ms": [w["unit_ms"] for w in plain],
        "traced_pass_wall_s": [w["wall_s"] for w in traced],
        "setup_s": setups,
        "messages": [m for w in everyone for m in w["messages"]][:20],
        "python": platform.python_version(), "numpy": plain[0]["numpy"],
        "cpus": os.cpu_count(), "machine": platform.machine(),
    }
    return result, detail


def _print_human(result, detail) -> None:
    wl = detail["workload"]
    print(f"{wl} (seed {detail['seed']}): {detail['passes']} passes, "
          f"{result['attempted']} operations attempted, "
          f"{result['failed']} failed; outputs "
          f"{'correct' if result['correct'] else 'WRONG'}")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for msg in detail["messages"]:
        print(f"  FAIL {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help=f"one pass over the first {SHORT_OPS} operations")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args)

    if not os.path.isfile(os.path.join(ROOT, "src", "dopm", "__init__.py")):
        # never measure an installed copy in place of this checkout's
        print(f"error: no src/dopm under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    for wl in names:
        try:
            result, detail = measure(wl, args.seed, args.seconds, args.trace,
                                     short=args.short)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_human(result, detail)
        with open(os.path.join(OUT_DIR, f"result-{wl}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w") as fh:
            json.dump({**result, "detail": detail}, fh, indent=1)
        results[wl] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}.{k}": v for wl, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
