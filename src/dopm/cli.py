"""Command-line interface.

Expression commands (mul, apply, phi, phitilde, bullet, kaneda-matrix)
take operators in the d1<k> / t1^a grammar; file commands (curvature,
pullback, invariants, roundtrip) read module JSON; verify runs the
named identity suites.  --json switches any command to machine-readable
output with deterministic field order.

Exit codes are stable: 0 success, 1 failed verification or round trip,
2 malformed input (flags, expression syntax, file shape), 3 domain
error (lifting not strong, module not quasi-nilpotent, parameter
mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys

from .context import Context
from .diffops import DiffOp, kaneda_matrix
from .expr import ExprError, parse, render_matrix, render_op, render_poly
from .frobenius import (FrobData, NotALifting, as_split_module, bullet,
                        lifting_from_json, phi, phi_tilde)
from .poly import Poly
from .simpson import (DModule, HiggsModule, MalformedInput, NotQuasiNilpotent,
                      curvature_of, invariant_rank, pullback, round_trip,
                      solve_invariants)
from .suites import SUITES, run_suite


class CliError(Exception):
    """Bad input; exits with code 2."""


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: not valid JSON ({e})")


def _ctx(args, pmr=None) -> Context:
    """Context from flags; `pmr` (from a file) wins over flag defaults
    but must agree with explicitly given flags."""
    if pmr is None:
        pmr = (args.p if args.p is not None else 2,
               args.m if args.m is not None else 0,
               args.r if args.r is not None else 1)
    else:
        for flag, val, name in ((args.p, pmr[0], "p"),
                                (args.m, pmr[1], "m"),
                                (args.r, pmr[2], "r")):
            if flag is not None and flag != val:
                raise CliError(
                    f"--{name} {flag} disagrees with the file ({name}={val})")
    kw = {}
    if args.tau_trunc is not None:
        kw["tau_trunc"] = args.tau_trunc
    if args.theta_trunc is not None:
        kw["theta_trunc"] = args.theta_trunc
    if args.deg_bound is not None:
        kw["deg_bound"] = args.deg_bound
    try:
        return Context(*pmr, **kw)
    except ValueError as e:
        raise CliError(str(e))


def _setup(args, pmr=None, need_fd=True):
    """(context, lifting data) honoring the p/m/r precedence:
    module file > lifting file > flags > defaults (2, 0, 1)."""
    lift_data = None
    if args.lift != "std":
        lift_data = _read_json(args.lift)
        if pmr is None:
            try:
                pmr = (lift_data["p"], lift_data["m"], lift_data["r"])
            except (KeyError, TypeError):
                raise CliError(f"{args.lift}: not a lifting file")
    ctx = _ctx(args, pmr)
    if not need_fd:
        return ctx, None
    if lift_data is None:
        return ctx, FrobData.standard(ctx)
    return ctx, FrobData(ctx, lifting_from_json(lift_data, ctx))


def _emit(args, obj, text) -> int:
    print(json.dumps(obj, indent=2) if args.json else text)
    return 0


def _as_poly(ctx: Context, op: DiffOp) -> Poly:
    if any(any(k) for k in op.terms):
        raise CliError("expected a function here (no d-atoms)")
    return op.terms.get((0,) * ctx.r, Poly.zero(ctx.r, ctx.p))


def _render_section(sec) -> str:
    parts = []
    for j, f in enumerate(sec):
        if not f:
            continue
        s = render_poly(f)
        if ("+" in s[1:]) or ("-" in s[1:]):
            s = f"({s})"
        parts.append(f"{s}*e{j + 1}")
    return " + ".join(parts) if parts else "0"


def _pmat_strs(mat):
    return [[render_poly(x) for x in row] for row in mat]


# ---------------------------------------------------------------------------
# expression commands

def cmd_mul(args) -> int:
    ctx, _ = _setup(args, need_fd=False)
    out = parse(ctx, args.expr[0])
    for s in args.expr[1:]:
        out = out * parse(ctx, s)
    return _emit(args, {"op": render_op(out)}, render_op(out))


def cmd_apply(args) -> int:
    ctx, _ = _setup(args, need_fd=False)
    op = parse(ctx, args.expr)
    f = _as_poly(ctx, parse(ctx, args.fn))
    out = op.apply(f)
    return _emit(args, {"poly": render_poly(out)}, render_poly(out))


def cmd_phi(args) -> int:
    ctx, fd = _setup(args)
    out = phi(fd, parse(ctx, args.expr))
    return _emit(args, {"op": render_op(out)}, render_op(out))


def cmd_phitilde(args) -> int:
    ctx, fd = _setup(args)
    out = phi_tilde(fd, parse(ctx, args.expr))
    return _emit(args, {"op": render_op(out)}, render_op(out))


def cmd_bullet(args) -> int:
    ctx, fd = _setup(args)
    op = parse(ctx, args.expr)
    z = as_split_module(ctx, _as_poly(ctx, parse(ctx, args.fn)))
    out = bullet(fd, op, z)
    return _emit(args, {"poly": render_poly(out)}, render_poly(out))


def cmd_kaneda(args) -> int:
    ctx, _ = _setup(args, need_fd=False)
    mat = kaneda_matrix(parse(ctx, args.expr))
    return _emit(args, {"matrix": _pmat_strs(mat)}, render_matrix(mat))


# ---------------------------------------------------------------------------
# file commands

def _module_setup(args):
    """(context, Frobenius data, file data) for a file command.  The module
    file is read once; its p/m/r win over the lifting file and flags."""
    data = _read_json(args.file)
    try:
        pmr = (data["p"], data["m"], data["r"])
    except (KeyError, TypeError):
        raise CliError(f"{args.file}: missing p/m/r")
    return (*_setup(args, pmr=pmr), data)


def _load_module(args, data, fd):
    if "matrices" in data:
        higgs = HiggsModule.from_json(data, fd.ctx)
        higgs.validate()
        return pullback(fd, higgs), higgs
    if "generators" in data:
        return DModule.from_json(data, fd.ctx), None
    raise CliError(f"{args.file}: need 'matrices' (Higgs) or 'generators' "
                   "(D-module)")


def cmd_curvature(args) -> int:
    ctx, fd, data = _module_setup(args)
    dm, _ = _load_module(args, data, fd)
    ok, where = dm.validate()
    if not ok:
        raise NotQuasiNilpotent(f"module action law fails at {where}")
    dm.nilpotency_index()
    thetas = curvature_of(dm)
    text = "\n\n".join(f"Theta_{i + 1}:\n{render_matrix(mat)}"
                       for i, mat in enumerate(thetas))
    return _emit(args, {"theta": [_pmat_strs(mat) for mat in thetas]}, text)


def cmd_pullback(args) -> int:
    ctx, fd, data = _module_setup(args)
    dm, higgs = _load_module(args, data, fd)
    if higgs is None:
        raise CliError(f"{args.file}: pullback needs a Higgs file")
    chunks = []
    for (i, l), mat in sorted(dm.gens.items()):
        chunks.append(f"rho(d{i + 1}<{ctx.p ** l}>):\n{render_matrix(mat)}")
    return _emit(args, dm.to_json(), "\n\n".join(chunks))


def cmd_invariants(args) -> int:
    ctx, fd, data = _module_setup(args)
    dm, _ = _load_module(args, data, fd)
    inv = solve_invariants(fd, dm)
    rank, _ = invariant_rank(inv)
    secs = [_render_section(inv.section(row)) for row in inv.basis]
    obj = {"deg_bound": inv.deg_bound, "dim": inv.dim, "rank": rank,
           "sections": secs}
    text = f"degree bound {inv.deg_bound}: dim {inv.dim}, rank {rank}"
    if secs:
        text += "\n" + "\n".join(secs)
    return _emit(args, obj, text)


def cmd_roundtrip(args) -> int:
    ctx, fd, data = _module_setup(args)
    if "matrices" not in data:
        raise CliError(f"{args.file}: round trip starts from a Higgs file")
    higgs = HiggsModule.from_json(data, ctx)
    higgs.validate()
    rep = round_trip(fd, higgs)
    ok = (rep["rank"] == rep["rank_expected"] and rep["members"]
          and rep["stable"] and rep["recovered_valid"])
    obj = {
        "deg_bound": rep["inv"].deg_bound,
        "dim": rep["inv"].dim,
        "rank": rep["rank"],
        "rank_expected": rep["rank_expected"],
        "constants_invariant": rep["members"],
        "rank_stable": rep["stable"],
        "recovered_valid": rep["recovered_valid"],
        "recovered_exact": rep["recovered_exact"],
        "recovered": [_pmat_strs(mat) for mat in rep["recovered"]],
        "ok": ok,
    }
    lines = [f"degree bound {obj['deg_bound']}: dim {obj['dim']}, "
             f"rank {obj['rank']} (expected {obj['rank_expected']})",
             f"constants invariant: {rep['members']}",
             f"rank stable: {rep['stable']}",
             f"recovered frame valid: {rep['recovered_valid']}"
             f"{', exact' if rep['recovered_exact'] else ''}"]
    for i, mat in enumerate(rep["recovered"]):
        lines.append(f"recovered A_{i + 1}:\n{render_matrix(mat)}")
    lines.append("round trip ok" if ok else "round trip FAILED")
    _emit(args, obj, "\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify

def _report_text(rep) -> list:
    lines = [f"{rep.suite:<12} {rep.passed:>4} passed  {rep.failed} failed  "
             f"{rep.skipped} skipped  [{rep.wall_ms} ms]  "
             f"{'ok' if rep.ok else 'FAILED'}"]
    for c in rep.cases:
        if c.status == "fail":
            lines.append(f"  FAIL {c.name}")
            lines.append(f"       expected: {c.expected}")
            lines.append(f"       actual:   {c.actual}")
    return lines


def cmd_verify(args) -> int:
    only = None
    if args.p is not None or args.m is not None:
        only = (args.p, args.m)
    reports = run_suite(args.suite, args.seed, only)
    if not isinstance(reports, list):
        reports = [reports]
    ok = all(r.ok for r in reports)
    if args.json:
        if len(reports) == 1:
            obj = reports[0].to_json(normalize_wall=True)
        else:
            obj = {"reports": [r.to_json(normalize_wall=True)
                               for r in reports], "ok": ok}
        print(json.dumps(obj, indent=2))
    else:
        lines = []
        for r in reports:
            lines.extend(_report_text(r))
        if len(reports) > 1:
            lines.append("all suites ok" if ok else "some suites FAILED")
        print("\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--p", type=int, default=None, help="prime (default 2)")
    sp.add_argument("--m", type=int, default=None, help="level (default 0)")
    sp.add_argument("--r", type=int, default=None,
                    help="number of coordinates (default 1)")
    sp.add_argument("--tau-trunc", type=int, default=None, dest="tau_trunc",
                    help="max tau-degree kept in divided-power data")
    sp.add_argument("--theta-trunc", type=int, default=None,
                    dest="theta_trunc", help="max theta-degree kept")
    sp.add_argument("--deg-bound", type=int, default=None, dest="deg_bound",
                    help="max t-degree in linear solves")
    sp.add_argument("--lift", default="std", metavar="FILE|std",
                    help="Frobenius lifting: 'std' or a JSON file")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for randomized suites")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dopm",
        description="Exact arithmetic differential operators of level m "
                    "in characteristic p: curvature, Frobenius splitting, "
                    "and the local correspondence with Higgs modules.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("mul", help="ring product of operator expressions")
    sp.add_argument("expr", nargs="+")
    sp.set_defaults(handler=cmd_mul)

    sp = sub.add_parser("apply", help="operator applied to a function")
    sp.add_argument("expr")
    sp.add_argument("fn")
    sp.set_defaults(handler=cmd_apply)

    sp = sub.add_parser("phi", help="image under the lifted-Frobenius map")
    sp.add_argument("expr")
    sp.set_defaults(handler=cmd_phi)

    sp = sub.add_parser("phitilde",
                        help="twisted image (identity on the center)")
    sp.add_argument("expr")
    sp.set_defaults(handler=cmd_phitilde)

    sp = sub.add_parser("bullet",
                        help="action of an operator on the split module")
    sp.add_argument("expr")
    sp.add_argument("fn")
    sp.set_defaults(handler=cmd_bullet)

    sp = sub.add_parser("kaneda-matrix",
                        help="matrix of right multiplication over the center")
    sp.add_argument("expr")
    sp.set_defaults(handler=cmd_kaneda)

    sp = sub.add_parser("curvature",
                        help="curvature matrices of a module file")
    sp.add_argument("file")
    sp.set_defaults(handler=cmd_curvature)

    sp = sub.add_parser("pullback",
                        help="D-module structure pulled back from a Higgs file")
    sp.add_argument("file")
    sp.set_defaults(handler=cmd_pullback)

    sp = sub.add_parser("invariants",
                        help="invariant sections of a module file")
    sp.add_argument("file")
    sp.set_defaults(handler=cmd_invariants)

    sp = sub.add_parser("roundtrip",
                        help="Higgs -> D-module -> Higgs with all checks")
    sp.add_argument("file")
    sp.set_defaults(handler=cmd_roundtrip)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    sp.set_defaults(handler=cmd_verify)

    for sp in sub.choices.values():
        _add_common(sp)

    args = ap.parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, ExprError, MalformedInput) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"error: malformed input ({e})", file=sys.stderr)
        return 2
    except (NotALifting, NotQuasiNilpotent, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
