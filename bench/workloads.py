"""The benchmark's workloads: seeded inputs, the timed operations, and
the checks on their outputs.

Each operation does what one `dopm` command does: it starts from the
command's input text (a module or lifting file's JSON, or an operator
expression), builds a fresh Context and FrobData, computes, and renders
the result.  Its checks run untimed afterwards and compare the output
with the references in `oracles`.  A check may call the program again
for auxiliary values (phi of a basis element, a second Kaneda matrix,
the invariants at a higher degree bound); the output under test is
never one of them.

Inputs depend only on the seed.  The shape of every input (parameters,
rank, orders, degrees, which coefficients are nonzero) is fixed by the
workload, so the work per pass hardly varies between seeds; the seed
picks the nonzero values, the frame, and where an index spread evenly
over the coordinates puts its remainder.
"""

from __future__ import annotations

import json
import random
from itertools import product

from dopm import simpson
from dopm.context import Context
from dopm.diffops import DiffOp, kaneda_matrix
from dopm.expr import parse, render_matrix, render_op, render_poly
from dopm.frobenius import FrobData, lifting_from_json, phi, phi_tilde
from dopm.poly import Poly
from dopm.simpson import HiggsModule, round_trip

import oracles as ref

WORKLOADS = ("roundtrip-graded", "roundtrip-lifted", "ring")

# (p, m, r, rank, kind): kind "const" has constant Higgs fields, "lin"
# fields of degree one in t'.  Every p, m and r occurs under the graded
# lifting; the lifted grid drops the corners whose unsplit solve is slow.
GRADED_GRID = [
    (2, 0, 1, 2, "const"), (2, 0, 1, 3, "lin"), (3, 0, 1, 2, "lin"),
    (3, 0, 1, 3, "const"), (5, 0, 1, 2, "const"), (7, 0, 1, 2, "lin"),
    (2, 1, 1, 2, "const"), (3, 1, 1, 2, "lin"), (2, 2, 1, 2, "const"),
    (2, 3, 1, 2, "const"), (2, 0, 2, 2, "lin"), (3, 0, 2, 2, "const"),
    (2, 0, 2, 3, "const"), (2, 0, 3, 2, "const"),
]
LIFTED_GRID = [
    (2, 0, 1, 2, "const"), (2, 0, 1, 3, "lin"), (3, 0, 1, 2, "lin"),
    (3, 0, 1, 3, "const"), (5, 0, 1, 2, "const"), (7, 0, 1, 2, "lin"),
    (2, 1, 1, 2, "const"), (3, 1, 1, 2, "lin"), (2, 2, 1, 2, "const"),
    (2, 0, 2, 2, "lin"), (3, 0, 2, 2, "const"),
]
LIFT_DEGREE = 2   # support of the deviation: t^(p^m e) for |e| <= 2

# (p, m, r) for the ring workload; Kaneda matrices only where the basis
# of the center-module, p^((m+1) r) elements, stays small.
RING_GRID = [
    (2, 0, 1), (3, 0, 1), (5, 0, 1), (7, 0, 1), (2, 1, 1), (3, 1, 1),
    (5, 1, 1), (7, 1, 1), (2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 0, 2),
    (3, 0, 2), (2, 1, 2), (2, 0, 3), (3, 0, 3),
]
KANEDA_MAX = 27


class Op:
    """One timed operation: `run()` calls the program and returns its raw
    output, `plain(out)` turns that into dicts and strings, and `checks`
    maps an oracle name to a function of the plain output that returns
    a list of failure messages."""

    __slots__ = ("label", "run", "plain", "checks")

    def __init__(self, label, run, plain, checks):
        self.label = label
        self.run = run
        self.plain = plain
        self.checks = checks

    def failures(self, plain_out) -> list:
        out = []
        for name, check in self.checks.items():
            out.extend(f"{name}: {msg}" for msg in check(plain_out))
        return out


def build(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "ring":
        return [op for cfg in RING_GRID for op in _ring_ops(rng, *cfg)]
    lifted = workload == "roundtrip-lifted"
    grid = LIFTED_GRID if lifted else GRADED_GRID
    return [_roundtrip_op(rng, spec, lifted) for spec in grid]


# ---------------------------------------------------------------------------
# seeded inputs

def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def _perm_conj(rng, n):
    """A permutation matrix and its inverse."""
    perm = list(range(n))
    rng.shuffle(perm)
    s = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    return s, [list(col) for col in zip(*s)]


def higgs_json(rng, p, m, r, n, linear) -> dict:
    """A rank-n Higgs module: A_i = sum_k c_ik N^k with N strictly upper
    triangular and every coefficient nonzero, conjugated by the unit
    lower-triangular all-ones frame and a random permutation.  So A_1
    has nilpotency index n, every A_i is nonzero, and the A_i commute.
    With `linear`, each c_ik is a nonzero constant plus a nonzero
    multiple of every t'_v."""
    nil = [[rng.randrange(1, p) if j > i else 0 for j in range(n)]
           for i in range(n)]
    low = [[int(j <= i) for j in range(n)] for i in range(n)]
    low_inv = [[1 if i == j else (p - 1 if i == j + 1 else 0)
                for j in range(n)] for i in range(n)]
    perm, perm_inv = _perm_conj(rng, n)
    left, right = _mat_mul(perm, low, p), _mat_mul(low_inv, perm_inv, p)
    powers = [nil]
    while len(powers) < n - 1:
        powers.append(_mat_mul(powers[-1], nil, p))
    zero = (0,) * r
    mats = []
    for _ in range(r):
        entries = [[{} for _ in range(n)] for _ in range(n)]
        for power in powers:
            coeff = {zero: rng.randrange(1, p)}
            if linear:
                for v in range(r):
                    coeff[tuple(int(u == v) for u in range(r))] = \
                        rng.randrange(1, p)
            conj = _mat_mul(_mat_mul(left, power, p), right, p)
            for a, b in product(range(n), repeat=2):
                if conj[a][b]:
                    ref.poly_add(entries[a][b], coeff, conj[a][b], p)
        mats.append([[sorted([list(e), c] for e, c in f.items())
                      for f in row] for row in entries])
    return {"p": p, "m": m, "r": r, "rank": n, "matrices": mats}


def lifting_json(rng, p, m, r) -> dict:
    """F_j = t_j^(p^(m+1)) + p * sum_{|e| <= LIFT_DEGREE} c_e t^(p^m e)
    with every c_e nonzero mod p: strong, and not homogeneous."""
    q, pm = p ** (m + 1), p**m
    lift = []
    for j in range(r):
        f = {tuple(q * int(u == j) for u in range(r)): 1}
        for e in product(range(LIFT_DEGREE + 1), repeat=r):
            if sum(e) <= LIFT_DEGREE:
                ee = tuple(pm * x for x in e)
                f[ee] = (f.get(ee, 0) + p * rng.randrange(1, p)) % (p * p)
        lift.append(sorted([list(e), c] for e, c in f.items() if c))
    return {"p": p, "m": m, "r": r, "lift": lift}


def _composition(rng, total, r) -> tuple:
    """A multi-index of the given total degree, spread as evenly as the
    coordinates allow; the seed picks which coordinates get the rest."""
    base, rest = divmod(total, r)
    extra = set(rng.sample(range(r), rest))
    return tuple(base + (i in extra) for i in range(r))


def _shaped_poly(rng, r, p, degrees) -> dict:
    """One monomial of each total degree in `degrees`."""
    return {_composition(rng, d, r): rng.randrange(1, p) for d in degrees}


def _shaped_op(rng, r, p, orders, degrees) -> dict:
    """One term f_k d^<k> of each order |k| in `orders`, each f_k with one
    monomial of each total degree in `degrees`."""
    return {_composition(rng, o, r): _shaped_poly(rng, r, p, degrees)
            for o in orders}


# ---------------------------------------------------------------------------
# round trips

def _roundtrip_op(rng, spec, lifted) -> Op:
    p, m, r, n, kind = spec
    data = higgs_json(rng, p, m, r, n, kind == "lin")
    module_text = json.dumps(data)
    lift_text = json.dumps(lifting_json(rng, p, m, r)) if lifted else None
    q = p ** (m + 1)
    want_frame = [ref.render_matrix([[{tuple(e): c for e, c in entry}
                                      for entry in row] for row in mat],
                                    p, "t'")
                  for mat in data["matrices"]]

    def run():
        # what `dopm roundtrip FILE [--lift FILE]` does
        ctx = Context(p, m, r)
        if lift_text is None:
            fd = FrobData.standard(ctx)
        else:
            fd = FrobData(ctx, lifting_from_json(json.loads(lift_text), ctx))
        higgs = HiggsModule.from_json(json.loads(module_text), ctx)
        higgs.validate()
        rep = round_trip(fd, higgs)
        text = [render_matrix(mat) for mat in rep["recovered"]]
        return rep, text, fd

    def plain(out):
        rep, text, fd = out
        # the invariants one degree step up, where round_trip's own
        # stability verdict looks
        inv = rep["inv"]
        solves = [inv, simpson.solve_invariants(fd, rep["dm"],
                                                inv.deg_bound + q)]
        return {
            "rank": rep["rank"], "members": rep["members"],
            "stable": rep["stable"], "valid": rep["recovered_valid"],
            "nnil": rep["dm"].nilpotency_index(),
            "recovered": [_plain_mat(mat) for mat in rep["recovered"]],
            "text": text,
            "solves": [(list(inv.monomials), inv.basis.copy(), inv.deg_bound)
                       for inv in solves],
        }

    def frame(out):
        errs = []
        if out["text"] != want_frame:
            errs.append(f"printed frame {out['text']} != input {want_frame}")
        mine = [ref.render_matrix(mat, p, "t'") for mat in out["recovered"]]
        if mine != want_frame:
            errs.append(f"recovered frame {mine} != input {want_frame}")
        if not out["valid"]:
            errs.append("recovered frame reported invalid")
        return errs

    def first_window(out, constants_only=False):
        mons, basis, bound = out["solves"][0]
        return ref.span_errors(mons, basis, bound, n, r, q, p, constants_only)

    def rank(out):
        # the window of degree <= 3q holds exactly n*C(3+r, r) sections
        errs = [] if out["rank"] == n else [f"rank {out['rank']} != {n}"]
        return errs + first_window(out)

    def constants(out):
        errs = [] if out["members"] else ["round_trip says constants fail"]
        return errs + first_window(out, constants_only=True)

    def stable(out):
        mons, basis, bound = out["solves"][1]
        errs = [] if out["stable"] else ["round_trip says rank unstable"]
        return errs + ref.span_errors(mons, basis, bound, n, r, q, p)

    checks = {"frame": frame, "rank": rank, "constants": constants,
              "stable": stable}
    label = f"roundtrip p={p} m={m} r={r} n={n} {kind}"
    return Op(label, run, plain, checks)


# ---------------------------------------------------------------------------
# the operator ring

def _op_dict(op: DiffOp) -> dict:
    return {k: dict(f.coeffs) for k, f in op.terms.items()}


def _diffop(ctx, op: dict) -> DiffOp:
    return DiffOp(ctx, {k: Poly(f, ctx.r, ctx.p) for k, f in op.items()})


def _plain_op(out):
    op, text = out
    return {"op": _op_dict(op), "text": text}


def _compare(out, want: dict, p: int, what: str) -> list:
    errs = []
    if out["op"] != want:
        errs.append(f"{what}: {out['op']} != {want}")
    text = ref.render_op(want, p)
    if out["text"] != text:
        errs.append(f"{what} printed {out['text']!r}, want {text!r}")
    return errs


def _ring_ops(rng, p, m, r) -> list:
    q, pm = p ** (m + 1), p**m
    unit = (0,) * r
    tag = f"p={p} m={m} r={r}"

    def expr(op):
        return ref.render_op(op, p)

    a = _shaped_op(rng, r, p, (2 * q, q + 1, 1), (q + 1, 2))
    b = _shaped_op(rng, r, p, (2 * q, q + 1, 1), (q + 1, 2))
    f = _shaped_poly(rng, r, p, (2 * q, q, 1))
    sa, sb, sf = expr(a), expr(b), expr({unit: f})
    ops = []

    def run_mul():
        ctx = Context(p, m, r)
        out = parse(ctx, sa) * parse(ctx, sb)
        return out, render_op(out)

    ops.append(Op(f"mul {tag}", run_mul, _plain_op, {
        "product": lambda out: _compare(out, ref.op_mul(a, b, p, m), p,
                                        "A*B")}))

    def run_apply():
        ctx = Context(p, m, r)
        fn = parse(ctx, sf).terms.get(unit, Poly.zero(r, p))
        out = parse(ctx, sa).apply(fn)
        return out, render_poly(out)

    def check_apply(out):
        want = ref.op_apply(a, f, p, m)
        errs = [] if out["poly"] == want else \
            [f"A(f): {out['poly']} != {want}"]
        if out["text"] != ref.render_poly(want, p):
            errs.append(f"A(f) printed {out['text']!r}")
        return errs

    ops.append(Op(f"apply {tag}", run_apply,
                  lambda out: {"poly": dict(out[0].coeffs), "text": out[1]},
                  {"apply": check_apply}))

    # phi and phitilde of a random operator: O_X-linear in the basis images
    ph = _shaped_op(rng, r, p, (3 * q, 2 * q, q - 1), (q, 1))

    def linear(fn):
        def check(out):
            ctx = Context(p, m, r)
            fd = FrobData.standard(ctx)
            want: dict = {}
            for k, fk in ph.items():
                img = _op_dict(fn(fd, DiffOp.dpartial(ctx, k)))
                want = ref.op_add(want, ref.op_premul(fk, img, p), p)
            return _compare(out, want, p, "image")
        return check

    def run_with(fn, s):
        def run():
            ctx = Context(p, m, r)
            fd = FrobData.standard(ctx)
            out = fn(fd, parse(ctx, s))
            return out, render_op(out)
        return run

    s_ph = expr(ph)
    ops.append(Op(f"phi {tag}", run_with(phi, s_ph), _plain_op,
                  {"linear": linear(phi)}))

    # phi(theta_i) = theta_i + phi(d_i^<p^m>)^p
    i = rng.randrange(r)
    ei = tuple(int(u == i) for u in range(r))
    theta_i = {tuple(q * x for x in ei): {unit: 1}}

    def check_theta(out):
        ctx = Context(p, m, r)
        img = _op_dict(phi(FrobData.standard(ctx),
                           DiffOp.dpartial(ctx, tuple(pm * x for x in ei))))
        want = ref.op_add(theta_i, ref.op_pow(img, p, r, p, m), p)
        return _compare(out, want, p, "phi(theta)")

    ops.append(Op(f"phi theta {tag}", run_with(phi, expr(theta_i)),
                  _plain_op, {"theta": check_theta}))

    ops.append(Op(f"phitilde {tag}", run_with(phi_tilde, s_ph),
                  _plain_op, {"linear": linear(phi_tilde)}))

    # phitilde fixes central elements t'^a theta^c with |c| <= theta_trunc
    z = {tuple(q * x for x in _composition(rng, d, r)):
         {tuple(q * rng.randrange(2) for _ in range(r)): rng.randrange(1, p)}
         for d in range(1, Context(p, m, r).theta_trunc + 1)}

    ops.append(Op(f"phitilde center {tag}",
                  run_with(phi_tilde, expr(z)), _plain_op,
                  {"central": lambda out: _compare(out, z, p, "center")}))

    if q**r <= KANEDA_MAX:
        basis = list(product(range(q), repeat=r))
        one_b = ref.op_add({unit: {unit: 1}}, b, p)

        def run_kaneda():
            ctx = Context(p, m, r)
            mat = kaneda_matrix(parse(ctx, sa))
            return mat, render_matrix(mat)

        def check_columns(out):
            # column t is the z-decomposition of d^<t> * A
            errs = []
            for col, t in enumerate(basis):
                zo = ref.zo_decompose(ref.op_mul({t: {unit: 1}}, a, p, m),
                                      p, m)
                if [row[col] for row in out["mat"]] != \
                        [zo.get(u, {}) for u in basis]:
                    errs.append(f"column {t} is not the z-decomposition "
                                f"of d^<{t}> * A")
            return errs

        def check_kaneda(out):
            # M(A B) = M(B) M(A)
            ctx = Context(p, m, r)
            mb = _plain_mat(kaneda_matrix(_diffop(ctx, one_b)))
            mab = _plain_mat(kaneda_matrix(
                _diffop(ctx, ref.op_mul(a, one_b, p, m))))
            got = ref.mat_mul(mb, out["mat"], p)
            errs = [] if got == mab else ["M(A*B) != M(B) M(A)"]
            if out["text"] != ref.render_matrix(out["mat"], p, "t|th"):
                errs.append("Kaneda matrix printed differently")
            return errs

        ops.append(Op(f"kaneda {tag}", run_kaneda,
                      lambda out: {"mat": _plain_mat(out[0]),
                                   "text": out[1]},
                      {"columns": check_columns,
                       "antimorphism": check_kaneda}))
    return ops


def _plain_mat(mat):
    return [[dict(f.coeffs) for f in row] for row in mat]
