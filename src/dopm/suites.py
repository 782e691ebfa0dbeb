"""Executable verification suites.

Each suite checks one family of identities end to end and returns a
SuiteReport; `run_suite` dispatches by name.  All arithmetic is exact
(mod p or mod p^2), so every case is a strict equality — there are no
tolerances anywhere.  Randomized suites take a seed and are fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import comb

from .context import Context
from .diffops import (DiffOp, frob_descend, frob_raise, kaneda_matrix,
                      quotient_matrix, zo_decompose)
from .dpalg import DPElem, gamma_dp, pair_op, taylor
from .expr import render_op
from .frobenius import (FrobData, as_split_module, bullet, bullet_matrix,
                        glue_derivation, glue_endo, ov_split_matrix, phi,
                        phi_center_inv, phi_tilde, random_strong_lifting,
                        standard_lifting)
from .linalg import (pmat_add_inplace, pmat_eq, pmat_map, pmat_scale,
                     pmat_zero, rank_mod)
from .poly import Poly
from .scalars import (binom_mod_p2, brace, degree_box, dp_power_factor,
                      lucas_closed_form, mi_scale, mi_sum, mi_unit)
from . import simpson as simp


@dataclass
class SuiteCase:
    name: str
    status: str            # "pass" | "fail" | "skipped"
    expected: str = ""
    actual: str = ""


@dataclass
class SuiteReport:
    suite: str
    context: str
    cases: list = field(default_factory=list)
    wall_ms: int = 0

    @property
    def passed(self) -> int:
        return sum(c.status == "pass" for c in self.cases)

    @property
    def failed(self) -> int:
        return sum(c.status == "fail" for c in self.cases)

    @property
    def skipped(self) -> int:
        return sum(c.status == "skipped" for c in self.cases)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self, normalize_wall: bool = False) -> dict:
        return {
            "suite": self.suite,
            "context": self.context,
            "cases": [{"name": c.name, "status": c.status,
                       "expected": c.expected, "actual": c.actual}
                      for c in self.cases],
            "wall_ms": 0 if normalize_wall else self.wall_ms,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "ok": self.ok,
        }


def _eq(cases, name, expected, actual):
    e, a = str(expected), str(actual)
    cases.append(SuiteCase(name, "pass" if e == a else "fail", e, a))


def _true(cases, name, cond, detail=""):
    cases.append(SuiteCase(name, "pass" if cond else "fail", "true",
                           "true" if cond else (detail or "false")))


def _finish(suite, context, cases, t0) -> SuiteReport:
    rep = SuiteReport(suite, context, cases)
    rep.wall_ms = int((time.perf_counter() - t0) * 1000)
    return rep


def _keep(only, p, m) -> bool:
    """Suite grids may be narrowed to one p and/or one m from the CLI;
    skipped configurations are never run (random draws stay per-config,
    so the surviving cases are unchanged)."""
    if only is None:
        return True
    po, mo = only
    return (po is None or po == p) and (mo is None or mo == m)


# ---------------------------------------------------------------------------
# 1. binomials of p-power order mod p^2

def suite_lucas(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    for p in (2, 3, 5):
        for m in (0, 1, 2):
            if not _keep(only, p, m):
                continue
            q = p ** (m + 1)
            bad = [i for i in range(q + 1)
                   if binom_mod_p2(q, i, p) != lucas_closed_form(p, m, i)
                   or binom_mod_p2(q, i, p) != comb(q, i) % p**2]
            _true(cases, f"closed form, p={p} m={m}", not bad,
                  f"mismatch at i={bad[:3]}")
    return _finish("lucas", "p in {2,3,5}, m in {0,1,2}, all i", cases, t0)


# ---------------------------------------------------------------------------
# 2. divided-power composition scalars

def suite_compd(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    kmax = 20
    for p in (2, 3, 5):
        for m in (0, 1, 2):
            if not _keep(only, p, m):
                continue
            q = p ** (m + 1)
            unit = all(dp_power_factor(k, p) % p == 1
                       for k in range(1, kmax + 1))
            _true(cases, f"power factor in 1+pZ, p={p} m={m}", unit)
            braces_ok = all(
                brace(k * q, t, p, m) == comb(k * p + t // p**m, t // p**m)
                and brace(k * q, t, p, m) % p == 1
                for k in range(1, kmax + 1) for t in range(q))
            _true(cases, f"brace(kq, t) = binom(kp+q_t, q_t), p={p} m={m}",
                  braces_ok)
            ctx = Context(p, m, r=1, tau_trunc=(kmax + 1) * q)
            w = DPElem.basis(ctx, (q,), p)
            gam_ok = True
            for k in range(1, kmax + 1):
                got = gamma_dp(w, k, mod=None)
                want = DPElem.basis(
                    ctx, (k * q,), None,
                    coeff=Poly.const(dp_power_factor(k, p), 1, None))
                if got != want:
                    gam_ok = False
                    break
            _true(cases, f"gamma_k(tau^(q)) rational model, p={p} m={m}",
                  gam_ok)
    return _finish("compd", "p in {2,3,5}, m in {0,1,2}, k <= 20", cases, t0)


# ---------------------------------------------------------------------------
# 3. ring laws

def _rand_poly(rng, ctx, deg, nterms=3) -> Poly:
    d = {}
    for _ in range(nterms):
        e = [0] * ctx.r
        for _ in range(deg):
            e[rng.randrange(ctx.r)] += rng.randrange(2)
        d[tuple(e)] = rng.randrange(ctx.p)
    return Poly(d, ctx.r, ctx.p)


def _rand_op(rng, ctx, max_ord, deg, nterms=3) -> DiffOp:
    out = DiffOp.zero(ctx)
    for _ in range(nterms):
        k = tuple(rng.randrange(max_ord + 1) for _ in range(ctx.r))
        out = out + DiffOp.dpartial(ctx, k, coeff=_rand_poly(rng, ctx, deg, 2))
    return out


def suite_ringlaws(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    per_config = 200
    for p, m in [(2, 0), (3, 0), (2, 1), (3, 1)]:
        if not _keep(only, p, m):
            continue
        rng = random.Random(seed * 1000 + 31 * p + m)
        q = p ** (m + 1)
        fails = {"assoc": 0, "action": 0, "duality": 0}
        for trial in range(per_config):
            r = 1 + trial % 2
            ctx = Context(p, m, r=r, tau_trunc=6 * q + 1)
            a = _rand_op(rng, ctx, 2 * q, 3)
            b = _rand_op(rng, ctx, 2 * q, 3)
            c = _rand_op(rng, ctx, q, 3, nterms=2)
            f = _rand_poly(rng, ctx, 3)
            if (a * b) * c != a * (b * c):
                fails["assoc"] += 1
            if (a * b).apply(f) != a.apply(b.apply(f)):
                fails["action"] += 1
            if pair_op(a, taylor(ctx, f, p)) != a.apply(f):
                fails["duality"] += 1
        for law, n in fails.items():
            _true(cases, f"{law}, p={p} m={m} ({per_config} triples)", n == 0,
                  f"{n} failures")
    return _finish("ringlaws", "200 random triples per (p,m), r <= 2",
                   cases, t0)


# ---------------------------------------------------------------------------
# 4. the matrix normal form over the centralizer

def suite_kaneda(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    for p in (3, 5):
        if not _keep(only, p, 0):
            continue
        ctx = Context(p, 0, r=1)
        th_poly = Poly.monomial((0, 1), 1, 2, p, "t|th")
        for k in range(p):
            got = kaneda_matrix(DiffOp.dpartial(ctx, (k,)))
            want = [[th_poly if (u < k and t == u + p - k) else
                     Poly.const(1 if (u >= k and t == u - k) else 0,
                                2, p, "t|th")
                     for t in range(p)] for u in range(p)]
            _true(cases, f"block form, p={p} k={k}", pmat_eq(got, want))
        got = kaneda_matrix(DiffOp.dpartial(ctx, (p,)))
        want = [[th_poly if u == t else Poly.zero(2, p, "t|th")
                 for t in range(p)] for u in range(p)]
        _true(cases, f"d^(p) goes to theta x identity, p={p}",
              pmat_eq(got, want))
    for p, m in [(2, 0), (3, 0), (2, 1), (3, 1)]:
        if not _keep(only, p, m):
            continue
        rng = random.Random(seed * 1000 + 47 * p + m)
        ctx = Context(p, m, r=1)
        bad = 0
        for _ in range(100):
            a = _rand_op(rng, ctx, ctx.pm1, 2, nterms=2)
            b = _rand_op(rng, ctx, ctx.pm1, 2, nterms=2)
            ma, mb = kaneda_matrix(a), kaneda_matrix(b)
            mab = kaneda_matrix(a * b)
            prod = [[sum((mb[i][s] * ma[s][j] for s in range(len(ma))),
                         Poly.zero(2, p, "t|th"))
                     for j in range(len(ma))] for i in range(len(ma))]
            if not pmat_eq(mab, prod):
                bad += 1
        _true(cases, f"anti-morphism on 100 pairs, p={p} m={m}", bad == 0,
              f"{bad} failures")
    return _finish("kaneda", "m=0 blocks at p in {3,5}; morphism at r=1",
                   cases, t0)


# ---------------------------------------------------------------------------
# 5. phi on the basis

def _lifting_sample(seed: int):
    """Ten random strong liftings spread over (p,m) x r."""
    out = []
    i = 0
    for p, m in [(2, 0), (3, 0), (2, 1), (3, 1)]:
        for r in (1, 2):
            rng = random.Random(seed * 1000 + 7 * p + 3 * m + r)
            out.append(FrobData(
                Context(p, m, r=r),
                random_strong_lifting(Context(p, m, r=r), rng)))
            i += 1
            if i == 8:
                break
    rng = random.Random(seed * 1000 + 999)
    for r in (1, 2):
        ctx = Context(2, 0, r=r)
        out.append(FrobData(ctx, random_strong_lifting(ctx, rng)))
    return out


def suite_phi(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    for p in (2, 3, 5, 7):
        if not _keep(only, p, 0):
            continue
        ctx = Context(p, 0, r=1)
        fd = FrobData.standard(ctx)
        got = phi(fd, DiffOp.dpartial(ctx, (1,)))
        want = DiffOp.dpartial(ctx, (p,),
                               coeff=Poly.monomial((p - 1,), -1, 1, p))
        _eq(cases, f"phi(d) standard, p={p} m=0", render_op(want),
            render_op(got))
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        if not _keep(only, p, m):
            continue
        ctx = Context(p, m, r=1)
        fd = FrobData.standard(ctx)
        window = all(not phi(fd, DiffOp.dpartial(ctx, (n,)))
                     for n in range(1, ctx.pm))
        _true(cases, f"zero window 0 < n < p^m, p={p} m={m}", window)
    for fi, fd in enumerate(_lifting_sample(seed)):
        if not _keep(only, fd.ctx.p, fd.ctx.m):
            continue
        ctx = fd.ctx
        ok_formula = True
        ok_phi = True
        for i in range(ctx.r):
            for j in range(ctx.r):
                want = fd.gs[j].derivative(i).scale_exponents(ctx.pm).scale(-1)
                if i == j:
                    want = want - Poly.monomial(
                        mi_scale(mi_unit(ctx.r, i), (ctx.p - 1) * ctx.pm),
                        1, ctx.r, ctx.p)
                if fd.c_matrix(i, j) != want:
                    ok_formula = False
            img = phi(fd, DiffOp.dpartial(ctx, mi_scale(mi_unit(ctx.r, i),
                                                        ctx.pm)))
            lin = DiffOp.zero(ctx)
            for k, f in img.terms.items():
                if mi_sum(k) == ctx.pm1:
                    lin = lin + DiffOp.dpartial(ctx, k, coeff=f)
            want_lin = DiffOp.zero(ctx)
            for j in range(ctx.r):
                cij = fd.c_matrix(i, j)
                if cij:
                    want_lin = want_lin + DiffOp.dpartial(
                        ctx, mi_scale(mi_unit(ctx.r, j), ctx.pm1), coeff=cij)
            if lin != want_lin:
                ok_phi = False
        _true(cases, f"theta-linear part = divided-Frobenius block, "
              f"lifting {fi} (p={ctx.p} m={ctx.m} r={ctx.r})",
              ok_formula and ok_phi)
    return _finish("phi", "standard m=0; zero window; 10 random strong "
                   "liftings", cases, t0)


# ---------------------------------------------------------------------------
# 6. phi on the curvature frame

def suite_phibar(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    for fi, fd in enumerate(_lifting_sample(seed)):
        if not _keep(only, fd.ctx.p, fd.ctx.m):
            continue
        ctx = fd.ctx
        ok = True
        for i in range(ctx.r):
            th_i = DiffOp.dpartial(ctx, mi_scale(mi_unit(ctx.r, i), ctx.pm1))
            pm_i = DiffOp.dpartial(ctx, mi_scale(mi_unit(ctx.r, i), ctx.pm))
            if phi(fd, th_i) != th_i + phi(fd, pm_i) ** ctx.p:
                ok = False
        _true(cases, f"phi(theta) = theta + phi(d^(p^m))^p, lifting {fi} "
              f"(p={ctx.p} m={ctx.m} r={ctx.r})", ok)
    return _finish("phibar", "same lifting sample as the phi suite",
                   cases, t0)


# ---------------------------------------------------------------------------
# 7. the bullet action

def _central_read(fd: FrobData, op: DiffOp) -> Poly:
    """A centralizer element as a module element of O_X[theta]."""
    zo = zo_decompose(op)
    assert set(zo) <= {(0,) * fd.ctx.r}
    return zo.get((0,) * fd.ctx.r, Poly.zero(2 * fd.ctx.r, fd.ctx.p, "t|th"))


def suite_bullet(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    for p in (2, 3):
        if not _keep(only, p, 0):
            continue
        ctx = Context(p, 0, r=1)
        fd = FrobData.standard(ctx)
        d = DiffOp.dpartial(ctx, (1,))
        ok = True
        for k in range(1, 2 * p + 2):
            got = bullet(fd, d, Poly.monomial((k, 0), 1, 2, p, "t|th"))
            want = Poly({(k - 1, 0): k % p, (p + k - 1, 1): p - 1}, 2, p,
                        "t|th")
            if got != want:
                ok = False
        _true(cases, f"d on t^k, p={p} m=0", ok)
        got = bullet_matrix(fd, d)
        want = pmat_zero(p, 2, p, "t'|th")
        for k in range(1, p):
            want[k - 1][k] = Poly({(0, 0): k, (1, 1): p - 1}, 2, p, "t'|th")
        want[p - 1][0] = Poly.monomial((0, 1), -1, 2, p, "t'|th")
        _true(cases, f"action matrix of d, p={p} m=0", pmat_eq(got, want))
    # order <= p^m: P . f = P(f) + f phi(P)
    for fi, fd in enumerate(_lifting_sample(seed)):
        if not _keep(only, fd.ctx.p, fd.ctx.m):
            continue
        ctx = fd.ctx
        rng = random.Random(seed * 2000 + fi)
        ok = True
        for s in degree_box(ctx.pm, ctx.r):
            if not any(s):
                continue
            op = DiffOp.dpartial(ctx, s,
                                 coeff=_rand_poly(rng, ctx, 2, nterms=2))
            for _ in range(2):
                f = _rand_poly(rng, ctx, 3)
                got = bullet(fd, op, as_split_module(ctx, f))
                want = as_split_module(ctx, op.apply(f)) + \
                    as_split_module(ctx, f) * _central_read(fd, phi(fd, op))
                if got != want:
                    ok = False
        _true(cases, f"low order: P.f = P(f) + f phi(P), lifting {fi} "
              f"(p={ctx.p} m={ctx.m} r={ctx.r})", ok)
    # p=2 third-order identity
    if _keep(only, 2, 0):
        ctx = Context(2, 0, r=1)
        fd = FrobData.standard(ctx)
        d = DiffOp.dpartial(ctx, (1,))
        ok = True
        for k in (1, 2, 3):
            f = Poly.monomial((k,), 1, 1, 2)
            got = bullet(fd, d ** 3, as_split_module(ctx, f))
            want = as_split_module(ctx, d.apply(f)) * \
                _central_read(fd, phi(fd, d ** 2)) + \
                as_split_module(ctx, f) * _central_read(fd, phi(fd, d ** 3))
            if got != want:
                ok = False
        _true(cases, "d^3 . f = d(f) phi(d^2) + f phi(d^3), p=2 m=0", ok)
    # module law
    for p, m in [(2, 0), (3, 0), (2, 1), (3, 1)]:
        if not _keep(only, p, m):
            continue
        rng = random.Random(seed * 3000 + 13 * p + m)
        ctx = Context(p, m, r=1)
        fd = FrobData.standard(ctx)
        ok = True
        for _ in range(5):
            a = _rand_op(rng, ctx, ctx.pm1, 2, nterms=2)
            b = _rand_op(rng, ctx, ctx.pm1, 2, nterms=2)
            z = Poly({(rng.randrange(3), rng.randrange(2)): 1 + rng.randrange(p - 1)
                      if p > 2 else 1}, 2, p, "t|th")
            if bullet(fd, a * b, z) != bullet(fd, a, bullet(fd, b, z)):
                ok = False
        _true(cases, f"module law (PQ).z = P.(Q.z), p={p} m={m}", ok)
    return _finish("bullet", "m=0 matrices; low-order identity on the "
                   "lifting sample; module law", cases, t0)


# ---------------------------------------------------------------------------
# 8. the van der Put element

def suite_vanderput(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    for p in (2, 3):
        if not _keep(only, p, 0):
            continue
        ctx = Context(p, 0, r=1, theta_trunc=p * p)
        fd = FrobData.standard(ctx)
        d = DiffOp.dpartial(ctx, (1,))
        h = phi_tilde(fd, d, p * p)
        want = DiffOp.zero(ctx)
        for k in (1, 2, 3):
            want = want - DiffOp.dpartial(
                ctx, (p**k,), coeff=Poly.monomial((p**k - 1,), 1, 1, p))
        _eq(cases, f"H = three-term series, p={p}", render_op(want),
            render_op(h))
        th = DiffOp.dpartial(ctx, (p,))
        got_inv = phi_center_inv(fd, th, p * p)
        want_inv = DiffOp.zero(ctx)
        for k in (1, 2, 3):
            want_inv = want_inv + DiffOp.dpartial(
                ctx, (p**k,),
                coeff=Poly.monomial((p * (p**(k - 1) - 1),), 1, 1, p))
        _eq(cases, f"phi inverse of d^(p) series, p={p}",
            render_op(want_inv), render_op(got_inv))
        lhs = h
        for _ in range(p - 1):
            lhs = lhs.map_coeffs(lambda f: f.derivative(0))
        lhs = lhs + h ** p
        _eq(cases, f"d^(p-1)(H) + H^p = d^(p) through theta-degree 3, p={p}",
            render_op(th.theta_truncate(3)),
            render_op(lhs.theta_truncate(3)))
    return _finish("vanderput", "m=0, p in {2,3}, standard lifting",
                   cases, t0)


# ---------------------------------------------------------------------------
# 9. gluing two liftings

def suite_glue(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    for p, m in [(2, 0), (3, 0), (2, 1), (3, 1)]:
        if not _keep(only, p, m):
            continue
        ctx = Context(p, m, r=1)
        rng = random.Random(seed * 4000 + 17 * p + m)
        lifts = [standard_lifting(ctx),
                 random_strong_lifting(ctx, rng),
                 random_strong_lifting(ctx, rng)]
        u12 = glue_derivation(lifts[0], lifts[1])
        u23 = glue_derivation(lifts[1], lifts[2])
        u13 = glue_derivation(lifts[0], lifts[2])
        _true(cases, f"cocycle u13 = u12 + u23, p={p} m={m}",
              all(a + b == c for a, b, c in zip(u12, u23, u13)))
        rng2 = random.Random(seed * 4000 + 17 * p + m + 1)
        ok = True
        for _ in range(5):
            g = Poly({(rng2.randrange(3), rng2.randrange(3)): 1 +
                      rng2.randrange(p - 1) if p > 2 else 1},
                     2, p, "t|dt'")
            via2 = glue_endo(ctx, u12, glue_endo(ctx, u23, g, 3), 3)
            direct = glue_endo(ctx, u13, g, 3)
            if via2 != direct:
                ok = False
        _true(cases, f"endo composition, p={p} m={m}", ok)
    return _finish("glue", "three strong liftings per (p,m)", cases, t0)


# ---------------------------------------------------------------------------
# 10. descent between levels

def suite_descent(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    if _keep(only, 2, 0):
        ctx = Context(2, 0, r=1)
        gens = [DiffOp.from_poly(ctx, Poly.variable(0, 1, 2)),
                DiffOp.dpartial(ctx, (1,)),
                DiffOp.dpartial(ctx, (2,), coeff=Poly.monomial((1,), 1, 1, 2))]
        ok = all(frob_descend(frob_raise(g), divide_coeffs=True) == g
                 for g in gens)
        _true(cases, "descend after raise is the identity (p=2 m=0 s=1)", ok)
        up = Context(2, 1, r=1)
        fd_up = FrobData.standard(up)
        fd_dn = FrobData.standard(ctx)
        ok = True
        for k in range(5):
            op = DiffOp.dpartial(up, (k,))
            lhs = frob_descend(phi(fd_up, op))
            rhs = phi(fd_dn, frob_descend(op)).map_coeffs(
                lambda f: f.scale_exponents(2))
            if lhs != rhs:
                ok = False
        _true(cases, "phi commutes with descent on d^<k>, k <= 4", ok)
    for p in (2, 3):
        if not _keep(only, p, 0):
            continue
        c0 = Context(p, 0, r=1)
        q = c0.pm1
        images = []
        for a in range(q):
            for b in range(q):
                op = DiffOp.dpartial(
                    c0, (b,), coeff=Poly.monomial((a,), 1, 1, p))
                images.append([f for row in quotient_matrix(op) for f in row])
        rk = rank_mod(simp._flatten_rows(images, p), p)
        _eq(cases, f"quotient images independent, p={p} m=0 r=1",
            p ** 2, rk)
    return _finish("descent", "p=2 m=0 s=1; quotient dimension at r=1",
                   cases, t0)


# ---------------------------------------------------------------------------
# 11. the correspondence round trip

def suite_simpson(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    rng = random.Random(seed * 5000 + 11)
    fds = {}
    for name, higgs in simp.corpus(rng):
        if not _keep(only, higgs.ctx.p, higgs.ctx.m):
            continue
        ctx = higgs.ctx
        if ctx not in fds:
            fds[ctx] = FrobData.standard(ctx)
        fd = fds[ctx]
        dm = simp.pullback(fd, higgs)
        okv, bad = dm.validate()
        _true(cases, f"{name}: pullback validates", okv, f"at {bad}")
        rep = simp.round_trip(fd, higgs)
        n = higgs.rank
        constant = not name.startswith("r1lin")
        if constant:
            want_dim = n * len(list(degree_box(3, ctx.r)))
            _eq(cases, f"{name}: invariants dimension", want_dim,
                rep["inv"].dim)
        _true(cases, f"{name}: constants invariant", rep["members"])
        _eq(cases, f"{name}: rank recovery", n, rep["rank"])
        _true(cases, f"{name}: rank stable under degree growth",
              rep["stable"])
        if constant:
            _true(cases, f"{name}: Higgs frame recovered exactly",
                  rep["recovered_exact"])
        else:
            _true(cases, f"{name}: recovered frame commuting nilpotent",
                  rep["recovered_valid"])
    return _finish(
        "simpson",
        "20 constant + worked example + linear variants, (p,m) in "
        "{2,3}x{0,1}, standard lifting, degree bound 3p^(m+1)", cases, t0)


# ---------------------------------------------------------------------------
# 12. comparison with the one-variable splitting matrix

def suite_ov_compare(seed: int = 0, only=None) -> SuiteReport:
    t0 = time.perf_counter()
    cases = []
    i = 0
    for p in (2, 3, 5):
        if not _keep(only, p, 0):
            continue
        for r in (1, 2):
            if i >= 10:
                break
            rng = random.Random(seed * 6000 + 5 * p + r)
            reps = 2 if p < 5 else 1
            for _ in range(reps):
                ctx = Context(p, 0, r=r)
                fd = FrobData(ctx, random_strong_lifting(ctx, rng))
                hg = simp.random_higgs(ctx, rng, 2)
                dm = simp.pullback(fd, hg)
                z = ov_split_matrix(fd)
                ok = True
                for ii in range(r):
                    acc = pmat_zero(2, r, p)
                    for j in range(r):
                        sig = pmat_map(hg.matrices[j],
                                       lambda f: f.scale_exponents(
                                           ctx.pm1, var="t"))
                        acc = pmat_add_inplace(
                            acc, pmat_scale(sig, z[j][ii]))
                    if not pmat_eq(acc, dm.gens[(ii, 0)]):
                        ok = False
                _true(cases, f"splitting matrix rebuilds the connection, "
                      f"lifting {i} (p={p} r={r})", ok)
                i += 1
    return _finish("ov-compare", "m=0, 10 random strong liftings", cases, t0)


# ---------------------------------------------------------------------------

SUITES = {
    "lucas": suite_lucas,
    "compd": suite_compd,
    "ringlaws": suite_ringlaws,
    "kaneda": suite_kaneda,
    "phi": suite_phi,
    "phibar": suite_phibar,
    "bullet": suite_bullet,
    "vanderput": suite_vanderput,
    "glue": suite_glue,
    "descent": suite_descent,
    "simpson": suite_simpson,
    "ov-compare": suite_ov_compare,
}


def run_suite(name: str, seed: int = 0, only=None):
    """One report, or the full list for "all".  `only = (p, m)` narrows
    each suite's grid; either entry may be None for "any"."""
    if name == "all":
        return [fn(seed, only=only) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join([*SUITES, 'all'])}")
    return SUITES[name](seed, only=only)
