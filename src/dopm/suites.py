"""Executable verification suites.

Each suite checks one family of identities end to end.  A suite is a
generator `suite_x(seed, only)` that yields one SuiteCase per check;
`SUITES` maps its name to the generator and the context string of its
report, and `run_suite` times the generator and builds the SuiteReport.
`only = (p, m)` narrows every grid: a suite walks its configurations
through `_kept`, which drops the ones with another p or m before they
run, and each configuration seeds its own random draws, so the cases
that survive are the same cases as in the full run.

All arithmetic is exact (mod p or mod p^2), so every case is a strict
equality — there are no tolerances anywhere.  Randomized suites are
fully deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from math import comb

from .context import Context
from .diffops import (DiffOp, frob_descend, frob_raise, kaneda_matrix,
                      quotient_matrix, theta, zo_decompose)
from .dpalg import DPElem, gamma_dp, pair_op, taylor
from .expr import render_op
from .frobenius import (FrobData, as_split_module, bullet, bullet_matrix,
                        divided_frob_tau, glue_derivation, glue_endo, phi,
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


def _eq(name, expected, actual) -> SuiteCase:
    e, a = str(expected), str(actual)
    return SuiteCase(name, "pass" if e == a else "fail", e, a)


def _true(name, cond, detail="") -> SuiteCase:
    return SuiteCase(name, "pass" if cond else "fail", "true",
                     "true" if cond else (detail or "false"))


def _kept(only, configs) -> list:
    """The configurations (p, m, ...) of a suite's grid that `only =
    (p, m)` keeps; either entry of `only`, or `only` itself, may be None
    for "any"."""
    po, mo = only or (None, None)
    return [c for c in configs
            if po in (None, c[0]) and mo in (None, c[1])]


_SMALL_PM = [(2, 0), (3, 0), (2, 1), (3, 1)]


# ---------------------------------------------------------------------------
# 1. binomials of p-power order mod p^2

def suite_lucas(seed: int, only):
    for p, m in _kept(only, product((2, 3, 5), (0, 1, 2))):
        q = p ** (m + 1)
        bad = [i for i in range(q + 1)
               if binom_mod_p2(q, i, p) != lucas_closed_form(p, m, i)
               or binom_mod_p2(q, i, p) != comb(q, i) % p**2]
        yield _true(f"closed form, p={p} m={m}", not bad,
                    f"mismatch at i={bad[:3]}")


# ---------------------------------------------------------------------------
# 2. divided-power composition scalars

def suite_compd(seed: int, only):
    kmax = 20
    for p, m in _kept(only, product((2, 3, 5), (0, 1, 2))):
        q = p ** (m + 1)
        unit = all(dp_power_factor(k, p) % p == 1
                   for k in range(1, kmax + 1))
        yield _true(f"power factor in 1+pZ, p={p} m={m}", unit)
        braces_ok = all(
            brace(k * q, t, p, m) == comb(k * p + t // p**m, t // p**m)
            and brace(k * q, t, p, m) % p == 1
            for k in range(1, kmax + 1) for t in range(q))
        yield _true(f"brace(kq, t) = binom(kp+q_t, q_t), p={p} m={m}",
                    braces_ok)
        ctx = Context(p, m, r=1)
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
        yield _true(f"gamma_k(tau^(q)) rational model, p={p} m={m}", gam_ok)


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


def suite_ringlaws(seed: int, only):
    per_config = 200
    for p, m in _kept(only, _SMALL_PM):
        rng = random.Random(seed * 1000 + 31 * p + m)
        q = p ** (m + 1)
        fails = {"assoc": 0, "action": 0, "duality": 0}
        for trial in range(per_config):
            r = 1 + trial % 2
            ctx = Context(p, m, r=r)
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
            yield _true(f"{law}, p={p} m={m} ({per_config} triples)", n == 0,
                        f"{n} failures")


# ---------------------------------------------------------------------------
# 4. the matrix normal form over the centralizer

def suite_kaneda(seed: int, only):
    for p, _ in _kept(only, [(3, 0), (5, 0)]):
        ctx = Context(p, 0, r=1)
        th_poly = Poly.monomial((0, 1), 1, 2, p, "t|th")
        for k in range(p):
            got = kaneda_matrix(DiffOp.dpartial(ctx, (k,)))
            want = [[th_poly if (u < k and t == u + p - k) else
                     Poly.const(1 if (u >= k and t == u - k) else 0,
                                2, p, "t|th")
                     for t in range(p)] for u in range(p)]
            yield _true(f"block form, p={p} k={k}", pmat_eq(got, want))
        got = kaneda_matrix(DiffOp.dpartial(ctx, (p,)))
        want = [[th_poly if u == t else Poly.zero(2, p, "t|th")
                 for t in range(p)] for u in range(p)]
        yield _true(f"d^(p) goes to theta x identity, p={p}",
                    pmat_eq(got, want))
    for p, m in _kept(only, _SMALL_PM):
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
        yield _true(f"anti-morphism on 100 pairs, p={p} m={m}", bad == 0,
                    f"{bad} failures")


# ---------------------------------------------------------------------------
# 5. phi on the basis

def _liftings(seed: int, only):
    """(index, FrobData) for each of ten random deviated strong liftings
    spread over (p,m) x r whose (p, m) `only` keeps: a standard draw is
    drawn again.  The index counts the whole sample, and each lifting
    draws from its own generator (the last two share one, at the same
    (p, m)), so narrowing changes neither."""
    last = random.Random(seed * 1000 + 999)
    sample = [(p, m, r, random.Random(seed * 1000 + 7 * p + 3 * m + r))
              for p, m in _SMALL_PM for r in (1, 2)]
    sample += [(2, 0, r, last) for r in (1, 2)]
    for fi, (p, m, r, rng) in enumerate(sample):
        if _kept(only, [(p, m)]):
            ctx = Context(p, m, r=r)
            fd = FrobData(ctx, random_strong_lifting(ctx, rng))
            while fd.is_standard:
                fd = FrobData(ctx, random_strong_lifting(ctx, rng))
            yield fi, fd


def suite_phi(seed: int, only):
    for p, _ in _kept(only, [(2, 0), (3, 0), (5, 0), (7, 0)]):
        ctx = Context(p, 0, r=1)
        fd = FrobData.standard(ctx)
        got = phi(fd, DiffOp.dpartial(ctx, (1,)))
        want = DiffOp.dpartial(ctx, (p,),
                               coeff=Poly.monomial((p - 1,), -1, 1, p))
        yield _eq(f"phi(d) standard, p={p} m=0", render_op(want),
                  render_op(got))
    for p, m in _kept(only, [(2, 1), (3, 1), (2, 2)]):
        ctx = Context(p, m, r=1)
        fd = FrobData.standard(ctx)
        window = all(not phi(fd, DiffOp.dpartial(ctx, (n,)))
                     for n in range(1, ctx.pm))
        yield _true(f"zero window 0 < n < p^m, p={p} m={m}", window)
    for fi, fd in _liftings(seed, only):
        ctx = fd.ctx
        ws = divided_frob_tau(ctx, fd.lifting)
        ok_formula = True
        ok_phi = True
        for i in range(ctx.r):
            for j in range(ctx.r):
                # the coefficient of tau_i^{p^m} in the Taylor-expanded w_j
                want = ws[j].coeffs.get(mi_scale(mi_unit(ctx.r, i), ctx.pm),
                                        Poly.zero(ctx.r, ctx.p))
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
        yield _true(f"theta-linear part = divided-Frobenius block, "
                    f"lifting {fi} (p={ctx.p} m={ctx.m} r={ctx.r})",
                    ok_formula and ok_phi)


# ---------------------------------------------------------------------------
# 6. phi on the curvature frame

def suite_phibar(seed: int, only):
    for fi, fd in _liftings(seed, only):
        ctx = fd.ctx
        ok = True
        for i in range(ctx.r):
            th_i = theta(ctx, i)
            pm_i = DiffOp.dpartial(ctx, mi_scale(mi_unit(ctx.r, i), ctx.pm))
            if phi(fd, th_i) != th_i + phi(fd, pm_i) ** ctx.p:
                ok = False
        yield _true(f"phi(theta) = theta + phi(d^(p^m))^p, lifting {fi} "
                    f"(p={ctx.p} m={ctx.m} r={ctx.r})", ok)


# ---------------------------------------------------------------------------
# 7. the bullet action

def _central_read(fd: FrobData, op: DiffOp) -> Poly:
    """A centralizer element as a module element of O_X[theta]."""
    zo = zo_decompose(op)
    assert set(zo) <= {(0,) * fd.ctx.r}
    return zo.get((0,) * fd.ctx.r, Poly.zero(2 * fd.ctx.r, fd.ctx.p, "t|th"))


def suite_bullet(seed: int, only):
    for p, _ in _kept(only, [(2, 0), (3, 0)]):
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
        yield _true(f"d on t^k, p={p} m=0", ok)
        got = bullet_matrix(fd, d)
        want = pmat_zero(p, 2, p, "t'|th")
        for k in range(1, p):
            want[k - 1][k] = Poly({(0, 0): k, (1, 1): p - 1}, 2, p, "t'|th")
        want[p - 1][0] = Poly.monomial((0, 1), -1, 2, p, "t'|th")
        yield _true(f"action matrix of d, p={p} m=0", pmat_eq(got, want))
    # order <= p^m: P . f = P(f) + f phi(P)
    for fi, fd in _liftings(seed, only):
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
        yield _true(f"low order: P.f = P(f) + f phi(P), lifting {fi} "
                    f"(p={ctx.p} m={ctx.m} r={ctx.r})", ok)
    # p=2 third-order identity
    if _kept(only, [(2, 0)]):
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
        yield _true("d^3 . f = d(f) phi(d^2) + f phi(d^3), p=2 m=0", ok)
    # module law
    for p, m in _kept(only, _SMALL_PM):
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
        yield _true(f"module law (PQ).z = P.(Q.z), p={p} m={m}", ok)


# ---------------------------------------------------------------------------
# 8. the van der Put element

def suite_vanderput(seed: int, only):
    for p, _ in _kept(only, [(2, 0), (3, 0)]):
        ctx = Context(p, 0, r=1)
        fd = FrobData.standard(ctx)
        d = DiffOp.dpartial(ctx, (1,))
        h = phi_tilde(fd, d, p * p)
        want = DiffOp.zero(ctx)
        for k in (1, 2, 3):
            want = want - DiffOp.dpartial(
                ctx, (p**k,), coeff=Poly.monomial((p**k - 1,), 1, 1, p))
        yield _eq(f"H = three-term series, p={p}", render_op(want),
                  render_op(h))
        th = DiffOp.dpartial(ctx, (p,))
        got_inv = phi_center_inv(fd, th, p * p)
        want_inv = DiffOp.zero(ctx)
        for k in (1, 2, 3):
            want_inv = want_inv + DiffOp.dpartial(
                ctx, (p**k,),
                coeff=Poly.monomial((p * (p**(k - 1) - 1),), 1, 1, p))
        yield _eq(f"phi inverse of d^(p) series, p={p}",
                  render_op(want_inv), render_op(got_inv))
        lhs = h
        for _ in range(p - 1):
            lhs = lhs.map_coeffs(lambda f: f.derivative(0))
        lhs = lhs + h ** p
        yield _eq(f"d^(p-1)(H) + H^p = d^(p) through theta-degree 3, p={p}",
                  render_op(th.theta_truncate(3)),
                  render_op(lhs.theta_truncate(3)))


# ---------------------------------------------------------------------------
# 9. gluing two liftings

def suite_glue(seed: int, only):
    for p, m in _kept(only, _SMALL_PM):
        ctx = Context(p, m, r=1)
        rng = random.Random(seed * 4000 + 17 * p + m)
        lifts = [standard_lifting(ctx),
                 random_strong_lifting(ctx, rng),
                 random_strong_lifting(ctx, rng)]
        u12 = glue_derivation(lifts[0], lifts[1])
        u23 = glue_derivation(lifts[1], lifts[2])
        u13 = glue_derivation(lifts[0], lifts[2])
        yield _true(f"cocycle u13 = u12 + u23, p={p} m={m}",
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
        yield _true(f"endo composition, p={p} m={m}", ok)


# ---------------------------------------------------------------------------
# 10. descent between levels

def suite_descent(seed: int, only):
    if _kept(only, [(2, 0)]):
        ctx = Context(2, 0, r=1)
        gens = [DiffOp.from_poly(ctx, Poly.variable(0, 1, 2)),
                DiffOp.dpartial(ctx, (1,)),
                DiffOp.dpartial(ctx, (2,), coeff=Poly.monomial((1,), 1, 1, 2))]
        ok = all(frob_descend(frob_raise(g), divide_coeffs=True) == g
                 for g in gens)
        yield _true("descend after raise is the identity (p=2 m=0 s=1)", ok)
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
        yield _true("phi commutes with descent on d^<k>, k <= 4", ok)
    for p, _ in _kept(only, [(2, 0), (3, 0)]):
        c0 = Context(p, 0, r=1)
        q = c0.pm1
        images = []
        for a in range(q):
            for b in range(q):
                op = DiffOp.dpartial(
                    c0, (b,), coeff=Poly.monomial((a,), 1, 1, p))
                images.append([f for row in quotient_matrix(op) for f in row])
        rows = [{(j, e): c for j, f in enumerate(vec)
                 for e, c in f.coeffs.items()} for vec in images]
        rk = rank_mod(simp._dense(rows, {k for row in rows for k in row}), p)
        yield _eq(f"quotient images independent, p={p} m=0 r=1", p ** 2, rk)


# ---------------------------------------------------------------------------
# 11. the correspondence round trip

def suite_simpson(seed: int, only):
    rng = random.Random(seed * 5000 + 11)
    modules = [(h.ctx.p, h.ctx.m, name, h) for name, h in simp.corpus(rng)]
    fds = {}
    for _, _, name, higgs in _kept(only, modules):
        ctx = higgs.ctx
        if ctx not in fds:
            fds[ctx] = FrobData.standard(ctx)
        fd = fds[ctx]
        dm = simp.pullback(fd, higgs)
        okv, bad = dm.validate()
        yield _true(f"{name}: pullback validates", okv, f"at {bad}")
        rep = simp.round_trip(fd, higgs)
        n = higgs.rank
        constant = not name.startswith("r1lin")
        if constant:
            want_dim = n * len(list(degree_box(3, ctx.r)))
            yield _eq(f"{name}: invariants dimension", want_dim,
                      rep["inv"].dim)
        yield _true(f"{name}: constants invariant", rep["members"])
        yield _eq(f"{name}: rank recovery", n, rep["rank"])
        yield _true(f"{name}: rank stable under degree growth",
                    rep["stable"])
        if constant:
            yield _true(f"{name}: Higgs frame recovered exactly",
                        rep["recovered_exact"])
        else:
            yield _true(f"{name}: recovered frame commuting nilpotent",
                        rep["recovered_valid"])


# ---------------------------------------------------------------------------
# 12. comparison with the one-variable splitting matrix

def suite_ov_compare(seed: int, only):
    i = 0                       # numbers the liftings that `only` keeps
    for p, _ in _kept(only, [(2, 0), (3, 0), (5, 0)]):
        for r in (1, 2):
            rng = random.Random(seed * 6000 + 5 * p + r)
            for _ in range(2 if p < 5 else 1):
                ctx = Context(p, 0, r=r)
                fd = FrobData(ctx, random_strong_lifting(ctx, rng))
                hg = simp.random_higgs(ctx, rng, 2)
                dm = simp.pullback(fd, hg)
                # Z[j][k], the tau_k-coefficient of the Taylor-expanded w_j
                z = [[w.coeffs.get(mi_unit(r, k), Poly.zero(r, p))
                      for k in range(r)]
                     for w in divided_frob_tau(ctx, fd.lifting)]
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
                yield _true(f"splitting matrix rebuilds the connection, "
                            f"lifting {i} (p={p} r={r})", ok)
                i += 1


# ---------------------------------------------------------------------------

# name -> (suite, the context line of its report)
SUITES = {
    "lucas": (suite_lucas, "p in {2,3,5}, m in {0,1,2}, all i"),
    "compd": (suite_compd, "p in {2,3,5}, m in {0,1,2}, k <= 20"),
    "ringlaws": (suite_ringlaws, "200 random triples per (p,m), r <= 2"),
    "kaneda": (suite_kaneda, "m=0 blocks at p in {3,5}; morphism at r=1"),
    "phi": (suite_phi, "standard m=0; zero window; 10 random strong "
            "liftings"),
    "phibar": (suite_phibar, "same lifting sample as the phi suite"),
    "bullet": (suite_bullet, "m=0 matrices; low-order identity on the "
               "lifting sample; module law"),
    "vanderput": (suite_vanderput, "m=0, p in {2,3}, standard lifting"),
    "glue": (suite_glue, "three strong liftings per (p,m)"),
    "descent": (suite_descent, "p=2 m=0 s=1; quotient dimension at r=1"),
    "simpson": (suite_simpson, "20 constant + worked example + linear "
                "variants, (p,m) in {2,3}x{0,1}, standard lifting, "
                "degree bound 3p^(m+1)"),
    "ov-compare": (suite_ov_compare, "m=0, 10 random strong liftings"),
}


def run_suite(name: str, seed: int = 0, only=None):
    """One report, or the full list for "all".  `only = (p, m)` narrows
    each suite's grid; either entry may be None for "any"."""
    if name == "all":
        return [run_suite(n, seed, only) for n in SUITES]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join([*SUITES, 'all'])}")
    suite, context = SUITES[name]
    t0 = time.perf_counter()
    rep = SuiteReport(name, context, list(suite(seed, only)))
    rep.wall_ms = int((time.perf_counter() - t0) * 1000)
    return rep
