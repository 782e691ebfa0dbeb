"""Per-layer tracing for the benchmark's traced runs.

`Tracer.install()` wraps the public functions of the dopm layers listed
in LAYERS.  `from .x import f` copies a binding, so every loaded module
and class that holds the original function gets the wrapper.  A wrapper
does nothing but call through while the tracer is off, which it is
outside the timed operations.

While on, each wrapped call is a span: name, start, end, parent.  Self
time is a span's duration minus the time of the wrapped calls inside
it.  Spans of the coarse layers are kept in memory, one root span per
operation, and written out by `dump`; the hot leaf layers (Poly
arithmetic, structure constants) are only counted and timed, since
they run millions of times in a pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import weakref
from array import array
from time import perf_counter

# (metric prefix, module, attribute, mode).  mode: "span" keeps every
# span, "leaf" aggregates calls and self time, "count" counts calls.
LAYERS = [
    ("scalars.brace", "dopm.scalars", "brace", "count"),
    ("scalars.dp_monomial_action", "dopm.scalars", "dp_monomial_action",
     "count"),
    ("scalars.angle_mi_mod", "dopm.scalars", "angle_mi_mod", "leaf"),
    ("poly.Poly", "dopm.poly", "Poly.__init__", "count"),
    ("poly.mul", "dopm.poly", "Poly.__mul__", "leaf"),
    ("poly.add", "dopm.poly", "Poly.__add__", "leaf"),
    ("dpalg.taylor", "dopm.dpalg", "taylor", "span"),
    ("dpalg.gamma_dp", "dopm.dpalg", "gamma_dp", "span"),
    ("diffops.mul", "dopm.diffops", "DiffOp.__mul__", "span"),
    ("diffops.apply", "dopm.diffops", "DiffOp.apply", "span"),
    ("diffops.kaneda_matrix", "dopm.diffops", "kaneda_matrix", "span"),
    ("frobenius.FrobData", "dopm.frobenius", "FrobData.__init__", "span"),
    ("frobenius.phi_tilde_basis", "dopm.frobenius", "phi_tilde_basis",
     "span"),
    ("frobenius.phi_center_inv", "dopm.frobenius", "phi_center_inv", "span"),
    ("simpson.act", "dopm.simpson", "DModule.act", "span"),
    ("simpson.central_apply", "dopm.simpson", "central_apply", "span"),
    ("simpson.solve_invariants", "dopm.simpson", "solve_invariants", "span"),
    ("simpson.invariant_rank", "dopm.simpson", "invariant_rank", "span"),
    ("simpson.recovered_higgs", "dopm.simpson", "recovered_higgs", "span"),
    ("linalg.nullspace_mod", "dopm.linalg", "nullspace_mod", "span"),
    ("linalg.rank_mod", "dopm.linalg", "rank_mod", "span"),
    ("expr.parse", "dopm.expr", "parse", "span"),
    ("expr.render", "dopm.expr", "render_op", "span"),
    ("expr.render", "dopm.expr", "render_poly", "span"),
    ("expr.render", "dopm.expr", "render_matrix", "span"),
]

# Sizes summed over a pass, recorded beside the spans; the hits only feed
# the hit ratio.
SIZES = ("simpson.unknowns", "simpson.inv_dim", "simpson.nnil",
         "linalg.nullspace_mod.rows", "linalg.nullspace_mod.cols",
         "linalg.nullspace_mod.cells", "linalg.nullspace_mod.kernel",
         "frobenius.phi_tilde_basis.hits")
RATIOS = ("linalg.nullspace_mod.rank_yield",
          "frobenius.phi_tilde_basis.hit_ratio")


def metric_names() -> list:
    """(name, unit, better) of every per-layer metric a traced pass
    reports, in order."""
    out, seen = [], set()
    for name, _, _, mode in LAYERS:
        if name in seen:
            continue
        seen.add(name)
        out.append((f"{name}.calls", "count", "lower"))
        if mode != "count":
            out.append((f"{name}.self_ms", "ms", "lower"))
    out += [(key, "count", "lower") for key in SIZES[:-1]]
    out += [(key, "ratio", "higher") for key in RATIOS]
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []            # name id -> layer name
        self.calls = []            # name id -> calls
        self.self_s = []           # name id -> self seconds
        self.sizes = dict.fromkeys(SIZES, 0)
        self.stack = []            # open spans: [child seconds, span id]
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_labels = {}        # root span id -> operation label
        self._seen = weakref.WeakKeyDictionary()   # FrobData -> keys seen

    # -- installing -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def install(self) -> None:
        """Wrap every layer function wherever a binding of it lives."""
        for name, modname, attr, mode in LAYERS:
            module = importlib.import_module(modname)
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            orig = getattr(holder, fname)
            wrapper = self._wrap(name, orig, mode)
            if owner:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)
            for mod in list(sys.modules.values()):
                space = getattr(mod, "__dict__", None)
                if not isinstance(space, dict):
                    continue
                for key, val in list(space.items()):
                    if val is orig:
                        space[key] = wrapper

    def _wrap(self, name, fn, mode):
        nid = self._name_id(name)
        calls = self.calls
        if mode == "count":
            def counted(*args, **kwargs):
                if self.on:
                    calls[nid] += 1
                return fn(*args, **kwargs)
            return counted
        after = getattr(self, "_after_" + name.split(".")[-1], None)
        before = self._before_phi_tilde_basis \
            if name == "frobenius.phi_tilde_basis" else None
        keep = mode == "span"
        self_s = self.self_s
        stack = self.stack

        def spanned(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            sid = self._open(nid) if keep else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    self.span_start[sid] = t0
                    self.span_end[sid] = t1
            if after is not None:
                after(args, out)
            return out

        return spanned

    def _open(self, nid) -> int:
        parent = -1
        for frame in reversed(self.stack):
            if frame[1] >= 0:
                parent = frame[1]
                break
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_name) - 1

    # -- sizes ------------------------------------------------------------

    def _before_phi_tilde_basis(self, args) -> None:
        fd, n, n_trunc = args[:3]
        seen = self._seen.setdefault(fd, set())
        key = (tuple(n), n_trunc)
        if key in seen:
            self.sizes["frobenius.phi_tilde_basis.hits"] += 1
        seen.add(key)

    def _after_solve_invariants(self, args, inv) -> None:
        self.sizes["simpson.unknowns"] += len(inv.monomials)
        self.sizes["simpson.inv_dim"] += inv.dim

    def _after_nullspace_mod(self, args, kernel) -> None:
        rows, cols = args[0].shape
        self.sizes["linalg.nullspace_mod.rows"] += rows
        self.sizes["linalg.nullspace_mod.cols"] += cols
        self.sizes["linalg.nullspace_mod.cells"] += rows * cols
        self.sizes["linalg.nullspace_mod.kernel"] += kernel.shape[0]

    def add_size(self, key: str, value: int) -> None:
        self.sizes[key] += value

    # -- operations -------------------------------------------------------

    def begin(self, label: str) -> None:
        """Open the root span of one operation and switch tracing on."""
        sid = self._open(-1)
        self.op_labels[sid] = label
        self.stack.append([0.0, sid])
        self.span_start[sid] = perf_counter()
        self.on = True

    def end(self) -> None:
        self.on = False
        frame = self.stack.pop()
        self.span_end[frame[1]] = perf_counter()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of everything traced so far."""
        sizes = self.sizes
        values = dict(sizes)
        for nid, name in enumerate(self.names):
            values[f"{name}.calls"] = self.calls[nid]
            values[f"{name}.self_ms"] = self.self_s[nid] * 1e3
        rows = sizes["linalg.nullspace_mod.rows"]
        useful = sizes["linalg.nullspace_mod.cols"] - \
            sizes["linalg.nullspace_mod.kernel"]
        values["linalg.nullspace_mod.rank_yield"] = \
            useful / rows if rows else 0.0
        nphi = values["frobenius.phi_tilde_basis.calls"]
        values["frobenius.phi_tilde_basis.hit_ratio"] = \
            sizes["frobenius.phi_tilde_basis.hits"] / nphi if nphi else 0.0
        return {name: values[name] for name, _, _ in metric_names()}

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON: one [id, name, start_s, end_s,
        parent] row per span, times relative to the first span."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        names = self.names
        rows = []
        for sid in range(len(self.span_name)):
            nid = self.span_name[sid]
            name = self.op_labels[sid] if nid < 0 else names[nid]
            rows.append([sid, name, round(self.span_start[sid] - base, 7),
                         round(self.span_end[sid] - base, 7),
                         self.span_parent[sid]])
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": rows, "metrics": self.metrics()}, fh)
