"""Per-layer tracing of the ogpf public API, from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every loaded ``ogpf`` module that holds a reference to it (modules import
each other's functions by name, so patching the defining module alone would
miss most calls); ``uninstall`` puts the originals back. Spans and counts
stay in memory; ``dump`` writes them once the run is over.

A span is ``(id, parent, name, op, start, end)``; ``op`` is the index of the
benchmark operation that caused it (-1 during set-up).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name -> (module, public function) wrapped under that name
TRACED = {
    "pwa.fit": ("ogpf.mipbuild", "fit_all_curves"),
    "mipbuild.build": ("ogpf.mipbuild", "build_model"),
    "mipbuild.relax": ("ogpf.mipbuild", "relax"),
    "mipbuild.check_point": ("ogpf.mipbuild", "check_point"),
    "mipbuild.area_views": ("ogpf.mipbuild", "area_views"),
    "mipbuild.substitute": ("ogpf.mipbuild", "substitute_columns"),
    "ipm.solve": ("ogpf.ipm", "solve_ipm"),
    "convexsolve.solve": ("ogpf.convexsolve", "solve_convex"),
    "convexsolve.probe": ("ogpf.convexsolve", "feasibility_probe"),
    "convexsolve.consensus": ("ogpf.convexsolve", "solve_consensus"),
    "recovery.binaries": ("ogpf.recovery", "recover_binaries"),
    "recovery.pressure_lp_build": ("ogpf.recovery", "build_pressure_lp"),
    "recovery.pressure_lp_solve": ("ogpf.recovery", "solve_pressure_lp"),
    "recovery.certify": ("ogpf.recovery", "assemble_and_certify"),
    "recovery.deviation": ("ogpf.recovery", "weymouth_deviation"),
    "oracle.enumerate": ("ogpf.oracle", "enumerate_solve"),
    "twostage.solve": ("ogpf.twostage", "solve_two_stage"),
}

# every per-layer metric the traced run reports, with its unit
METRICS = {
    "netmodel.load_s": "s",
    "pwa.fit_s": "s", "pwa.fit_calls": "count",
    "mipbuild.build_s": "s", "mipbuild.relax_s": "s",
    "mipbuild.cols": "count", "mipbuild.rows": "count",
    "mipbuild.check_point_s": "s", "mipbuild.check_point_calls": "count",
    "mipbuild.area_views_s": "s",
    "mipbuild.substitute_s": "s", "mipbuild.substitute_calls": "count",
    "ipm.solve_s": "s", "ipm.calls": "count", "ipm.iterations": "count",
    "ipm.stalled": "count", "ipm.kkt_dim_max": "count", "ipm.kkt_dense_mb": "MB",
    "convexsolve.solve_s": "s", "convexsolve.calls": "count",
    "convexsolve.probe_s": "s", "convexsolve.probe_calls": "count",
    "convexsolve.consensus_s": "s", "convexsolve.outer_iterations": "count",
    "convexsolve.area_solves": "count", "convexsolve.sync_s": "s",
    "recovery.binaries_s": "s", "recovery.pressure_lp_s": "s",
    "recovery.certify_s": "s", "recovery.deviation_s": "s",
    "oracle.enumerate_s": "s", "oracle.configs": "count",
    "oracle.infeasible_configs": "count",
    "twostage.stage1_s": "s", "twostage.stage2_s": "s", "twostage.other_s": "s",
    "trace.overhead_s": "s",
}


def kkt_dim(model) -> int:
    """Order of the condensed KKT matrix the IPM factors for ``model``:
    columns left after pinning equal-bound columns, plus the equality rows
    that still reference one of them."""
    free = ~(np.isfinite(model.lb) & (model.lb == model.ub))
    live_eq = 0
    if model.num_eq:
        live_eq = int((abs(model.a_eq[:, free]).max(axis=1).toarray().ravel()
                       > 1e-12).sum())
    return int(free.sum()) + live_eq


class Tracer:
    """Spans and counts of one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.kkt_dim_max = 0
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, self.op, t0, t1)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._observe(name, args, out)
            return out

        return wrapper

    def _observe(self, name, args, out):
        if self.op < 0:
            return
        c = self.counts
        if name == "ipm.solve":
            c["ipm.iterations"] += out.iterations
            c["ipm.stalled"] += out.status == "stalled"
            self.kkt_dim_max = max(self.kkt_dim_max, kkt_dim(args[0]))
        elif name == "mipbuild.build":
            model = out[0]
            c["mipbuild.builds"] += 1
            c["mipbuild.cols"] += model.num_vars
            c["mipbuild.rows"] += model.num_eq + model.num_in + len(model.quad_ineq)
        elif name == "convexsolve.consensus":
            c["convexsolve.outer_iterations"] += out.iterations
        elif name == "oracle.enumerate":
            c["oracle.configs"] += out.num_configurations
            c["oracle.infeasible_configs"] += sum(
                1 for e in out.log if e["status"] == "Infeasible")
        elif name == "twostage.solve":
            c["twostage.stage1_s"] += out.stage1_time_s
            c["twostage.stage2_s"] += out.stage2_time_s

    # -- patching ----------------------------------------------------------
    def install(self):
        if self._patched:
            return
        for name, (modname, attr) in TRACED.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mname, mod in list(sys.modules.items()):
                if (mname == "ogpf" or mname.startswith("ogpf.")) and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- reporting ---------------------------------------------------------
    def metrics(self, num_ops: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics: seconds and counts per timed operation, model
        sizes as means over the models built, KKT figures as maxima."""
        total = defaultdict(float)
        calls = defaultdict(int)
        area_solve_s = 0.0
        area_solves = 0
        for _, parent, name, op, t0, t1 in self.spans:
            if op < 0:
                continue
            total[name] += t1 - t0
            calls[name] += 1
            if name == "convexsolve.solve" and parent >= 0 and \
                    self.spans[parent][2] == "convexsolve.consensus":
                area_solve_s += t1 - t0
                area_solves += 1
        setup_load = sum(t1 - t0 for _, _, name, op, t0, t1 in self.spans
                         if op < 0 and name == "netmodel.load")

        n = max(num_ops, 1)
        c = self.counts
        builds = max(c["mipbuild.builds"], 1)
        dim = self.kkt_dim_max
        out = {
            "netmodel.load_s": setup_load,
            "pwa.fit_s": total["pwa.fit"] / n,
            "pwa.fit_calls": calls["pwa.fit"] / n,
            "mipbuild.build_s": total["mipbuild.build"] / n,
            "mipbuild.relax_s": total["mipbuild.relax"] / n,
            "mipbuild.cols": c["mipbuild.cols"] / builds,
            "mipbuild.rows": c["mipbuild.rows"] / builds,
            "mipbuild.check_point_s": total["mipbuild.check_point"] / n,
            "mipbuild.check_point_calls": calls["mipbuild.check_point"] / n,
            "mipbuild.area_views_s": total["mipbuild.area_views"] / n,
            "mipbuild.substitute_s": total["mipbuild.substitute"] / n,
            "mipbuild.substitute_calls": calls["mipbuild.substitute"] / n,
            "ipm.solve_s": total["ipm.solve"] / n,
            "ipm.calls": calls["ipm.solve"] / n,
            "ipm.iterations": c["ipm.iterations"] / n,
            "ipm.stalled": c["ipm.stalled"] / n,
            "ipm.kkt_dim_max": dim,
            "ipm.kkt_dense_mb": 8.0 * dim * dim / 1e6,
            "convexsolve.solve_s": total["convexsolve.solve"] / n,
            "convexsolve.calls": calls["convexsolve.solve"] / n,
            "convexsolve.probe_s": total["convexsolve.probe"] / n,
            "convexsolve.probe_calls": calls["convexsolve.probe"] / n,
            "convexsolve.consensus_s": total["convexsolve.consensus"] / n,
            "convexsolve.outer_iterations": c["convexsolve.outer_iterations"] / n,
            "convexsolve.area_solves": area_solves / n,
            "convexsolve.sync_s": (total["convexsolve.consensus"] - area_solve_s) / n,
            "recovery.binaries_s": total["recovery.binaries"] / n,
            "recovery.pressure_lp_s": (total["recovery.pressure_lp_build"]
                                       + total["recovery.pressure_lp_solve"]) / n,
            "recovery.certify_s": total["recovery.certify"] / n,
            "recovery.deviation_s": total["recovery.deviation"] / n,
            "oracle.enumerate_s": total["oracle.enumerate"] / n,
            "oracle.configs": c["oracle.configs"] / n,
            "oracle.infeasible_configs": c["oracle.infeasible_configs"] / n,
            "twostage.stage1_s": c["twostage.stage1_s"] / n,
            "twostage.stage2_s": c["twostage.stage2_s"] / n,
            "twostage.other_s": (total["twostage.solve"] - c["twostage.stage1_s"]
                                 - c["twostage.stage2_s"]) / n,
            "trace.overhead_s": overhead_s,
        }
        if set(out) != set(METRICS):
            raise RuntimeError("per-layer metric table out of date")
        return out

    def dump(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "spans": [list(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh)
