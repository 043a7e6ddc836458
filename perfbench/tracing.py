"""Span recording around the package's public functions, from outside it.

``Tracer.install()`` replaces each traced function at every place it is
bound: the module that defines it and every ``shearmhd`` module that
imported it by name (``quadratic_terms`` in ``diagnostics``,
``shear_symbols`` in ``dynamics``, ``unknowns``, ``diagnostics`` and
``partition``, and so on).  Methods are replaced on their class, which
covers every caller.  Spans (name, start, end, parent) are kept in memory;
``summary()`` turns them into the per-layer metrics after the run.
"""

import functools
import inspect
import math
import os
import sys
import time

# (span name, module, attribute); "Class.method" replaces a method.
TARGETS = [
    ("spectral.transform", "spectral", "ProductWorkspace.phys"),
    ("spectral.transform", "spectral", "ProductWorkspace.spec"),
    ("spectral.shear_symbols", "spectral", "shear_symbols"),
    ("dynamics.quadratic_terms", "dynamics", "quadratic_terms"),
    ("dynamics.rhs", "dynamics", "VBIntegrator.rhs"),
    ("dynamics.rhs", "dynamics", "PtildeIntegrator.rhs"),
    ("dynamics.step", "dynamics", "lawson_rk4_step"),
    ("dynamics.cleanup", "dynamics", "VBIntegrator.cleanup"),
    ("dynamics.cleanup", "dynamics", "PtildeIntegrator.cleanup"),
    ("dynamics.linear_ref", "dynamics", "propagate_linear_grid"),
    ("unknowns.tailored", "unknowns", "state_to_tailored"),
    ("unknowns.tailored", "unknowns", "tailored_to_state"),
    ("unknowns.leray", "unknowns", "leray_project_t"),
    ("weights.multiplier_set", "weights", "MultiplierSet.__init__"),
    ("weights.lambda_of_t", "weights", "lambda_of_t"),
    ("weights.log_q", "weights", "log_q"),
    ("diagnostics.sample", "diagnostics", "dissipation_terms"),
    ("diagnostics.sample", "diagnostics", "make_record"),
    ("diagnostics.sample", "diagnostics", "energy_E"),
    ("diagnostics.identity_sides", "diagnostics", "identity_sides"),
    ("partition.check", "partition", "nl_partition_check"),
    ("weights_audit.run", "weights_audit", "run_weights_audit"),
    ("resonance", "resonance", "chain_total_growth"),
    ("resonance", "resonance", "chain_sweep_fit"),
    ("resonance", "resonance", "chain_handoff_trajectory"),
    ("io.write", "io", "write_csv"),
    ("io.write", "io", "write_json"),
    ("io.write", "io", "write_state_snapshot"),
    ("experiments.run", "experiments", "run"),
]

# Spans each workload must record at least once; zero calls means a
# binding site was missed (or the workload no longer does that work).
EXPECTED = {
    "trajectory64": ["spectral.transform", "spectral.shear_symbols",
                     "dynamics.quadratic_terms", "dynamics.rhs", "dynamics.step",
                     "dynamics.cleanup", "unknowns.tailored", "unknowns.leray",
                     "weights.multiplier_set", "weights.lambda_of_t",
                     "weights.log_q", "diagnostics.sample", "io.write",
                     "experiments.run"],
    "inflation64": ["spectral.transform", "spectral.shear_symbols",
                    "dynamics.quadratic_terms", "dynamics.rhs", "dynamics.step",
                    "dynamics.cleanup", "dynamics.linear_ref",
                    "unknowns.tailored", "unknowns.leray", "io.write",
                    "experiments.run"],
    "identity32": ["spectral.transform", "spectral.shear_symbols",
                   "dynamics.quadratic_terms", "dynamics.rhs", "dynamics.step",
                   "dynamics.cleanup", "unknowns.tailored",
                   "weights.multiplier_set", "weights.lambda_of_t",
                   "weights.log_q", "diagnostics.sample",
                   "diagnostics.identity_sides", "partition.check", "io.write"],
    "audit": ["weights.log_q", "weights_audit.run", "resonance", "io.write",
              "experiments.run"],
}

# name -> (unit, better) of every per-layer metric, in report order.
# bytes_computed, table_bytes, flops_est and per_step are computed from
# array sizes and call counts, not measured.
_UNITS = {"calls": "count", "self_s": "s", "ms_per_call": "ms", "ms_p50": "ms",
          "ms_p99": "ms", "bytes_computed": "B", "per_step": "count",
          "table_bytes": "B", "flops_est": "flop", "bytes": "B"}
_LAYERS = [
    ("spectral.transform", ("calls", "self_s", "ms_per_call", "bytes_computed",
                            "per_step", "table_bytes", "flops_est")),
    ("spectral.shear_symbols", ("calls", "self_s")),
    ("dynamics.quadratic_terms", ("calls", "self_s", "ms_per_call")),
    ("dynamics.rhs", ("calls", "self_s")),
    ("dynamics.step", ("calls", "ms_p50", "ms_p99")),
    ("dynamics.cleanup", ("self_s",)),
    ("dynamics.linear_ref", ("calls", "self_s")),
    ("unknowns.tailored", ("calls", "self_s")),
    ("unknowns.leray", ("calls", "self_s")),
    ("weights.multiplier_set", ("calls", "self_s")),
    ("weights.lambda_of_t", ("calls", "self_s")),
    ("weights.log_q", ("calls", "self_s")),
    ("diagnostics.sample", ("calls", "self_s")),
    ("diagnostics.identity_sides", ("calls", "self_s")),
    ("partition.check", ("self_s",)),
    ("weights_audit.run", ("self_s",)),
    ("resonance", ("self_s",)),
    ("io.write", ("calls", "self_s", "bytes")),
    ("experiments.run", ("self_s",)),
]
LAYER_METRICS = {f"{span}.{field}": (_UNITS[field], "lower")
                 for span, fields in _LAYERS for field in fields}
LAYER_METRICS.update({
    "dynamics.rhs_per_step": ("count", "lower"),
    "dynamics.cfl_shortened_share": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
})


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.transform_sizes = []   # padded table size M = Mx*My of each transform
        self.cfl_short = 0   # cfl_dt results below the evolve dt
        self.evolve_dt = []
        self.io_bytes = 0
        self.restore = []    # (owner, attribute, original)

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _transform_after(self, args, kwargs, result):
        ws = args[0]
        self.transform_sizes.append(ws.Mx * ws.My)

    def _io_after(self, args, kwargs, result):
        self.io_bytes += os.path.getsize(args[0])

    def _hooks(self, dynamics):
        """Plain wrappers (no span) that count CFL-shortened steps."""
        evolve, cfl_dt = dynamics.evolve, dynamics.cfl_dt
        signature = inspect.signature(evolve)

        @functools.wraps(evolve)
        def evolve_hook(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.evolve_dt.append(bound.arguments["dt"])
            try:
                return evolve(*args, **kwargs)
            finally:
                self.evolve_dt.pop()

        @functools.wraps(cfl_dt)
        def cfl_hook(*args, **kwargs):
            h = cfl_dt(*args, **kwargs)
            if self.evolve_dt and h < self.evolve_dt[-1]:
                self.cfl_short += 1
            return h

        return [(evolve, evolve_hook), (cfl_dt, cfl_hook)]

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "shearmhd" or name.startswith("shearmhd.")}
        functions = []
        for span, modname, attr in TARGETS:
            owner = mods["shearmhd." + modname]
            after = (self._transform_after if span == "spectral.transform"
                     else self._io_after if span == "io.write" else None)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._span(span, original, after))
                self.restore.append((cls, meth, original))
            else:
                original = getattr(owner, attr)
                functions.append((original, self._span(span, original, after)))
        functions += self._hooks(mods["shearmhd.dynamics"])
        for original, wrapper in functions:
            sites = 0
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self.restore.append((mod, key, original))
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"no binding site found for {original.__qualname__}")

    def uninstall(self):
        for owner, key, original in reversed(self.restore):
            setattr(owner, key, original)
        self.restore.clear()

    def summary(self, wall_s, workload):
        """Per-layer metrics of one traced operation, plus missed spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        covered = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
        calls, total, self_s = {}, {}, {}
        step_ms = []
        step_ids = set()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if name == "dynamics.step":
                step_ms.append(1e3 * (end - start))
                step_ids.add(i)

        def in_step(i):
            while i >= 0:
                if i in step_ids:
                    return True
                i = spans[i][3]
            return False

        rhs_in_step = sum(1 for name, _, _, parent in spans
                          if name == "dynamics.rhs" and in_step(parent))
        tr_in_step = sum(1 for name, _, _, parent in spans
                         if name == "spectral.transform" and in_step(parent))
        steps = len(step_ms)
        sizes = self.transform_sizes
        n_tr = len(sizes)
        metrics = {}
        for key in LAYER_METRICS:
            span, _, field = key.rpartition(".")
            n = calls.get(span, 0)
            if field == "calls":
                metrics[key] = n
            elif field == "self_s":
                metrics[key] = self_s.get(span, 0.0)
            elif field == "ms_per_call":
                metrics[key] = 1e3 * total.get(span, 0.0) / n if n else 0.0
        metrics.update({
            "spectral.transform.bytes_computed": 16 * sum(sizes),
            "spectral.transform.table_bytes": 16 * sum(sizes) / n_tr if n_tr else 0,
            "spectral.transform.flops_est":
                sum(5 * m * math.log2(m) for m in sizes) / n_tr if n_tr else 0.0,
            "spectral.transform.per_step": tr_in_step / steps if steps else 0.0,
            "dynamics.step.ms_p50": percentile(step_ms, 50) if steps else 0.0,
            "dynamics.step.ms_p99": percentile(step_ms, 99) if steps else 0.0,
            "dynamics.rhs_per_step": rhs_in_step / steps if steps else 0.0,
            "dynamics.cfl_shortened_share": self.cfl_short / steps if steps else 0.0,
            "io.write.bytes": self.io_bytes,
            "trace.unattributed_share": max(0.0, wall_s - covered) / wall_s,
            "trace.overhead": 0.0,  # filled in by run.py from untraced operations
        })
        missing = [s for s in EXPECTED[workload] if calls.get(s, 0) == 0]
        return {"metrics": metrics, "missing_spans": missing, "spans": len(spans)}
