"""One benchmark operation: set up one workload in this fresh process, run it
once through the package's public entry points, and check its outputs.

``run.py`` starts this script once per operation; it is not meant to be run
by hand.  It prints one JSON object on its last line of standard output with
``setup_s``, ``wall_s``, ``peak_rss_mb``, ``tol_used``, the checks, the
SHA-256 of each CSV written, any error, and the trace summary when traced.

``raw_setup_s`` runs from the moment the parent started this process
(``--spawned-at``, a ``time.monotonic`` reading; CLOCK_MONOTONIC is shared by
all processes of the machine) to the end of set-up.  ``raw_wall_s`` runs from
the first package call after set-up to the last result file written.
``setup_s`` and ``wall_s`` are the same times rescaled to a reference machine
speed with ``SpeedProbe``.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

STABILITY = {"rho": 0.004, "lam0": 1.1, "s": 0.6, "N": 5, "alpha": 1.0,
             "c0": 0.05, "eps": 1e-3}
LAM1, LAM2 = 1.2, 1.0

# Workload sizes.  Each is chosen so that one operation takes a few seconds
# on a 2-core machine: long enough for the per-step costs to dominate the
# process start, short enough for several operations in one measured run.
TRAJECTORY_T_END = 5.0       # 250 vb steps at dt <= 0.02: 11 samples, 2 snapshots
INFLATION_T_END = 2.0        # 100 vb steps plus the RK4 linear reference
IDENTITY_T_END = 0.3         # 150 + 300 ptilde steps at dt = 2e-3, 1e-3
AUDIT_N_ETA = 96             # denser than the acceptance default of 24
CHAIN_ETAS = [100.0, 316.0, 1000.0, 3160.0, 10000.0]

# Probe kernel per workload: (FFT size, Python loop length, reference time).
# The FFT size is the workload's padded grid (3/2 of 64 or 32).  The
# reference is the kernel's median time while the workload runs on an
# unloaded core of the 2.1 GHz Xeon host the benchmark was built on, so the
# rescaled times read as the times at that speed.  Set-up (imports, mostly)
# is probed with the loop alone.
PROBES = {"trajectory64": (96, 200, 185e-6), "inflation64": (96, 200, 185e-6),
          "identity32": (48, 200, 80e-6), "audit": (0, 1000, 60e-6)}
SETUP_PROBE = (0, 1000, 60e-6)
PROBE_INTERVAL_S = 0.01


def usage(value, ideal, limit):
    """Share of a tolerance used: 0 at the ideal value, 1 at the limit.

    Works for upper limits (ideal < limit) and lower limits (ideal > limit);
    values on the good side of the ideal use none of it.  Non-finite values
    use all of it and more.
    """
    if not math.isfinite(value):
        return math.inf
    return max(0.0, (value - ideal) / (limit - ideal))


def _stability_config(experiment, seed, extra):
    from shearmhd.experiments import ExperimentConfig
    data = {"experiment": experiment,
            "grid": {"Nx": 64, "Ny": 64, "Ly": 1.0},
            "params": dict(STABILITY),
            "initial": {"kind": "gevrey_random", "seed": seed, "eps": 1e-3,
                        "lam1": LAM1}}
    data.update(extra)
    return ExperimentConfig.from_dict(data)


# Each ``setup_*`` does the set-up work and returns ``(go, check)``.
# ``go()`` is the timed part; it looks package functions up on their module
# at call time, so that a traced operation sees the tracer's replacements.
# ``check(result)`` returns ``{name: usage or bool}`` and the CSV files whose
# bytes the parent compares across operations of one seed.

def setup_trajectory64(seed, out):
    from shearmhd import experiments
    cfg = _stability_config("nonlinear_ideal", seed, {
        "evolution": {"dt": 0.02, "t_end": TRAJECTORY_T_END},
        "monitor": {"lam2": LAM2, "sample_dt": 0.5, "hminus1_gate_K": 0.25},
        "output": {"snapshots": 10}})

    def go():
        return experiments.run(cfg, out)["summary"]

    def check(s):
        return {"finite_state": all(math.isfinite(x) for x in
                                    (s["gevrey_max"], s["l2_min_ratio"])),
                "gevrey_le_10eps": usage(s["gevrey_bound_10eps"]["value"], 0.0, 10.0),
                "l2_ratio_ge_0.1": usage(s["l2_min_ratio"], 1.0, 0.1),
                }, [os.path.join(out, "diagnostics.csv")]

    return go, check


def setup_inflation64(seed, out):
    from shearmhd import experiments
    cfg = _stability_config("norm_inflation", seed, {
        "evolution": {"dt": 0.02, "t_end": INFLATION_T_END},
        "monitor": {"sample_dt": 1.0}})

    def go():
        return experiments.run(cfg, out)["summary"]

    def check(s):
        c1 = s["C1"]
        return {"ratio_max_le_C1+0.5": usage(s["ratio_max"], 1.0, c1 + 0.5),
                "ratio_min_ge_1/C1-0.5": usage(s["ratio_min"], 1.0, 1.0 / c1 - 0.5),
                "lin_within_C1": bool(s["lin_within_C1"]),
                "deviation_le_0.5": usage(s["max_rel_deviation"], 0.0, 0.5),
                }, [os.path.join(out, "diagnostics.csv")]

    return go, check


def setup_identity32(seed, out):
    from shearmhd import diagnostics, partition
    from shearmhd import io as sio
    from shearmhd.experiments import gevrey_random_data
    from shearmhd.spectral import Grid
    from shearmhd.unknowns import state_to_tailored
    from shearmhd.weights import WeightParams

    params = WeightParams(**STABILITY)
    grid = Grid(32, 32, 1.0)
    state = gevrey_random_data(grid, params, seed=seed, eps=1e-3, lam1=LAM1)
    ts0 = state_to_tailored(state, params.alpha)
    state.t = 1.3  # the partition check's time, as in the acceptance suite
    path = os.path.join(out, "diagnostics.csv")

    def go():
        res = {dt: diagnostics.energy_identity_residuals(ts0, params, params.alpha,
                                             t_end=IDENTITY_T_END, dt=dt, stride=2)
               for dt in (2e-3, 1e-3)}
        part = partition.nl_partition_check(state, params)
        sio.ensure_dir(out)
        sio.write_csv(path, ["dt", "t", "residual"],
                      [[dt, t, r] for dt, rs in res.items() for t, r in rs],
                      {"rel_mismatch": part["rel_mismatch"]})
        return res, part

    def check(result):
        res, part = result
        r1 = max(r for _, r in res[2e-3])
        r2 = max(r for _, r in res[1e-3])
        return {"residual_le_1e-5": usage(r1, 0.0, 1e-5),
                "halving_order_ge_3.5": usage(math.log2(r1 / r2), 4.0, 3.5),
                "partition_mismatch_le_1e-10": usage(part["rel_mismatch"], 0.0, 1e-10),
                }, [path]

    return go, check


def setup_audit(seed, out):
    from shearmhd import experiments
    from shearmhd.experiments import ExperimentConfig
    audit_cfg = ExperimentConfig.from_dict({
        "experiment": "weights_audit",
        "audit": {"eta_max": 1e4, "n_eta": AUDIT_N_ETA, "seed": seed}})
    chain_cfg = ExperimentConfig.from_dict({
        "experiment": "resonance_chain",
        "chain": {"c0": 0.5, "etas": CHAIN_ETAS}})
    audit_out = os.path.join(out, "audit")
    chain_out = os.path.join(out, "chain")

    def go():
        return (experiments.run(audit_cfg, audit_out)["summary"],
                experiments.run(chain_cfg, chain_out)["summary"])

    def check(result):
        audit, chain = result
        audit_csv = os.path.join(audit_out, "diagnostics.csv")
        with open(audit_csv, newline="") as fh:
            rows = {r["lemma_id"]: r for r in
                    csv.DictReader(line for line in fh if not line.startswith("#"))}
        # the hard lemma rows of the acceptance suite's criterion 7
        return {"all_rows_finite": bool(audit["all_finite"]),
                "no_hard_failures": not audit["hard_failures"],
                "J_sandwich": usage(float(rows["J_sandwich"]["max_violation_ratio"]), 0.0, 1.0),
                "m_bounds": usage(float(rows["m_bounds"]["max_violation_ratio"]), 0.0, 1.0),
                "q_plateau_le_1e-10": usage(
                    float(rows["q_plateau_equality"]["empirical_constant"]), 0.0, 1e-10),
                "q_dip_le_1e-10": usage(
                    float(rows["q_resonance_dip"]["empirical_constant"]), 0.0, 1e-10),
                "chain_r2_ge_0.99": usage(chain["fit"]["r_squared"], 1.0, 0.99),
                }, [audit_csv, os.path.join(chain_out, "diagnostics.csv")]

    return go, check


class SpeedProbe:
    """Times a small fixed kernel every PROBE_INTERVAL_S while the workload runs.

    On a shared host the same work takes up to twice as long when neighbours
    are busy, in patches of a second to a minute.  The kernel runs from a
    SIGALRM handler between the workload's own bytecodes, so its median
    duration measures how fast the machine ran during this very operation.
    The kernel resembles the workload's own inner work: one complex FFT of
    the workload's padded grid size (none for ``audit``) and a Python loop.
    It costs about 1 % of the operation's wall time.
    """

    def __init__(self, fft_n, loop, ref_s):
        self.table = None
        if fft_n:
            import numpy
            self.table = numpy.random.default_rng(0).standard_normal((fft_n, fft_n)) + 0j
            self.ifft2 = numpy.fft.ifft2
        self.loop = loop
        self.ref_s = ref_s
        self.times = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        if self.table is not None:
            self.ifft2(self.table)
        acc = 0.0
        for i in range(self.loop):
            acc += i * 0.5
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescaled(self, seconds):
        """``seconds`` at the speed where the kernel takes ``ref_s``."""
        return seconds * self.ref_s / statistics.median(self.times)


WORKLOADS = {"trajectory64": setup_trajectory64, "inflation64": setup_inflation64,
             "identity32": setup_identity32, "audit": setup_audit}


def _versions():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f'{blas.get("name")} {blas.get("version")} '
                    f'({blas.get("openblas configuration", "")})'.strip()}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main():
    setup_probe = SpeedProbe(*SETUP_PROBE)
    with setup_probe:
        parser = argparse.ArgumentParser()
        parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--spawned-at", type=float, required=True)
        parser.add_argument("--out", required=True)
        parser.add_argument("--trace", action="store_true")
        args = parser.parse_args()

        import shearmhd
        src = os.path.realpath(os.path.join(os.getcwd(), "src"))
        if not os.path.realpath(shearmhd.__file__).startswith(src + os.sep):
            raise SystemExit(f"shearmhd imported from {shearmhd.__file__}, not from {src}")
        go, check = WORKLOADS[args.workload](args.seed, args.out)
        raw_setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    report = {"raw_setup_s": raw_setup_s,
              "setup_s": setup_probe.rescaled(raw_setup_s),
              "checks": {}, "failed_checks": [],
              "csv_sha256": {}, "error": None, "trace": None}
    probe = SpeedProbe(*PROBES[args.workload])
    t0 = time.perf_counter()
    with probe:
        try:
            result = go()
        except Exception as exc:  # the operation failed; report it, do not hide it
            report["error"] = f"{type(exc).__name__}: {exc}"
            result = None
    report["raw_wall_s"] = time.perf_counter() - t0
    report["probes"] = len(probe.times)
    if probe.times:
        report["probe_s"] = statistics.median(probe.times)
        report["wall_s"] = probe.rescaled(report["raw_wall_s"])
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary(report["raw_wall_s"], args.workload)
        with open(args.out + ".spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    if result is not None:
        checks, csvs = check(result)
        report["checks"] = checks
        report["failed_checks"] = [name for name, val in checks.items()
                                   if val is False or (val is not True and not val <= 1.0)]
        report["csv_sha256"] = {os.path.relpath(p, args.out): _sha256(p) for p in csvs}
        fractions = [v for v in checks.values() if not isinstance(v, bool)]
        report["tol_used"] = max(fractions)
    if tracer is not None and report["trace"]["missing_spans"]:
        report["failed_checks"].append(
            "trace_spans_with_zero_calls:" + ",".join(report["trace"]["missing_spans"]))
    report["versions"] = _versions()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
