"""shearmhd benchmark: whole workloads, each operation in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory that holds
``src/shearmhd``).  It starts ``op.py`` again and again, one process at a
time, until ``--seconds`` are used up (at least three operations, four when
tracing).  Every operation runs one workload once, from process start, on
initial data made from ``--seed``, and checks its outputs; every operation
after the first must write byte-identical CSV files.

With ``--trace 0`` the result carries the end-to-end metrics: medians over the
operations of ``wall_s``, ``setup_s`` (both rescaled to a reference machine
speed, see ``SpeedProbe`` in ``op.py``) and ``peak_rss_mb``.  With
``--trace 1`` every second operation is traced (see
``tracing.py``) and the result carries the per-layer metrics (medians over
the traced operations) and the tracing overhead against the untraced ones.
The last line of standard output is the result as one JSON object; the lines
before it are a readable table and the run's metadata.  The full record,
every operation included, is written to ``perfbench/.work/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from op import WORKLOADS
from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
HARD_LIMIT_S = 150.0   # stop starting operations well before 180 s
OP_TIMEOUT_S = 60.0


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def run_op(root, workload, seed, out, traced, timeout):
    env = dict(os.environ, **THREAD_ENV)
    # let the package's bytecode be cached, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "op.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    if traced:
        cmd.append("--trace")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable report: {lines[-1][:200]}"}


def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten values above it."""
    n = len(values)
    rank = n - 10
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shearmhd", "__init__.py")):
        print(f"error: {root} holds no src/shearmhd; run from the root of a "
              "shearmhd checkout", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    seed = args.seed % 2**32
    min_ops = 4 if args.trace else 3

    ops = []
    durations = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = bool(args.trace) and len(ops) % 2 == 1
        timeout = min(OP_TIMEOUT_S, max(1.0, HARD_LIMIT_S - elapsed))
        out = os.path.join(work, f"op{len(ops)}")
        t_op = time.monotonic()
        rep = run_op(root, args.workload, seed, out, traced, timeout)
        rep["traced"] = traced
        ops.append(rep)
        durations.append(time.monotonic() - t_op)
        elapsed = time.monotonic() - start
        if elapsed + max(durations) > HARD_LIMIT_S:
            break
        if len(ops) >= min_ops and elapsed + statistics.median(durations) > args.seconds:
            break

    reference = next((op["csv_sha256"] for op in ops if op.get("csv_sha256")), None)
    for op in ops:
        reasons = []
        if op.get("error"):
            reasons.append(op["error"])
        reasons += op.get("failed_checks", [])
        if op.get("csv_sha256") and op["csv_sha256"] != reference:
            reasons.append("diagnostics CSV differs from the first operation of this seed")
        op["failure"] = reasons

    failed = sum(1 for op in ops if op["failure"])
    timed = [op for op in ops if "wall_s" in op]
    plain = [op for op in timed if not op["traced"]]
    traced_ops = [op for op in timed if op["traced"]]
    if not plain or (args.trace and not traced_ops):
        print(f"error: no operation produced timings: {ops[-1].get('error')}",
              file=sys.stderr)
        return 1

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"operations {len(ops)} ({failed} failed, {len(traced_ops)} traced)"]
    e2e = {name: statistics.median(op[name] for op in plain) for name in END_TO_END}
    walls = [op["wall_s"] for op in plain]
    raw = [op["raw_wall_s"] for op in plain]
    probes = [1e6 * op["probe_s"] for op in plain]
    tail = tail_percentile(walls)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                f"no percentile has ten runs beyond it at n={len(walls)}")
    lines.append(f"  wall_s       {e2e['wall_s']:10.4f} s    median of {len(walls)}, rescaled "
                 f"to the probe's reference speed; min {min(walls):.4f}, "
                 f"max {max(walls):.4f}; {tail_txt}")
    lines.append(f"  raw wall     {statistics.median(raw):10.4f} s    median; min {min(raw):.4f}, "
                 f"max {max(raw):.4f}; probe median {statistics.median(probes):.1f} us "
                 f"(min {min(probes):.1f}, max {max(probes):.1f})")
    lines.append(f"  setup_s      {e2e['setup_s']:10.4f} s    median of {len(plain)}, rescaled; "
                 f"raw median {statistics.median(op['raw_setup_s'] for op in plain):.4f} s")
    lines.append(f"  peak_rss_mb  {e2e['peak_rss_mb']:10.2f} MB   median of {len(plain)}")
    lines.append(f"  fail_ratio   {failed / len(ops):10.4f} ratio {failed}/{len(ops)} "
                 "(the result's failed/attempted)")
    worst = max((op for op in ops if "tol_used" in op), key=lambda op: op["tol_used"],
                default=None)
    if worst:
        top = max((k for k, v in worst["checks"].items() if not isinstance(v, bool)),
                  key=lambda k: worst["checks"][k])
        lines.append(f"  tol_used     {worst['tol_used']:10.6f} ratio largest share of a "
                     f"tolerance used ({top}); the same on every operation of one seed")
    for op in ops:
        if op["failure"]:
            lines.append(f"  FAILED: {'; '.join(op['failure'])}")

    if args.trace:
        layer = {name: statistics.median(op["trace"]["metrics"][name] for op in traced_ops)
                 for name in LAYER_METRICS}
        layer["trace.overhead"] = (statistics.median(op["wall_s"] for op in traced_ops)
                                   / e2e["wall_s"] - 1.0)
        lines.append(f"  per-layer (median of {len(traced_ops)} traced operations; "
                     "bytes_computed, table_bytes, flops_est and per_step are computed):")
        for name, (unit, _) in LAYER_METRICS.items():
            lines.append(f"    {name:40s} {layer[name]:16.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": LAYER_METRICS[name][0]}
                   for name in LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    meta = {
        "git_sha": git_sha(root),
        "versions": next((op["versions"] for op in ops if "versions" in op), None),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "child_thread_env": THREAD_ENV,
        "load": "one operation process at a time; numpy's FFTs are single-threaded "
                "and BLAS threads are pinned to 1",
        "machine_settings": "none changed: no CPU affinity, frequency governor, "
                            "huge pages or page-cache drops; in-process timers only",
        "rescaling": "wall_s and setup_s are rescaled by an in-process probe kernel's "
                     "speed; raw times are in each operation's record",
    }
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(work, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result, "operations": ops}, fh, indent=1)
    print("\n".join(lines))
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
