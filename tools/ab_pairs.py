"""Alternating A/B pairs of the benchmark harness on two checkouts.

Usage:
    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload NAME --pairs N
        [--seed S] [--claim METRIC]

Each pair runs ``perfbench/run.py --trace 0`` once in PARENT_DIR and once in
CHANGE_DIR (each checkout runs its own harness on its own ``src/``), both on
seed S + i for pair i, for the ``run_seconds`` of CHANGE_DIR's
``BENCHMARK.json``; the side that goes first alternates from pair to pair.
The end-to-end metrics and their bounds are read from the same file.
Printed: every run, then per metric each side's median and quartiles and
the pairs the change won; the claim rule for the metric named by
``--claim``, if any; and every other metric against its bound.  Beside them,
each side's raw wall time and probe time (``raw_wall_s``, ``probe_s``, the
medians over a run's operations, read from the record the harness writes to
``perfbench/.work/``) are reported, not judged: the rescaled ``wall_s`` is
the raw time over the probe's, so a change that also moves the probe shows
there.  The exit status is 0 if the claim holds, no bound is broken and no
operation failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(Q1, median, Q3) of at least two values (``statistics.quantiles``)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def wins(parent, change, better="lower"):
    """Pairs, in order, in which the change is strictly better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change, strict=True) if sign * (p - c) > 0)


def claim_holds(parent, change, better="lower"):
    """The rule for claiming a gain on a metric from paired runs: the change
    wins at least 9 in 10 of the pairs, and its median is better than the
    parent's by more than the parent's interquartile range."""
    q1, med, q3 = quartiles(parent)
    gap = med - statistics.median(change)
    if better != "lower":
        gap = -gap
    return 10 * wins(parent, change, better) >= 9 * len(parent) and gap > q3 - q1


def within_bound(parent, change, bound, better="lower"):
    """True unless the change's median is worse than the parent's by more
    than ``bound``, relative to the parent's median."""
    p, c = statistics.median(parent), statistics.median(change)
    worse = (c - p) if better == "lower" else (p - c)
    return worse <= bound * abs(p)


def run_once(checkout, workload, seed, seconds):
    """The result object of one harness run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


RAW = ("raw_wall_s", "probe_s")


def raw_times(checkout, workload, seed):
    """Medians of ``RAW`` over the timed untraced operations of the last
    ``--trace 0`` run of ``workload`` on ``seed`` in ``checkout``."""
    path = os.path.join(checkout, "perfbench", ".work",
                        f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        ops = [op for op in json.load(fh)["operations"]
               if "wall_s" in op and not op.get("traced")]
    return {name: statistics.median(op[name] for op in ops) for name in RAW}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--claim", help="the end-to-end metric claimed to improve")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {sorted(metrics)}")
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {name: [] for name in (*metrics, *RAW)} for side in sides}
    failed = {side: [0, 0] for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            res = run_once(sides[side], args.workload, seed, seconds)
            failed[side][0] += res["failed"]
            failed[side][1] += res["attempted"]
            run = {name: res["metrics"][name]["value"] for name in metrics}
            run.update(raw_times(sides[side], args.workload, seed))
            for name, value in run.items():
                values[side][name].append(value)
            print(f"pair {i + 1:2d} seed {seed} {side:6s} " + "  ".join(
                f"{name} {value:.4f}" if name in metrics else f"{name} {value:.4g}"
                for name, value in run.items()), flush=True)

    ok = True
    print(f"\n{args.workload}: {args.pairs} pairs from seed {args.seed}, {seconds:g} s runs")
    for name, spec in metrics.items():
        par, chg = values["parent"][name], values["change"][name]
        for side, vals in (("parent", par), ("change", chg)):
            q1, med, q3 = quartiles(vals)
            print(f"  {name:12s} {side:6s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}")
        rel = statistics.median(chg) / statistics.median(par) - 1.0
        better = spec.get("better", "lower")
        print(f"  {name:12s} change {rel:+.1%} of the parent's median, "
              f"won {wins(par, chg, better)}/{args.pairs} pairs")
        if name == args.claim:
            holds = claim_holds(par, chg, better)
            print(f"  {name:12s} claim (wins >= 9/10 and median gap > parent IQR): "
                  f"{'holds' if holds else 'does not hold'}")
            ok &= holds
        else:
            inside = within_bound(par, chg, spec["bound"], better)
            print(f"  {name:12s} bound {spec['bound']:g} relative: "
                  f"{'within' if inside else 'BROKEN'}")
            ok &= inside
    for name in RAW:
        par, chg = values["parent"][name], values["change"][name]
        for side, vals in (("parent", par), ("change", chg)):
            q1, med, q3 = quartiles(vals)
            print(f"  {name:12s} {side:6s} median {med:10.4g}  Q1 {q1:10.4g}  Q3 {q3:10.4g}")
        print(f"  {name:12s} change {statistics.median(chg) / statistics.median(par) - 1.0:+.1%}"
              f" of the parent's median, lower in {wins(par, chg)}/{args.pairs} pairs (reported)")
    for side in sides:
        print(f"  failed operations, {side}: {failed[side][0]}/{failed[side][1]}")
        ok &= failed[side][0] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
