"""Run experiment configs in two checkouts and compare their artifacts.

Usage:
    python tools/compare_runs.py PARENT_DIR CHANGE_DIR CONFIG...

Each CONFIG (a JSON config file) runs once per checkout as
``python -m shearmhd.cli run --config CONFIG --out DIR``, with that
checkout's ``src/`` as the only package path and a fresh output directory.
For each artifact the runs wrote (``diagnostics.csv``, ``summary.json``,
``config.json``, snapshots) it prints "identical" if the bytes agree, and
otherwise the largest relative difference per CSV column, or per number of
a JSON file, that is not 0.  The exit status is 1 if a run fails or if the
two sides differ in artifacts, CSV columns, row counts or JSON keys, and 0
otherwise, however large the differences in value.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile


class Mismatch(Exception):
    """The two artifacts differ in shape: columns, rows or keys."""


def rel_diff(a, b) -> float:
    """|a - b| / max(|a|, |b|) of two fields that parse as numbers (0 if
    both are 0); otherwise 0 if equal and inf if not."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return 0.0 if a == b else float("inf")
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def csv_diffs(text_a: str, text_b: str) -> dict:
    """Largest relative difference per column of two CSV texts, '#' comment
    lines skipped; raises Mismatch if the columns or row counts differ."""
    (head_a, *rows_a), (head_b, *rows_b) = (
        list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
        for text in (text_a, text_b))
    if head_a != head_b:
        raise Mismatch(f"columns {head_a} != {head_b}")
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a)} rows != {len(rows_b)} rows")
    worst = dict.fromkeys(head_a, 0.0)
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            raise Mismatch(f"row {ra} has other fields than {rb}")
        for col, a, b in zip(head_a, ra, rb):
            worst[col] = max(worst[col], rel_diff(a, b))
    return worst


def json_diffs(a, b, path: str = "") -> dict:
    """Relative difference per leaf of two JSON values, keyed by path;
    raises Mismatch if their keys, list lengths or kinds differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            raise Mismatch(f"keys of {path or '/'} differ: {sorted(set(a) ^ set(b))}")
        return {k: v for key in a for k, v in json_diffs(a[key], b[key],
                                                         f"{path}/{key}").items()}
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{path}: {len(a)} items != {len(b)} items")
        return {k: v for i, (x, y) in enumerate(zip(a, b))
                for k, v in json_diffs(x, y, f"{path}[{i}]").items()}
    if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        raise Mismatch(f"{path}: {type(a).__name__} != {type(b).__name__}")
    return {path: rel_diff(a, b)}


def compare(path_a: str, path_b: str):
    """None if the two files are byte-identical, else the nonzero
    differences by column (CSV) or by path (JSON); raises Mismatch."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        raw_a, raw_b = fa.read(), fb.read()
    if raw_a == raw_b:
        return None
    text_a, text_b = raw_a.decode(), raw_b.decode()
    if path_a.endswith(".json"):
        diffs = json_diffs(json.loads(text_a), json.loads(text_b))
    else:
        diffs = csv_diffs(text_a, text_b)
    return {key: d for key, d in diffs.items() if d}


def run_config(checkout: str, config: str, out: str) -> bool:
    """Run one config with ``checkout``'s package; True on exit status 0."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src")}
    cmd = [sys.executable, "-P", "-m", "shearmhd.cli", "run",
           "--config", os.path.abspath(config), "--out", out]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"  run failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    return proc.returncode == 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 3:
        print(__doc__)
        return 2
    parent, change, *configs = args
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, config in enumerate(configs):
            print(config)
            outs = [os.path.join(tmp, f"{n}_{side}") for side in ("parent", "change")]
            if not all([run_config(parent, config, outs[0]),
                        run_config(change, config, outs[1])]):
                status = 1
                continue
            names = [sorted(os.listdir(out)) for out in outs]
            if names[0] != names[1]:
                print(f"  artifacts differ: {names[0]} != {names[1]}")
                status = 1
            for name in sorted(set(names[0]) & set(names[1])):
                try:
                    diffs = compare(*(os.path.join(out, name) for out in outs))
                except Mismatch as exc:
                    print(f"  {name}: {exc}")
                    status = 1
                    continue
                if diffs is None:
                    print(f"  {name}: identical")
                elif not diffs:
                    print(f"  {name}: bytes differ, every value equal")
                else:
                    print(f"  {name}: largest relative difference")
                    for key, d in diffs.items():
                        print(f"    {key}: {d:.3g}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
