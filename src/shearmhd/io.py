"""Artifact files: field snapshots, diagnostics CSV, JSON summaries.

Field snapshot format (text, versioned):

    # shearmhd-field-snapshot v1
    # {"Nx": ..., "Ny": ..., "Ly": ..., "t": ..., "components": [...], ...}
    component,k,eta_index,re,im
    v1,0,1,1.0e-3,0.0
    ...

Rows carry only nonzero coefficients; k and eta_index are the signed integer
mode numbers (eta = eta_index / Ly).  Every artifact written by the runner
embeds the full experiment config and its sha256 so outputs are traceable to
their inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from .spectral import Grid
from .unknowns import MHDState

SNAPSHOT_MAGIC = "# shearmhd-field-snapshot v1"
COMPONENTS = ("v1", "v2", "b1", "b2")  # the tables of MHDState.vb in C order


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, colnames, rows, header: dict | None = None):
    with open(path, "w") as fh:
        if header:
            for key, val in header.items():
                fh.write(f"# {key}: {canonical_json(val) if isinstance(val, (dict, list)) else val}\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(colnames)
        out.writerows([_fmt(v) for v in row] for row in rows)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_state_snapshot(path: str, state: MHDState):
    g = state.grid
    header = {"Nx": g.Nx, "Ny": g.Ny, "Ly": g.Ly, "t": state.t,
              "components": list(COMPONENTS)}
    kvals = np.fft.fftfreq(g.Nx, 1.0 / g.Nx).astype(int)
    nvals = np.fft.fftfreq(g.Ny, 1.0 / g.Ny).astype(int)
    with open(path, "w") as fh:
        fh.write(SNAPSHOT_MAGIC + "\n")
        fh.write("# " + canonical_json(header) + "\n")
        fh.write("component,k,eta_index,re,im\n")
        for name, table in zip(COMPONENTS, (*state.v, *state.b)):
            # one string per table, its rows in C order
            i, j = np.nonzero(table)
            c = table[i, j]
            fh.write("".join(f"{name},{k},{n},{re:.17g},{im:.17g}\n" for k, n, re, im in zip(
                kvals[i].tolist(), nvals[j].tolist(), c.real.tolist(), c.imag.tolist())))


def read_state_snapshot(path: str) -> MHDState:
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a shearmhd snapshot: {path}")
        header = json.loads(fh.readline().lstrip("# ").strip())
        cols = fh.readline().strip().split(",")
        if cols != ["component", "k", "eta_index", "re", "im"]:
            raise ValueError("unexpected snapshot column layout")
        if header.get("components") != list(COMPONENTS):
            raise ValueError(f"snapshot components must be {list(COMPONENTS)}")
        grid = Grid(header["Nx"], header["Ny"], header["Ly"])
        vb = np.zeros((2, 2, *grid.shape), dtype=np.complex128)
        tables = dict(zip(COMPONENTS, (*vb[0], *vb[1])))  # views into vb
        seen = set()
        for line in fh:
            name, k, n, re, im = line.strip().split(",")
            k, n = int(k), int(n)
            # the writer's range, each row once: anything else would alias
            if not (-grid.Nx // 2 <= k < grid.Nx // 2 and -grid.Ny // 2 <= n < grid.Ny // 2):
                raise ValueError(f"mode (k, eta_index) = ({k}, {n}) is not on the grid")
            if (name, k, n) in seen:
                raise ValueError(f"repeated row for {name} at (k, eta_index) = ({k}, {n})")
            seen.add((name, k, n))
            tables[name][k % grid.Nx, n % grid.Ny] = float(re) + 1j * float(im)
    return MHDState(grid, vb, float(header["t"]))


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path

