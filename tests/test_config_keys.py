"""The config contract of ``experiments.KEYS``, walked key by key.

For every experiment, data kind and leaf key, a value other than the
default is either refused (by ``validate``, or by ``run`` before its first
step) or changes the run's artifacts.  The refusal half validates only; the
change half runs each read key once per experiment that reads it, under the
first data kind (in ``KINDS`` order) that reads it, on an 8^2 grid over a
short horizon.
"""

import json
import os

import pytest

from shearmhd.experiments import (EXPERIMENTS, KEYS, KINDS, ConfigError,
                                  ExperimentConfig, gevrey_random_data, run)
from shearmhd.io import write_state_snapshot
from shearmhd.spectral import Grid
from shearmhd.unknowns import leray_project_t

SNAPSHOT_T = 0.1  # file data start here, where m != 1

# the walk's base values, set where the run reads them: the growth fit's 10
# samples from SNAPSHOT_T, and a short span for linear_modes, whose scaling
# evolves its data four times at dt = 0.01
BASE = {"grid": {"Nx": 8, "Ny": 8}, "evolution": {"dt": 0.1, "t_end": 1.2, "nu": 1e-3},
        "monitor": {"sample_dt": 0.1}, "audit": {"eta_max": 100.0, "n_eta": 4},
        "chain": {"etas": [50.0, 200.0]}}
LINEAR_MODES_T_END = 0.2

# one value per key, other than the default and other than BASE's
PERTURBED = {
    "grid": {"Nx": 10, "Ny": 10, "Ly": 2.0},
    # c0 = 0.0011 puts norm_inflation's horizon min(t_end, c0/eps) at 1.1
    "params": {"rho": 0.003, "lam0": 1.3, "s": 0.8, "N": 6, "alpha": 2.0, "c0": 0.0011,
               "eps": 1.2e-3},
    "evolution": {"dt": 0.08, "t_end": 1.0, "nu": 2e-3, "kappa": 1e-3,
                  "symbol_variant": "mixed"},
    "initial": {"kind": "single_mode", "seed": 8, "eps": 1.2e-3, "lam1": 1.5, "k": 2,
                "eta_index": 1, "amplitude": 2e-8, "component": "b", "path": "other"},
    "monitor": {"lam2": 0.8, "sample_dt": 0.08, "hminus1_gate_K": 0.5, "c_star": 2.0},
    "audit": {"eta_max": 80.0, "n_eta": 3, "seed": 1},
    "chain": {"c0": 0.4, "etas": [50.0, 100.0], "bridge": True},
    "output": {"snapshots": 2},
}

# (experiment, kind, key) that the run reads but that leave its artifacts
# unchanged at these sizes; each is run and checked to stay unchanged
INERT = {
    ("nl_partition", "gevrey_random", "params.alpha"):
        "m = 1 at t = 0, the time of generated data; a snapshot at t > 0 shows it",
    ("nl_partition", "gevrey_random", "params.c0"):
        "m's cutoff 10 c0/eps >= 10 is above every retained sqrt|eta|",
}


def kinds_of(experiment):
    """The data kinds an experiment runs with: those whose initial.kind it
    reads; one that builds no data runs with the default kind only."""
    return [k for k in KINDS if ExperimentConfig(experiment, initial={"kind": k}).reads(
        "initial", "kind")] or [KINDS[0]]


def keys():
    return [(section, key) for section in KEYS for key in KEYS[section]]


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """Two snapshot files of 8^2 random data at SNAPSHOT_T."""
    grid, params = Grid(8, 8, 1.0), ExperimentConfig().weight_params()
    paths = []
    for seed in (1, 2):
        state = gevrey_random_data(grid, params, seed, 1e-3, 1.2)
        state.vb, state.t = leray_project_t(grid, state.vb, SNAPSHOT_T), SNAPSHOT_T
        paths.append(str(tmp_path_factory.mktemp("snap") / f"s{seed}.txt"))
        write_state_snapshot(paths[-1], state)
    return paths


def config_data(experiment, kind, snapshots, changed=None):
    """The walk's base config for (experiment, kind), with ``changed``, a
    (section, key) of PERTURBED, set; the two eps move together where the
    run reads both."""
    probe = ExperimentConfig(experiment, initial={"kind": kind})
    data = {section: {k: v for k, v in values.items() if probe.reads(section, k)}
            for section, values in BASE.items()}
    data.update(experiment=experiment, initial={"kind": kind})
    if experiment == "linear_modes":
        data["evolution"]["t_end"] = LINEAR_MODES_T_END
    if kind == "file":
        data["initial"]["path"] = snapshots[0]
    if changed:
        section, key = changed
        value = snapshots[1] if changed == ("initial", "path") else PERTURBED[section][key]
        data.setdefault(section, {})[key] = value
        if key == "eps" and probe.reads("initial", "eps"):
            data["initial"]["eps"] = data.setdefault("params", {})["eps"] = value
    return data


def artifacts(outdir):
    """Every file a run wrote but config.json, without comment lines and
    the config hash."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name)) as fh:
            text = fh.read()
        if name == "summary.json":
            out[name] = json.loads(text)["summary"]
        elif name != "config.json":
            out[name] = [line for line in text.splitlines() if not line.startswith("#")]
    return out


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_unread_keys_are_refused(experiment, snapshots):
    for kind in kinds_of(experiment):
        base = ExperimentConfig.from_dict(config_data(experiment, kind, snapshots))
        for section, key in keys():
            if base.reads(section, key):
                continue
            with pytest.raises(ConfigError, match=rf"{section}\.{key} = .* not read by"):
                ExperimentConfig.from_dict(config_data(experiment, kind, snapshots,
                                                       (section, key)))


def walk_runs():
    """(experiment, kind, section, key) of the change half: each read key
    under the first kind that reads it, and every INERT entry."""
    out = set()
    for experiment in EXPERIMENTS:
        for section, key in keys():
            kinds = [k for k in kinds_of(experiment) if ExperimentConfig(
                experiment, initial={"kind": k}).reads(section, key)]
            if kinds:
                out.add((experiment, kinds[0], section, key))
    out |= {(e, kind, *name.split(".")) for e, kind, name in INERT}
    return sorted(out)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_read_keys_change_the_run(experiment, snapshots, tmp_path):
    base = {}
    silent = []
    for e, kind, section, key in walk_runs():
        if e != experiment:
            continue
        if kind not in base:
            run(ExperimentConfig.from_dict(config_data(experiment, kind, snapshots)),
                str(tmp_path / kind))
            base[kind] = artifacts(tmp_path / kind)
        name = f"{section}.{key}"
        out = tmp_path / f"{kind}-{name}"
        try:
            run(ExperimentConfig.from_dict(config_data(experiment, kind, snapshots,
                                                       (section, key))), str(out))
            changed = artifacts(out) != base[kind]
        except ConfigError:
            # refused: by validate, or by run before its first step
            assert (experiment, kind, name) not in INERT
            continue
        if changed == ((experiment, kind, name) in INERT):
            silent.append((kind, name, "changed" if changed else "unchanged"))
    assert not silent, f"{experiment}: read keys that changed nothing, or INERT keys " \
                       f"that did: {silent}"
