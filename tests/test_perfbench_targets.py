"""The benchmark's tracer wraps package functions by name; keep them bound.

``perfbench/tracing.py`` replaces every ``TARGETS`` entry at run time, reading
``Class.method`` entries from the class's own ``__dict__``.  A refactor that
renames, moves or inherits one of them breaks the traced benchmark run; this
test makes it break the test suite instead.  A traced benchmark operation
also fails when a span of its workload's ``EXPECTED`` list records no call,
so small versions of the four workloads run under the tracer here.  It only
reads ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

STABILITY = {"rho": 0.004, "lam0": 1.1, "s": 0.6, "N": 5, "alpha": 1.0,
             "c0": 0.05, "eps": 1e-3}
GEVREY = {"kind": "gevrey_random", "seed": 2, "eps": 1e-3, "lam1": 1.2}

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for span, modname, attr in tracing.TARGETS:
        owner = importlib.import_module("shearmhd." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            assert meth in cls.__dict__, f"{span}: {attr} is not defined on {cls_name} itself"
        else:
            assert callable(getattr(owner, attr)), f"{span}: {modname}.{attr}"


def test_step_hooks_resolve():
    # the tracer also wraps evolve (reading its dt argument) and cfl_dt
    dynamics = importlib.import_module("shearmhd.dynamics")
    assert "dt" in inspect.signature(dynamics.evolve).parameters
    assert callable(dynamics.cfl_dt)


def _run(out, data):
    """Set-up of one ``experiments.run``; the returned call looks ``run`` up
    on its module, so that it runs the tracer's wrapper."""
    from shearmhd import experiments
    cfg = experiments.ExperimentConfig.from_dict(data)
    return lambda: experiments.run(cfg, str(out))


def _stability_run(out, experiment, **extra):
    return _run(out, {"experiment": experiment, "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
                      "params": STABILITY, "initial": GEVREY, **extra})


def _trajectory(out):
    return _stability_run(out, "nonlinear_ideal", evolution={"dt": 0.02, "t_end": 5.0},
                          monitor={"sample_dt": 0.5}, output={"snapshots": 5})


def _inflation(out):
    return _stability_run(out, "norm_inflation", evolution={"dt": 0.02, "t_end": 2.0},
                          monitor={"sample_dt": 1.0})


def _identity(out):
    from shearmhd import diagnostics, partition
    from shearmhd import io as sio
    from shearmhd.experiments import gevrey_random_data
    from shearmhd.spectral import Grid
    from shearmhd.unknowns import state_to_tailored
    from shearmhd.weights import WeightParams
    params = WeightParams(**STABILITY)
    state = gevrey_random_data(Grid(16, 16, 1.0), params, seed=2, eps=1e-3, lam1=1.2)
    ts0 = state_to_tailored(state, params.alpha)
    state.t = 1.3

    def go():
        res = diagnostics.energy_identity_residuals(ts0, params, params.alpha,
                                                    t_end=0.3, dt=2e-3, stride=2)
        part = partition.nl_partition_check(state, params)
        sio.write_csv(str(out / "identity.csv"), ["t", "residual"], res,
                      {"rel_mismatch": part["rel_mismatch"]})
    return go


def _audit(out):
    audit = _run(out / "audit", {"experiment": "weights_audit",
                                 "audit": {"eta_max": 1e4, "n_eta": 12, "seed": 0}})
    chain = _run(out / "chain", {"experiment": "resonance_chain",
                                 "chain": {"c0": 0.5, "etas": [100.0, 1000.0]}})
    return lambda: (audit(), chain())


# small versions of the workloads: each sets up, as op.py does, untraced and
# returns the call that runs traced
SMALL = {"trajectory64": _trajectory, "inflation64": _inflation,
         "identity32": _identity, "audit": _audit}


@pytest.mark.parametrize("workload", SMALL)
def test_traced_workload_records_every_expected_span(tmp_path, workload):
    go = SMALL[workload](tmp_path)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        go()
    finally:
        tracer.uninstall()
    assert tracer.summary(1.0, workload)["missing_spans"] == []
