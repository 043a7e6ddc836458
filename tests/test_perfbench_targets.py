"""The benchmark's tracer wraps package functions by name; keep them bound.

``perfbench/tracing.py`` replaces every ``TARGETS`` entry at run time, reading
``Class.method`` entries from the class's own ``__dict__``.  A refactor that
renames, moves or inherits one of them breaks the traced benchmark run; this
test makes it break the test suite instead.  It only reads ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
