"""Transform budgets of the callers of the padded advection kernel.

Every padded transform goes through ``ProductWorkspace.phys`` (inverse) or
``ProductWorkspace.spec`` (forward).  Counting those calls pins how many
transforms the solver's quadratic terms, the energy identity and the
partition pairing make, so a refactor cannot add transforms unnoticed.
"""

import pytest

from shearmhd.diagnostics import identity_sides
from shearmhd.dynamics import quadratic_terms
from shearmhd.experiments import gevrey_random_data
from shearmhd.partition import _pairing_fft
from shearmhd.spectral import Grid, ProductWorkspace
from shearmhd.unknowns import state_to_tailored
from shearmhd.weights import MultiplierSet, WeightParams

PAR = WeightParams(rho=0.004, lam0=1.3, s=0.6, alpha=1.0, c0=0.05, eps=1e-3)


@pytest.fixture
def counts(monkeypatch):
    tally = {"phys": 0, "spec": 0}

    def counting(name):
        original = getattr(ProductWorkspace, name)

        def wrapper(self, *args, **kwargs):
            tally[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    for name in tally:
        monkeypatch.setattr(ProductWorkspace, name, counting(name))
    return tally


@pytest.fixture
def state():
    return gevrey_random_data(Grid(16, 16, 1.0), PAR, seed=3, eps=1e-3, lam1=1.5)


def test_quadratic_terms(counts, state):
    g = state.grid
    quadratic_terms(g, state.v, state.b, 0.4, ProductWorkspace(g))
    assert counts == {"phys": 12, "spec": 4}


def test_identity_sides(counts, state):
    state.t = 0.4
    identity_sides(state_to_tailored(state, PAR.alpha),
                   MultiplierSet(state.grid, 0.4, PAR), PAR.alpha)
    assert 0 < counts["phys"] + counts["spec"] <= 44


def test_pairing_fft(counts, state):
    g = state.grid
    A = MultiplierSet(g, 0.4, PAR).A
    _pairing_fft(g, A, state.v, state.b, state.v, 0.4, ProductWorkspace(g))
    assert 0 < counts["phys"] + counts["spec"] <= 14
