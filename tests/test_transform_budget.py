"""Transform budgets of the callers of the padded transform pipeline.

Every padded transform goes through ``ProductWorkspace.phys`` (inverse) or
``ProductWorkspace.spec`` (forward), each one batched call over a stack of
tables.  Counting the calls and the tables they transform pins how much
transform work the solver's quadratic terms, the energy identity and the
partition pairing do, so a refactor cannot add transforms unnoticed.
"""

import numpy as np
import pytest

from shearmhd import dynamics
from shearmhd.diagnostics import identity_sides
from shearmhd.dynamics import VBIntegrator, quadratic_terms
from shearmhd.experiments import gevrey_random_data
from shearmhd.partition import _pairing_fft
from shearmhd.spectral import Grid, ProductWorkspace
from shearmhd.unknowns import state_to_tailored
from shearmhd.weights import MultiplierSet, WeightParams

PAR = WeightParams(rho=0.004, lam0=1.3, s=0.6, alpha=1.0, c0=0.05, eps=1e-3)


@pytest.fixture
def counts(monkeypatch):
    """Tables transformed by each call, per method: {"phys": [...], "spec": [...]}."""
    tally = {"phys": [], "spec": []}

    def counting(name):
        original = getattr(ProductWorkspace, name)

        def wrapper(self, stack):
            tally[name].append(int(np.prod(stack.shape[:-2])))
            return original(self, stack)
        return wrapper

    for name in tally:
        monkeypatch.setattr(ProductWorkspace, name, counting(name))
    return tally


def total_tables(counts):
    return sum(counts["phys"]) + sum(counts["spec"])


@pytest.fixture
def state():
    return gevrey_random_data(Grid(16, 16, 1.0), PAR, seed=3, eps=1e-3, lam1=1.5)


def test_quadratic_terms(counts, state):
    g = state.grid
    quadratic_terms(g, state.v, state.b, 0.4, ProductWorkspace(g))
    assert counts == {"phys": [8], "spec": [2]}


def test_vb_rhs_projects_nothing(monkeypatch, counts, state):
    # the curl-form terms are divergence-free as built; only cleanup projects
    def forbidden(*args):
        raise AssertionError("VBIntegrator.rhs called leray_project_t")

    monkeypatch.setattr(dynamics, "leray_project_t", forbidden)
    integ = VBIntegrator(state.grid, PAR.alpha)
    integ.rhs(0.4, integ.pack(state))
    assert counts == {"phys": [8], "spec": [2]}


def test_identity_sides(counts, state):
    state.t = 0.4
    identity_sides(state_to_tailored(state, PAR.alpha),
                   MultiplierSet(state.grid, 0.4, PAR), PAR.alpha)
    assert 0 < total_tables(counts) <= 44


def test_pairing_fft(counts, state):
    g = state.grid
    A = MultiplierSet(g, 0.4, PAR).A
    _pairing_fft(g, A, state.v, state.b, state.v, 0.4, ProductWorkspace(g))
    assert 0 < total_tables(counts) <= 14
