"""Transform budgets of the callers of the padded transform pipeline.

Every padded transform goes through ``ProductWorkspace.phys`` (inverse) or
``ProductWorkspace.spec`` (forward), each one batched call over a stack of
tables.  Counting the calls and the tables they transform pins how much
transform work the solver's quadratic terms, the energy identity and the
partition pairing do, so a refactor cannot add transforms unnoticed; the
padded points per call pin the grid size, so padding past the alias bound
cannot return unnoticed either.  The integrators step the compact
half-spectrum, so the stacks their right-hand sides hand to ``phys`` must
have its shape, not the full table's.

The grid-wide linear ptilde reference is diagonal in modes and has a
budget of zero: no transform and no ``ShearSymbols`` build, so integrator
work cannot creep back into it unnoticed.

``phys`` reuses one set of buffers per stack shape, so after its first
call with a shape it allocates (almost) nothing: fresh temporaries of that
size would be mapped and page-faulted anew on every call.

The weight audit is budgeted the same way in calls of ``log_q``: each lemma
row evaluates q over all its samples at once, so a loop of scalar calls
cannot creep back unnoticed.
"""

import tracemalloc

import numpy as np
import pytest

from shearmhd import dynamics, weights, weights_audit
from shearmhd.diagnostics import identity_sides
from shearmhd.dynamics import (PtildeIntegrator, VBIntegrator,
                               propagate_linear_grid, quadratic_terms)
from shearmhd.experiments import gevrey_random_data
from shearmhd.partition import _pairing_fft
from shearmhd.spectral import (Grid, ProductWorkspace, random_hermitian_coeffs,
                               shear_symbols)
from shearmhd.unknowns import state_to_tailored
from shearmhd.weights import MultiplierSet, WeightParams
from shearmhd.weights_audit import run_weights_audit

PAR = WeightParams(rho=0.004, lam0=1.3, s=0.6, alpha=1.0, c0=0.05, eps=1e-3)


@pytest.fixture
def phys_shapes():
    """Table shape of every stack handed to ``phys``, filled by ``counts``."""
    return []


@pytest.fixture
def points():
    """Padded grid points transformed by each call (tables times
    ``Mx * My``), per method, filled by ``counts``."""
    return {"phys": [], "spec": []}


@pytest.fixture
def counts(monkeypatch, phys_shapes, points):
    """Tables transformed by each call, per method: {"phys": [...], "spec": [...]}."""
    tally = {"phys": [], "spec": []}

    def counting(name):
        original = getattr(ProductWorkspace, name)

        def wrapper(self, stack):
            tally[name].append(int(np.prod(stack.shape[:-2])))
            points[name].append(tally[name][-1] * self.Mx * self.My)
            if name == "phys":
                phys_shapes.append(stack.shape[-2:])
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
    lay = state.grid.compact
    quadratic_terms(lay, lay.pack(state.v), lay.pack(state.b), 0.4,
                    ProductWorkspace(state.grid))
    assert counts == {"phys": [8], "spec": [2]}


def test_quadratic_terms_padded_points(counts, points):
    # 64 is not divisible by 3, so the alias bound pads 64^2 to itself
    g = Grid(64, 64, 1.0)
    st = gevrey_random_data(g, PAR, seed=3, eps=1e-3, lam1=1.5)
    quadratic_terms(g.compact, g.compact.pack(st.v), g.compact.pack(st.b), 0.4,
                    ProductWorkspace(g))
    assert counts == {"phys": [8], "spec": [2]}
    assert points == {"phys": [8 * 64 * 64], "spec": [2 * 64 * 64]}


def test_vb_rhs_projects_nothing(monkeypatch, counts, state):
    # the curl-form terms are divergence-free as built; only cleanup projects
    def forbidden(*args):
        raise AssertionError("VBIntegrator.rhs called leray_project_t")

    monkeypatch.setattr(dynamics, "leray_project_t", forbidden)
    integ = VBIntegrator(state.grid, PAR.alpha)
    integ.rhs(0.4, integ.pack(state))
    assert counts == {"phys": [8], "spec": [2]}


def compact_shape(grid):
    # retained k in [-Nx/3, Nx/3], retained eta >= 0 up to Ny/3
    return (2 * (grid.Nx // 3) + 1, grid.Ny // 3 + 1)


def compact_stack(grid, depth, rng):
    return grid.compact.pack(np.stack([random_hermitian_coeffs(grid, rng) * grid.dealias_keep
                                       for _ in range(depth)]))


def test_phys_reuses_buffers_exactly():
    g = Grid(64, 64, 1.0)
    rng = np.random.default_rng(5)
    ws = ProductWorkspace(g)
    for depth in (8, 10, 8):
        c = compact_stack(g, depth, rng)
        assert np.array_equal(ws.phys(c), ProductWorkspace(g).phys(c))
    c = compact_stack(g, 8, rng)  # the loop's depth-8 calls were the warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ws.phys(c)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < ws.Mx * g.compact.shape[1] * 16 == 64 * 22 * 16


def test_integrators_hand_compact_stacks_to_phys(counts, phys_shapes, state):
    g = state.grid
    vb = VBIntegrator(g, PAR.alpha)
    vb.rhs(0.4, vb.pack(state))
    pt = PtildeIntegrator(g, PAR.alpha)
    pt.rhs(0.4, pt.pack(state_to_tailored(state, PAR.alpha)))
    assert counts == {"phys": [8, 8], "spec": [2, 2]}
    assert phys_shapes == [compact_shape(g)] * 2 == [(11, 6)] * 2


def test_linear_reference_does_no_integrator_work(counts, state):
    ptilde = state_to_tailored(state, PAR.alpha).ptilde
    misses = shear_symbols.cache_info().misses
    propagate_linear_grid(state.grid, ptilde, 0.1, 0.6, PAR.alpha)
    assert counts == {"phys": [], "spec": []}
    assert shear_symbols.cache_info().misses == misses


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


def test_weights_audit_log_q_calls(monkeypatch):
    calls = []
    original = weights.log_q

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # weights_audit binds log_q by name; the J multipliers reach it in weights
    for module in (weights, weights_audit):
        monkeypatch.setattr(module, "log_q", counting)
    run_weights_audit(WeightParams(), 1e4, 24, 0)
    assert 0 < len(calls) <= 64
