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

``phys`` and ``spec`` reuse one set of buffers per stack shape, and the
quadratic kernel forms its products in the workspace's scratch tables, so
after the first call with a shape ``phys`` allocates (almost) nothing and
``spec`` only its compact result: fresh padded temporaries would be mapped
and page-faulted anew on every call at large grids.

The weight audit is budgeted the same way in calls of ``log_q``: each lemma
row evaluates q over all its samples at once, so a loop of scalar calls
cannot creep back unnoticed.

Samples read the compact tables the integrators step, so the run paths
have a budget of zero ``CompactLayout.unpack`` calls, one per snapshot
file written.  Every sample function reads the layout's multiplicity, and
gives the same value on a compact state as on its unpacked full tables;
the energy-identity terms are checked against their full-table formulas.
"""

import math
import tracemalloc

import numpy as np
import pytest

from shearmhd import diagnostics, dynamics, weights, weights_audit
from shearmhd.diagnostics import (dissipation_terms, energy_E, energy_E0,
                                  energy_identity_residuals, gevrey_norm,
                                  identity_sides, make_record)
from shearmhd.dynamics import (PtildeIntegrator, VBIntegrator,
                               propagate_linear_grid, ptilde_coupling,
                               quadratic_terms, route_equivalence_run)
from shearmhd.experiments import ExperimentConfig, gevrey_random_data, run
from shearmhd.partition import _pairing_fft, nl_partition_check
from shearmhd.spectral import (CompactLayout, Grid, ProductWorkspace, l2_norm,
                               random_hermitian_coeffs, shear_symbols)
from shearmhd.unknowns import (MHDState, TailoredState, hminus1_norm,
                               perp_grad_t, ptilde_correction_symbol,
                               state_to_tailored, tailored_to_state)
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
    quadratic_terms(lay, lay.pack(state.vb), 0.4, ProductWorkspace(state.grid))
    assert counts == {"phys": [4], "spec": [3]}


def test_quadratic_terms_padded_points(counts, points):
    # 64 is not divisible by 3, so the alias bound pads 64^2 to itself
    g = Grid(64, 64, 1.0)
    st = gevrey_random_data(g, PAR, seed=3, eps=1e-3, lam1=1.5)
    quadratic_terms(g.compact, g.compact.pack(st.vb), 0.4, ProductWorkspace(g))
    assert counts == {"phys": [4], "spec": [3]}
    assert points == {"phys": [4 * 64 * 64], "spec": [3 * 64 * 64]}


def test_vb_rhs_projects_nothing(monkeypatch, counts, state):
    # the curl-form terms are divergence-free as built; only cleanup projects
    def forbidden(*args):
        raise AssertionError("VBIntegrator.rhs called leray_project_t")

    monkeypatch.setattr(dynamics, "leray_project_t", forbidden)
    integ = VBIntegrator(state.grid, PAR.alpha)
    integ.rhs(0.4, integ.pack(state))
    assert counts == {"phys": [4], "spec": [3]}


def compact_shape(grid):
    # retained k in [-Nx/3, Nx/3], retained eta >= 0 up to Ny/3
    return (2 * (grid.Nx // 3) + 1, grid.Ny // 3 + 1)


def compact_stack(grid, depth, rng):
    return grid.compact.pack(np.stack([random_hermitian_coeffs(grid, rng) * grid.dealias_keep
                                       for _ in range(depth)]))


def traced_peak(fn):
    """Peak bytes allocated while ``fn()`` runs, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_phys_reuses_buffers_exactly():
    g = Grid(64, 64, 1.0)
    rng = np.random.default_rng(5)
    ws = ProductWorkspace(g)
    for depth in (8, 10, 8):
        c = compact_stack(g, depth, rng)
        assert np.array_equal(ws.phys(c), ProductWorkspace(g).phys(c))
    c = compact_stack(g, 8, rng)  # the loop's depth-8 calls were the warm-up
    assert traced_peak(lambda: ws.phys(c)) < ws.Mx * g.compact.shape[1] * 16 == 64 * 22 * 16


def test_spec_reuses_buffers_exactly():
    g = Grid(64, 64, 1.0)
    rng = np.random.default_rng(6)
    ws = ProductWorkspace(g)
    for depth in (3, 2, 3):
        vals = rng.standard_normal((depth, ws.Mx, ws.My))
        assert np.array_equal(ws.spec(vals), ProductWorkspace(g).spec(vals))
    # the result is fresh: a later call with the same stack shape leaves it alone
    first = ws.spec(vals)
    kept = first.copy()
    ws.spec(rng.standard_normal(vals.shape))
    assert np.array_equal(first, kept)
    # a warm call allocates its compact result (3 tables) and the eta = 0
    # column's small temporaries, not its 3 * 64 * 33 * 16 B rfft output
    table = int(np.prod(g.compact.shape)) * 16
    assert traced_peak(lambda: ws.spec(vals)) < 4 * table == 4 * 43 * 22 * 16


def test_warm_vb_rhs_allocates_no_padded_table():
    # at 128^2 one compact table (85 x 43 complex) is 58 KB and one padded
    # real table (128^2) 131 KB; a warm rhs holds its result (4 compact
    # tables), the kernel's output (3), its per-mode products and numpy's
    # casting buffers: 15 compact tables when measured.  Fresh padded
    # products, their stack and an rfft output would add over 12 more.
    g = Grid(128, 128, 1.0)
    st = gevrey_random_data(g, PAR, seed=3, eps=1e-3, lam1=1.5)
    integ = VBIntegrator(g, PAR.alpha)
    Y = integ.pack(st)
    integ.rhs(0.4, Y)  # fills the workspace's buffers and the per-time tables
    assert traced_peak(lambda: integ.rhs(0.4, Y)) < 20 * int(np.prod(g.compact.shape)) * 16


def batch_of(ts, n):
    """A batch of n copies of ``ts`` at n distinct times from its own, and
    the multipliers at those times."""
    times = tuple(ts.t + 0.01 * j for j in range(n))
    return (TailoredState(ts.grid, np.stack([ts.ptilde] * n, axis=1), times),
            MultiplierSet(ts.grid, times, PAR))


def warm_identity_sides_peaks(monkeypatch, ts, mset, ws):
    """The peak bytes of a warm ``identity_sides`` call, and the traced
    memory after the kernel's products and the peak before the forward
    transform."""
    identity_sides(ts, mset, PAR.alpha, ws)  # fills the buffers and the per-time tables
    peak = traced_peak(lambda: identity_sides(ts, mset, PAR.alpha, ws))
    marks = []
    products, spec = diagnostics._products, ws.spec

    def products_then_mark(*args):
        products(*args)
        tracemalloc.reset_peak()
        marks.append(tracemalloc.get_traced_memory()[0])

    def mark_then_spec(values):
        marks.append(tracemalloc.get_traced_memory()[1])
        return spec(values)

    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_products", products_then_mark)
        m.setattr(ws, "spec", mark_then_spec)
        traced_peak(lambda: identity_sides(ts, mset, PAR.alpha, ws))
    return peak, marks


def test_warm_identity_sides_allocates_no_padded_table(monkeypatch):
    # at 128^2 one padded real table (131 KB) is 2.25 compact tables (58 KB).
    # After the kernel's products (in place, see the vb rhs test above) and
    # before its forward transform, a warm call forms z+- and the advections
    # in the workspace's scratch, allocating nothing (1.5 KB of views when
    # measured); a fresh padded table there (a product formed as a
    # temporary, a copy of the scratch) breaks the first bound.  The whole
    # call holds at most 36.6 compact tables when measured, in its pairings
    # after the forward transform (30.0 while the 12-table transform input
    # is assembled); a batch of 4 states holds 166.0, 41.5 a time, with the
    # copy of (v, b) whose time axis is moved before the table.
    g = Grid(128, 128, 1.0)
    lay = g.compact
    st = gevrey_random_data(g, PAR, seed=3, eps=1e-3, lam1=1.5)
    ts = TailoredState(lay, lay.pack(state_to_tailored(st, PAR.alpha).ptilde), 0.4)
    table = int(np.prod(lay.shape)) * 16
    ws = ProductWorkspace(g)
    for (ts_n, mset), per_time in (((ts, MultiplierSet(lay, 0.4, PAR)), 38),
                                   (batch_of(ts, 4), 4 * 44)):
        peak, marks = warm_identity_sides_peaks(monkeypatch, ts_n, mset, ws)
        assert len(marks) == 2
        assert marks[1] - marks[0] < ws.Mx * ws.My * 8 // 8
        assert peak < per_time * table


def test_warm_advect_forms_its_products_in_place():
    # at 128^2 one padded real table is 131 KB and one compact table 58 KB.
    # Between the inverse and the forward transform a warm call with n = 2
    # allocates nothing: the products are formed in the samples of the
    # gradients, where fresh ones took 524 KB (two padded pairs, their sum
    # in the first).  The whole call holds 10.0 compact tables when
    # measured: its compact input (6) and the gradients formed for it (4).
    g = Grid(128, 128, 1.0)
    lay = g.compact
    st = gevrey_random_data(g, PAR, seed=3, eps=1e-3, lam1=1.5)
    sym, v, b = shear_symbols(lay, 0.4), lay.pack(st.v), lay.pack(st.b)
    ws = ProductWorkspace(g)
    got = ws.advect(sym, v, b)  # fills the buffers
    p = ProductWorkspace(g).phys(np.concatenate([v, sym.ikx * b, sym.idyt * b]))
    assert np.array_equal(got, ProductWorkspace(g).spec(p[0] * p[2:4] + p[1] * p[4:]))
    marks = []  # traced memory after the inverse transform, peak before the forward
    phys, spec = ws.phys, ws.spec

    def phys_then_mark(coeffs):
        out = phys(coeffs)
        tracemalloc.reset_peak()
        marks.append(tracemalloc.get_traced_memory()[0])
        return out

    def mark_then_spec(values):
        marks.append(tracemalloc.get_traced_memory()[1])
        return spec(values)

    peak = traced_peak(lambda: ws.advect(sym, v, b))
    ws.phys, ws.spec = phys_then_mark, mark_then_spec
    traced_peak(lambda: ws.advect(sym, v, b))
    assert len(marks) == 2
    assert marks[1] - marks[0] < ws.Mx * ws.My * 8 // 8
    assert peak < 11 * int(np.prod(lay.shape)) * 16


def test_integrators_hand_compact_stacks_to_phys(counts, phys_shapes, state):
    g = state.grid
    vb = VBIntegrator(g, PAR.alpha)
    vb.rhs(0.4, vb.pack(state))
    pt = PtildeIntegrator(g, PAR.alpha)
    pt.rhs(0.4, pt.pack(state_to_tailored(state, PAR.alpha)))
    assert counts == {"phys": [4, 4], "spec": [3, 3]}
    assert phys_shapes == [compact_shape(g)] * 2 == [(11, 6)] * 2


def test_linear_reference_does_no_integrator_work(counts, state):
    ptilde = state.grid.compact.pack(state_to_tailored(state, PAR.alpha).ptilde)
    misses = shear_symbols.cache_info().misses
    propagate_linear_grid(state.grid, ptilde, 0.1, 0.6, PAR.alpha)
    assert counts == {"phys": [], "spec": []}
    assert shear_symbols.cache_info().misses == misses


def test_identity_sides(counts, state):
    state.t = 0.4
    lay = state.grid.compact
    ts = state_to_tailored(MHDState(lay, lay.pack(state.vb), 0.4), PAR.alpha)
    one = identity_sides(ts, MultiplierSet(lay, 0.4, PAR), PAR.alpha)
    four = identity_sides(*batch_of(ts, 4), PAR.alpha)
    # one inverse transform of v, b and the sheared gradients of A z+- (4 +
    # 8 tables), one forward of the kernel's 3 products and the two Elsasser
    # advections (3 + 4 tables), for every time of a batch at once
    assert counts == {"phys": [12, 4 * 12], "spec": [7, 4 * 7]}
    assert total_tables(counts) == 5 * 19
    assert all(type(one[key]) is float and len(four[key]) == 4 for key in one)
    assert [four[key][0] for key in one] == list(one.values())


def test_identity_run_holds_one_buffer_set_for_its_batches(monkeypatch, state):
    # 11 samples: two batches of 4 and a last one of 3, filled up to 4
    made = []

    class Recorded(dynamics.PtildeIntegrator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(diagnostics, "PtildeIntegrator", Recorded)
    energy_identity_residuals(state_to_tailored(state, PAR.alpha), PAR, PAR.alpha,
                              t_end=0.08, dt=4e-3, stride=2)
    assert diagnostics.IDENTITY_BATCH == 4
    ws = made[0].ws
    # the kernel's own stacks, and the identity's batch of 4
    assert set(ws._phys_buffers) == {(2, 2), (12, 4)}
    assert set(ws._spec_buffers) == {(3,), (7, 4)}
    assert set(ws._scratch) == {(), (4,)}


def test_pairing_fft(counts, state):
    g = state.grid
    lay = g.compact
    A = MultiplierSet(lay, 0.4, PAR).A
    _pairing_fft(lay, A, lay.pack(state.v), lay.pack(state.b), lay.pack(state.v), 0.4,
                 ProductWorkspace(g))
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


@pytest.fixture
def unpacks(monkeypatch):
    """Shape of every stack handed to ``CompactLayout.unpack``."""
    calls = []
    original = CompactLayout.unpack

    def counting(self, comp):
        calls.append(comp.shape)
        return original(self, comp)

    monkeypatch.setattr(CompactLayout, "unpack", counting)
    return calls


def config16(experiment, **sections):
    data = {"experiment": experiment, "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "params": {"rho": PAR.rho, "lam0": PAR.lam0, "s": PAR.s, "N": PAR.N,
                       "alpha": PAR.alpha, "c0": PAR.c0, "eps": PAR.eps},
            "evolution": {"dt": 0.02, "t_end": 5.0},
            "initial": {"kind": "gevrey_random", "seed": 3, "eps": 1e-3, "lam1": 1.5},
            "monitor": {"sample_dt": 0.5}}
    data.update(sections)
    return ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("snapshots, files", [(0, 0), (4, 3)])
def test_trajectory_run_unpacks_once_per_snapshot(unpacks, tmp_path, snapshots, files):
    # 11 samples on [0, 5]; every 4th, from the first, is written
    run(config16("nonlinear_ideal", output={"snapshots": snapshots}), str(tmp_path))
    assert len(list(tmp_path.glob("snapshot_*.txt"))) == files
    assert unpacks == [(2, 2, 11, 6)] * files


def test_norm_inflation_run_unpacks_nothing(unpacks, tmp_path):
    run(config16("norm_inflation", params={"rho": PAR.rho, "s": PAR.s, "N": PAR.N,
                                           "alpha": PAR.alpha, "c0": PAR.c0,
                                           "eps": PAR.eps}), str(tmp_path))
    assert (tmp_path / "diagnostics.csv").exists()
    assert unpacks == []


def test_energy_identity_unpacks_nothing(unpacks, state):
    res = energy_identity_residuals(state_to_tailored(state, PAR.alpha), PAR,
                                    PAR.alpha, t_end=0.4, dt=4e-3, stride=2)
    assert res
    assert unpacks == []


def test_route_and_partition_unpack_nothing(unpacks, state):
    route_equivalence_run(state, PAR.alpha, t_end=0.2, dt=0.01)
    state.t = 0.4
    nl_partition_check(state, PAR)
    assert unpacks == []


def full_table_identity_sides(ts, mset, alpha):
    """The terms of ``identity_sides`` on full (Nx, Ny) tables, as computed
    before the samples moved to the compact layout: plain sums over every
    table entry, the quadratic terms through the compact kernels, unpacked."""
    g, t, params = ts.grid, ts.t, mset.params
    ws = ProductWorkspace(g)
    lay = ws.layout
    A = mset.A
    pt1, pt2 = ts.ptilde

    def pair(x, y):
        return sum(float(np.sum((np.conj(a) * b).real)) for a, b in zip(x, y)) / g.Ly

    lam_s = (g.K**2 + g.ETA**2) ** (0.5 * params.s)
    dens = np.abs(pt1) ** 2 + np.abs(pt2) ** 2
    sym, csym = shear_symbols(g, t), shear_symbols(lay, t)
    st = tailored_to_state(ts, alpha)
    v, b = st.v, st.b
    cv, cb, cA = lay.pack(v), lay.pack(b), lay.pack(A)
    c, E = lay.unpack(quadratic_terms(lay, np.stack([cv, cb]), t, ws))
    nlv = perp_grad_t(g, -sym.inv_lap * c, t)
    nlb = perp_grad_t(g, E, t)
    Av, Ab = A * v, A * b
    adv_b = lay.unpack(ws.advect(csym, cb, cA * np.concatenate([cb, cv])))
    adv_v = lay.unpack(ws.advect(csym, cv, cA * np.concatenate([cv, cb])))
    corr = ptilde_correction_symbol(g, alpha, t)
    AAt = np.exp(mset.log_A + mset.log_Atilde)
    return {
        "lam_term": float(abs(mset.dlam) * np.sum(lam_s * A**2 * dens) / g.Ly),
        "q_term": float(np.sum(mset.dtq_over_q * AAt * dens) / g.Ly),
        "m_term": float(np.sum(-mset.dtm_over_m * A**2 * dens) / g.Ly),
        "L_pair": pair([A * pt1], [ptilde_coupling(g.K, sym.u, alpha) * (A * pt2)]),
        "NL": (pair(Av, A * nlv - adv_b[:2] + adv_v[:2])
               + pair(Ab, A * nlb - adv_b[2:] + adv_v[2:])),
        "ONL": (pair(A * (corr * b), A * nlv)
                + pair([A * pt1], [A * (corr * (sym.lam * E))])),
    }


def sample_values(st, ts, mset, sides=identity_sides):
    """Every sample function's values on one state, by function."""
    g = st.grid
    tables = [*st.v, *st.b]
    return {
        "l2_norm": {"": l2_norm(g, *tables)},
        "hminus1_norm": {"": hminus1_norm(g, *tables)},
        "gevrey_norm": {"": gevrey_norm(g, tables, 1.0, PAR.s, PAR.N)},
        "energy_E": {"E": energy_E(ts, mset), "E0": energy_E0(ts, mset)},
        "dissipation_terms": dict(zip(("lam", "q", "lam_lo", "q_lo"),
                                      dissipation_terms(ts, mset))),
        "make_record": vars(make_record(st, ts, mset, 1.0, (1.0, 2.0, 3.0, 4.0))),
        "identity_sides": sides(ts, mset, PAR.alpha),
    }


@pytest.fixture(scope="module")
def compact_and_full():
    """Sample values of a compact state at t = 2.5, where q, m and every
    pairing are active, and of its unpacked full tables (the energy
    identity's from their full-table formulas)."""
    g = Grid(16, 16, 1.0)
    lay, t = g.compact, 2.5
    st0 = gevrey_random_data(g, PAR, seed=3, eps=0.05, lam1=1.5)
    st = MHDState(lay, lay.pack(st0.vb), t)
    ts = state_to_tailored(st, PAR.alpha)
    full_st = MHDState(g, lay.unpack(st.vb), t)
    full_ts = TailoredState(g, lay.unpack(ts.ptilde), t)
    return (sample_values(st, ts, MultiplierSet(lay, t, PAR)),
            sample_values(full_st, full_ts, MultiplierSet(g, t, PAR),
                          full_table_identity_sides))


@pytest.mark.parametrize("name", ["l2_norm", "hminus1_norm", "gevrey_norm", "energy_E",
                                  "dissipation_terms", "make_record", "identity_sides"])
def test_sample_function_same_on_compact_and_full(compact_and_full, name):
    compact, full = (values[name] for values in compact_and_full)
    assert compact.keys() == full.keys()
    sides = compact_and_full[1]["identity_sides"]
    # NL and ONL cancel large terms: measured against the identity's scale
    scale = 2 * max(sum(abs(sides[k]) for k in ("lam_term", "q_term", "m_term")),
                    abs(sides["L_pair"] + sides["NL"] + sides["ONL"]))
    for key, ref in full.items():
        got = compact[key]
        if math.isnan(ref):
            assert math.isnan(got), key
            continue
        assert ref != 0.0, key
        tol = 1e-12 * (scale if key in ("NL", "ONL") else abs(ref))
        assert abs(got - ref) <= tol, (key, got, ref)
