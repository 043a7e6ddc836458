import math

import numpy as np
import pytest

from shearmhd import diagnostics
from shearmhd.diagnostics import (DiagnosticsRecord, bootstrap_monitor,
                                  dissipation_terms, energy_E, energy_E0,
                                  energy_identity_residuals, gevrey_norm,
                                  growth_fit, identity_sides, make_record,
                                  q_corner_times, weighted_l2)
from shearmhd.dynamics import PtildeIntegrator, evolve, quadratic_terms, sample_times
from shearmhd.experiments import gevrey_random_data
from shearmhd.spectral import (Grid, ProductWorkspace, random_hermitian_coeffs,
                               shear_symbols)
from shearmhd.unknowns import (MHDState, TailoredState, perp_grad_t,
                               state_to_tailored, tailored_to_state)
from shearmhd.weights import MultiplierSet, WeightParams, lambda_of_t


class TestGevreyNorm:
    def test_zero(self, grid16):
        assert gevrey_norm(grid16, grid16.zeros(), 0.1, 0.5, 5) == 0.0

    def test_single_coefficient(self, grid16):
        # coefficient 1 at (1,0), lam=0.1, s=0.5, N=5 -> sqrt(2^5 e^{0.2})
        c = grid16.zeros()
        c[1, 0] = 1.0
        val = gevrey_norm(grid16, c, 0.1, 0.5, 5)
        assert np.isclose(val, math.sqrt(2**5 * math.exp(0.2)), rtol=1e-12)

    def test_lambda_zero_reduces_to_sobolev(self, grid16, rng):
        c = random_hermitian_coeffs(grid16, rng)
        hn = np.sqrt(np.sum((1 + grid16.K**2 + grid16.ETA**2) ** 5
                            * np.abs(c) ** 2) / grid16.Ly)
        assert np.isclose(gevrey_norm(grid16, c, 0.0, 0.5, 5), hn, rtol=1e-12)

    def test_negative_lambda_rejected(self, grid16):
        with pytest.raises(ValueError):
            gevrey_norm(grid16, grid16.zeros(), -0.1, 0.5, 5)

    def test_eta_spacing_scaling(self, rng):
        g = Grid(16, 16, 2.0)
        c = g.zeros()
        c[1, 0] = 1.0
        assert np.isclose(gevrey_norm(g, c, 0.0, 0.5, 0), 1 / math.sqrt(2.0))


class TestComparisonSandwich:
    def test_sandwich(self, rng):
        # ||.||_{G^{lam2}} <= ||A .|| <= ||.||_{G^{lam1}} under the stated
        # constraints (strengthened lam0 so the m factor cannot break the
        # lower side)
        g = Grid(32, 32, 1.0)
        s, rho, alpha = 0.6, 0.01, 1.0
        lam2 = 1.0
        lam0 = lam2 + rho * 21.0 + math.pi / alpha + 0.05
        lam1 = lam0 + 16 * rho + 2 * rho / (s - 0.5) + math.log(2.0)
        assert 16 * rho + 2 * rho / (s - 0.5) <= lam1 - lam2 and lam0 >= lam2
        params = WeightParams(rho=rho, lam0=lam0, s=s, alpha=alpha)
        mset_cls = MultiplierSet
        for t in (0.0, 1.0, 7.5):
            mset = mset_cls(g, t, params)
            for seed in range(3):
                c = random_hermitian_coeffs(g, np.random.default_rng(seed))
                c[0, 0] = 0.0
                a_norm = weighted_l2(g, mset.log_A, c)
                lo = gevrey_norm(g, c, lam2, s, params.N)
                hi = gevrey_norm(g, c, lam1, s, params.N)
                assert lo <= a_norm * (1 + 1e-12)
                assert a_norm <= hi * (1 + 1e-12)


class TestEnergy:
    def test_zero_state(self, grid16, small_params):
        ts = TailoredState(grid16, np.zeros((2, 16, 16), complex), 0.0)
        mset = MultiplierSet(grid16, 0.0, small_params)
        assert (energy_E(ts, mset), energy_E0(ts, mset)) == (0.0, 0.0)

    def test_average_only_weight_ratio(self, grid16, small_params):
        # single average mode: E/E0 = <eta>^2 exactly (A vs Alo at k=0)
        pt = np.zeros((2, 16, 16), complex)
        pt[0, 0, 2] = 1e-3  # the average of v1, in the k = 0 row
        ts = TailoredState(grid16, pt, 0.0)
        mset = MultiplierSet(grid16, 0.0, small_params)
        E, E0 = energy_E(ts, mset), energy_E0(ts, mset)
        eta = grid16.eta[2]
        assert np.isclose(E / E0, 1 + eta**2, rtol=1e-10)

    def test_monotone_in_coefficients(self, grid16, small_params, rng):
        pt = np.stack([random_hermitian_coeffs(grid16, rng),
                       random_hermitian_coeffs(grid16, rng)])
        pt[:, 0, :] = 0.0
        ts_big = TailoredState(grid16, pt, 0.0)
        ts_small = TailoredState(grid16, 0.5 * pt, 0.0)
        mset = MultiplierSet(grid16, 0.0, small_params)
        assert energy_E(ts_small, mset) < energy_E(ts_big, mset)


class TestRecords:
    def test_time_monotonicity_enforced(self):
        r1 = DiagnosticsRecord(0.0, 1, 1, 1, 1, 1, 1)
        r2 = DiagnosticsRecord(0.0, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            r2.validate_against(r1)

    def test_nonnegative_enforced(self):
        r = DiagnosticsRecord(0.0, -1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            r.validate_against(None)

    def test_make_record(self, grid32, small_params):
        st = gevrey_random_data(grid32, small_params, 5, 1e-3, 1.5)
        ts = state_to_tailored(st, small_params.alpha)
        mset = MultiplierSet(grid32, 0.0, small_params)
        rec = make_record(st, ts, mset, 1.0)
        rec.validate_against(None)
        assert rec.E > 0 and rec.E0 >= 0


class TestBootstrapMonitor:
    def test_zero_trajectory(self, small_params):
        recs = [DiagnosticsRecord(float(t), 0, 0, 0, 0, 0, 0)
                for t in (0.0, 1.0, 2.0)]
        rows, summary = bootstrap_monitor(recs, small_params)
        assert summary["max_ratio_E_line"] == 0.0
        assert summary["max_ratio_E0_line"] == 0.0

    def test_budget_scaling(self, small_params):
        # the E0 line budget carries (ln(e+t))^2 c0^{-2} eps^4 exactly
        recs = [DiagnosticsRecord(2.0, 0, 0, 0, 0, 0.0, 1.0)]
        rows, _ = bootstrap_monitor(recs, small_params, c_star=2.0)
        eps, c0 = small_params.eps, small_params.c0
        budget = 2.0 * math.log(math.e + 2.0) ** 2 * eps**4 / c0**2
        assert np.isclose(rows[0]["ratio_E0_line"], 1.0 / budget)


class TestGrowthFit:
    def test_exact_linear(self):
        t = np.linspace(0, 10, 30)
        y = 0.3 + 2.0 * np.hypot(1, t)
        slope, intercept, r2, flag = growth_fit(t, y, hminus1_in=2.0)
        assert np.isclose(slope, 1.0) and np.isclose(intercept, 0.3)
        assert np.isclose(r2, 1.0) and not flag

    def test_degenerate(self):
        t = np.linspace(0, 10, 30)
        slope, _, r2, flag = growth_fit(t, np.ones_like(t), 1.0)
        assert flag and slope == 0.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            growth_fit([0, 1], [0, 1], 1.0)


def two_advection_nl(ts, mset, alpha):
    """NL of the energy identity from the advections of (Ab, Av) by b and of
    (Av, Ab) by v, the form the Elsasser pairs replaced, kept as the oracle."""
    g, t = ts.grid, ts.t
    ws = ProductWorkspace(g.grid)
    sym = shear_symbols(g, t)
    A = mset.A
    st = tailored_to_state(ts, alpha)
    v, b = st.v, st.b
    c, E = quadratic_terms(g, st.vb, t, ws)
    nlv, nlb = perp_grad_t(g, np.stack([-sym.inv_lap * c, E]), t)
    Av, Ab = A * v, A * b
    adv_b = ws.advect(sym, b, np.concatenate([Ab, Av]))  # b.grad_t (Ab, Av)
    adv_v = ws.advect(sym, v, np.concatenate([Av, Ab]))  # v.grad_t (Av, Ab)

    def pair(x, y):
        return sum(float(np.sum(g.mult * (np.conj(p) * q).real))
                   for p, q in zip(x, y)) / g.Ly

    return (pair(Av, A * nlv - adv_b[:2] + adv_v[:2])
            + pair(Ab, A * nlb - adv_b[2:] + adv_v[2:]))


class TestEnergyIdentity:
    def test_corner_times(self, grid16):
        corners = q_corner_times(grid16, 10.0)
        assert corners.size > 0
        # eta = 2 contributes t_{1,2} = 1.5, resonance 2.0, anchor 4.0
        for expect in (1.5, 2.0, 4.0):
            assert np.min(np.abs(corners - expect)) <= 1e-9

    def test_terms_all_active(self, grid32, small_params):
        st = gevrey_random_data(grid32, small_params, 11, 1e-3, 1.5)
        lay = grid32.compact
        ts = state_to_tailored(MHDState(lay, lay.pack(st.vb), 1.8), small_params.alpha)
        terms = identity_sides(ts, MultiplierSet(lay, ts.t, small_params),
                               small_params.alpha)
        for key in ("lam_term", "m_term", "L_pair", "NL"):
            assert terms[key] != 0.0

    @pytest.mark.parametrize("t", [0.4, 1.8])
    def test_elsasser_nl_matches_two_advection_form(self, grid32, small_params, t):
        st = gevrey_random_data(grid32, small_params, 11, 0.05, 1.5)
        st.t = t
        lay = grid32.compact
        ts = state_to_tailored(MHDState(lay, lay.pack(st.vb), t),
                               small_params.alpha)
        mset = MultiplierSet(lay, t, small_params)
        sides = identity_sides(ts, mset, small_params.alpha)
        ref = two_advection_nl(ts, mset, small_params.alpha)
        scale = 2 * max(sum(abs(sides[k]) for k in ("lam_term", "q_term", "m_term")),
                        abs(sides["L_pair"] + sides["NL"] + sides["ONL"]))
        assert ref != 0.0
        assert abs(sides["NL"] - ref) <= 1e-12 * scale

    def test_residual_small_and_converging(self, grid16, small_params):
        st = gevrey_random_data(grid16, small_params, 11, 1e-3, 1.5)
        ts0 = state_to_tailored(st, small_params.alpha)
        res1 = energy_identity_residuals(ts0, small_params, small_params.alpha,
                                         t_end=1.0, dt=4e-3, stride=2)
        res2 = energy_identity_residuals(ts0, small_params, small_params.alpha,
                                         t_end=1.0, dt=2e-3, stride=2)
        r1 = max(r for _, r in res1)
        r2 = max(r for _, r in res2)
        assert r1 <= 1e-6
        assert np.log2(r1 / r2) >= 3.0

    def test_horizon_must_be_whole_sample_intervals(self, grid16, small_params):
        # a short last interval would be differenced with the uniform stencil
        st = gevrey_random_data(grid16, small_params, 11, 1e-3, 1.5)
        ts0 = state_to_tailored(st, small_params.alpha)
        with pytest.raises(ValueError, match="multiple"):
            energy_identity_residuals(ts0, small_params, small_params.alpha,
                                      t_end=0.404, dt=4e-3, stride=2)
        res = energy_identity_residuals(ts0, small_params, small_params.alpha,
                                        t_end=0.4, dt=4e-3, stride=2)
        assert res and max(r for _, r in res) <= 1e-6

    def test_overflow_guard(self, grid16):
        big = WeightParams(rho=0.05, lam0=200.0, s=0.6)
        lay = grid16.compact
        ts = TailoredState(lay, np.zeros((2, *lay.shape), complex), 0.0)
        with pytest.raises(OverflowError):
            identity_sides(ts, MultiplierSet(lay, 0.0, big), 1.0)


def per_sample_identity_run(ts0, params, alpha, t_end, dt, stride):
    """The sampling of ``energy_identity_residuals`` one sample time at a
    time: one MultiplierSet, energy_E and identity_sides a sample.  Returns
    the sample times, the energies, the identity terms by sample index and
    the (t, residual) pairs."""
    h = stride * dt
    integ = PtildeIntegrator(ts0.grid, alpha)
    times = [ts0.t, *sample_times(ts0.t, t_end, h)]
    corners = q_corner_times(ts0.grid, t_end + h)
    energies, terms = [], {}

    def sample(t, Y):
        i = len(energies)
        st, mset = TailoredState(integ.layout, Y, t), MultiplierSet(integ.layout, t, params)
        energies.append(energy_E(st, mset))
        if 2 <= i < len(times) - 2 and not np.any(
                (corners > t - 2.5 * h) & (corners < t + 2.5 * h)):
            terms[i] = identity_sides(st, mset, alpha, integ.ws)

    evolve(integ, integ.pack(ts0), ts0.t, t_end, dt=dt, cfl=None, sample_dt=h,
           callback=sample)
    out = []
    for i, tm in terms.items():
        dE = (-energies[i + 2] + 8 * energies[i + 1]
              - 8 * energies[i - 1] + energies[i - 2]) / (12 * h)
        lhs = dE + 2 * (tm["lam_term"] + tm["q_term"] + tm["m_term"])
        rhs = 2 * (tm["L_pair"] + tm["NL"] + tm["ONL"])
        scale = max(abs(dE), 2 * abs(tm["lam_term"]) + 2 * abs(tm["q_term"])
                    + 2 * abs(tm["m_term"]), abs(rhs), 1e-300)
        out.append((times[i], abs(lhs - rhs) / scale))
    return times, energies, terms, out


def test_batched_identity_run_matches_per_sample_run(monkeypatch, grid16, small_params):
    # 51 samples on [1.3, 1.7], so the last batch is filled up; the q
    # corners 1.5 (eta = 2) and 5/3 (eta = 4) lie in the span
    st = gevrey_random_data(grid16, small_params, 11, 1e-3, 1.5)
    st.t = 1.3
    ts0 = state_to_tailored(st, small_params.alpha)
    args = (ts0, small_params, small_params.alpha, 1.7, 4e-3, 2)
    energies, sides = [], {}  # what the batched run's calls return

    def recorded_energy(ts, mset):
        energies.extend(val := energy_E(ts, mset))
        return val

    def recorded_sides(ts, mset, alpha, ws=None):
        val = identity_sides(ts, mset, alpha, ws)
        for j, t in enumerate(ts.t):
            sides[t] = {key: terms[j] for key, terms in val.items()}
        return val

    monkeypatch.setattr(diagnostics, "energy_E", recorded_energy)
    monkeypatch.setattr(diagnostics, "identity_sides", recorded_sides)
    res = energy_identity_residuals(*args)
    monkeypatch.undo()
    times, ref_energies, ref_terms, ref_res = per_sample_identity_run(*args)
    assert len(times) == 51 and len(energies) == 52
    assert np.any((q_corner_times(grid16, 1.7) > 1.3))
    assert 0 < len(ref_terms) < len(times) - 4  # some windows skipped at a corner
    assert energies[:51] == ref_energies
    assert energies[51] == energies[50]  # the filled-up copy of the last sample
    for i, terms in ref_terms.items():
        assert sides[times[i]] == terms, times[i]
    assert res == ref_res


class TestDissipationTerms:
    def test_nonnegative(self, grid32, small_params):
        st = gevrey_random_data(grid32, small_params, 2, 1e-3, 1.5)
        st.t = 2.5
        ts = state_to_tailored(st, small_params.alpha)
        mset = MultiplierSet(grid32, st.t, small_params)
        vals = dissipation_terms(ts, mset)
        assert all(v >= 0 for v in vals)

    def test_lambda_checkpoint_cache_consistency(self, small_params):
        a = lambda_of_t(3.3, small_params)
        b = lambda_of_t(3.3, small_params)
        assert a == b
