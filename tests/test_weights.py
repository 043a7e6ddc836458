import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from shearmhd.weights import (MultiplierSet, WeightParams, _lambda_integral,
                              a_multiplier, dlambda_dt, dtm_over_m, dtq_over_q,
                              j_value, jtilde_value, lambda_of_t,
                              log_a_multiplier, log_j, log_jtilde, log_mtilde,
                              log_q, m_value, mtilde_value, q_endpoint,
                              q_growth_ratio, q_slopes, q_value)
from shearmhd.weights_audit import audit_j_commutator_small_time

RHO_HALF = WeightParams(rho=0.5, lam0=0.5 * (250 + 2 / 0.1), s=0.6)
RHO_ONE = WeightParams(rho=1.0, lam0=270.0, s=0.6)


class TestWeightParams:
    def test_defaults_valid(self):
        WeightParams()

    @pytest.mark.parametrize("kwargs", [
        {"rho": -1.0}, {"s": 0.5}, {"s": 1.2}, {"N": 4}, {"alpha": 0.0},
        {"eps": 0.2, "c0": 0.1}, {"c0": 1.5}, {"lam0": 0.1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WeightParams(**kwargs)

    def test_lam0_constraint(self):
        # lam0 >= rho (250 + 2/(s - 1/2))
        WeightParams(rho=0.01, lam0=0.01 * (250 + 2 / 0.1), s=0.6)
        with pytest.raises(ValueError):
            WeightParams(rho=0.01, lam0=2.69, s=0.6)


class TestQWeight:
    def test_anchor(self):
        for eta in (5.0, 16.0, 400.0):
            assert q_value(2 * eta, eta, RHO_HALF) == 1.0
            assert q_value(3 * eta, eta, RHO_HALF) == 1.0

    def test_small_eta_is_one(self):
        assert q_value(0.3, 0.5, RHO_HALF) == 1.0
        assert q_value(10.0, 1.0, RHO_HALF) == 1.0

    def test_dip_eta16(self):
        # q(8,16)/q(t_{2,16},16) = (4/16)^0.5 = 0.5 with t_{2,16} = (8+16/3)/2
        t2 = float(q_endpoint(2, 16.0))
        assert np.isclose(t2, 0.5 * (8.0 + 16.0 / 3.0))
        ratio = q_value(8.0, 16.0, RHO_HALF) / q_value(t2, 16.0, RHO_HALF)
        assert np.isclose(ratio, 0.5, rtol=1e-12)

    def test_plateau_equality_eta100(self):
        for k in range(1, 11):
            a = q_value(float(q_endpoint(k - 1, 100.0)), 100.0, RHO_ONE)
            b = q_value(float(q_endpoint(k, 100.0)), 100.0, RHO_ONE)
            assert abs(a - b) <= 1e-12

    def test_branch_continuity(self):
        eta = 37.0
        for t in np.linspace(3.0, 2 * eta + 2, 6001):
            pass  # scanning handled vectorized below
        ts = np.linspace(3.0, 2 * eta + 2, 200001)
        qs = q_value(ts, eta, RHO_HALF)
        # piecewise C^0: jumps bounded by slope * dt
        assert np.max(np.abs(np.diff(qs))) <= 5e-4

    def test_closed_form_slopes_match_for_k_ge_2(self):
        eta = 100.0
        for k in range(2, 10):
            a, b = q_slopes(k, eta)
            assert np.isclose(a, 2 * (k + 1) / k * (1 - k**2 / eta))
            assert np.isclose(b, 2 * (k - 1) / k * (1 - k**2 / eta))

    def test_k1_slope_from_continuity(self):
        # the closed b-form degenerates at k = 1; continuity fixes it
        eta = 100.0
        _, b1 = q_slopes(1, eta)
        assert np.isclose(1.0 + b1 * (2 * eta - eta), eta)

    @given(t=st.floats(0, 300), eta=st.floats(-120, 120))
    @settings(max_examples=200)
    def test_symmetry(self, t, eta):
        assert log_q(t, eta, RHO_HALF) == log_q(t, -eta, RHO_HALF)

    @given(t=st.floats(0, 300), eta=st.floats(1.5, 120))
    @settings(max_examples=200)
    def test_range(self, t, eta):
        lq = float(log_q(t, eta, RHO_HALF))
        assert -RHO_HALF.rho * math.log(eta) - 1e-12 <= lq <= 1e-12


class TestQGrowthRatio:
    def test_zero_after_2eta(self):
        assert q_growth_ratio(900.0, 400.0, RHO_ONE) == 0.0

    def test_zero_outside_resonant_range(self):
        # below 2 sqrt(eta) the lemma range gates the value to 0
        assert q_growth_ratio(30.0, 400.0, RHO_ONE) == 0.0

    def test_midpoint_comparability(self):
        eta = 400.0
        t10, t9 = float(q_endpoint(10, eta)), float(q_endpoint(9, eta))
        mid = 0.5 * (t10 + t9)
        r = float(q_growth_ratio(mid, eta, RHO_ONE))
        target = RHO_ONE.rho / (1.0 + abs(mid - 40.0))
        assert 0.1 * target <= r <= 10.0 * target

    def test_corner_uses_right_derivative(self):
        eta = 400.0
        k = 10
        res = eta / k
        ana = float(dtq_over_q(res, eta, RHO_ONE))
        h = 1e-8
        num = (float(log_q(res + h, eta, RHO_ONE)) - float(log_q(res, eta, RHO_ONE))) / h
        assert np.isclose(ana, num, rtol=1e-5)
        assert ana > 0  # climbing out of the dip

    def test_numeric_crosscheck(self):
        eta = 400.0
        t10, t9 = float(q_endpoint(10, eta)), float(q_endpoint(9, eta))
        for t in np.linspace(t10 + 0.05, t9 - 0.05, 9):
            h = 1e-7
            num = (float(log_q(t + h, eta, RHO_ONE))
                   - float(log_q(t - h, eta, RHO_ONE))) / (2 * h)
            assert np.isclose(num, float(dtq_over_q(t, eta, RHO_ONE)), rtol=1e-5)


class TestM:
    P = WeightParams()

    def test_t0(self):
        assert m_value(0.0, 1, 0.0, self.P) == 1.0

    def test_infinite_time_limit(self):
        assert np.isclose(m_value(1e12, 1, 0.0, self.P), math.exp(-math.pi / 2),
                          rtol=1e-9)

    def test_frequency_cut(self):
        eta = (10 * self.P.c0 / self.P.eps) ** 2 * 1.01
        assert m_value(5.0, 1, eta, self.P) == 1.0

    def test_k0_is_one(self):
        assert m_value(5.0, 0, 3.0, self.P) == 1.0

    @given(t=st.floats(0, 1e4), k=st.integers(-40, 40).filter(lambda k: k != 0),
           eta=st.floats(-1e4, 1e4))
    @settings(max_examples=300)
    def test_bounds(self, t, k, eta):
        m = float(m_value(t, k, eta, self.P))
        assert math.exp(-math.pi / (self.P.alpha * abs(k))) - 1e-15 <= m <= 1.0 + 1e-15

    def test_dtm(self):
        # -d_t m / m = 1/(alpha |k| (1 + (eta/k - t)^2)) on the cut region
        val = float(dtm_over_m(2.0, 2, 6.0, self.P))
        assert np.isclose(val, -1.0 / (self.P.alpha * 2 * (1 + 1.0)))


class TestMtilde:
    P = WeightParams()

    def test_t0(self):
        assert mtilde_value(0.0, 1, 0.0, self.P) == 1.0

    def test_infinite_time_limit(self):
        assert np.isclose(mtilde_value(1e12, 1, 0.0, self.P),
                          math.exp(math.pi / 4), rtol=1e-9)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            log_mtilde(1.0, 0, 2.0, self.P)

    @given(t=st.floats(0, 1e4), k=st.integers(-40, 40).filter(lambda k: k != 0),
           eta=st.floats(-1e3, 1e3))
    @settings(max_examples=300)
    def test_c1_bound(self, t, k, eta):
        mt = float(mtilde_value(t, k, eta, self.P))
        c1 = math.exp(math.pi / (2 * self.P.alpha))
        assert 1.0 - 1e-15 <= mt <= c1 + 1e-12


class TestLambdaOfT:
    def test_initial_value(self):
        p = WeightParams(rho=0.01, lam0=3.0, s=1.0)
        assert lambda_of_t(0.0, p) == 3.0

    def test_lower_bound(self):
        # lambda(t) >= lam0 - rho (1 + 4/(2s-1)) = 2.95 for s=1, rho=0.01
        p = WeightParams(rho=0.01, lam0=3.0, s=1.0)
        for t in (1.0, 10.0, 1e3, 1e6):
            assert lambda_of_t(t, p) >= 2.95

    def test_strictly_decreasing(self):
        p = WeightParams(rho=0.01, lam0=3.0, s=0.8)
        ts = [0.0, 0.5, 2.0, 10.0, 100.0]
        vals = [lambda_of_t(t, p) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_derivative(self):
        p = WeightParams(rho=0.01, lam0=3.0, s=0.8)
        t = 3.0
        num = (lambda_of_t(t + 1e-5, p) - lambda_of_t(t - 1e-5, p)) / 2e-5
        assert np.isclose(num, float(dlambda_dt(t, p)), rtol=1e-6)

    @pytest.mark.parametrize("s", [0.51, 0.6, 0.8, 1.0])
    def test_closed_form_matches_quadrature(self, s):
        # reference: adaptive quadrature, with the slowly decaying tail past
        # tau = 32 integrated in log tau
        p = 0.75 + 0.5 * s

        def f(tau):
            return (1.0 + tau * tau) ** (-0.5 * p)

        for t in (1e-3, 0.5, 5.0, 31.9, 32.1, 1e3, 1e5):
            ref, _ = quad(f, 0.0, min(t, 32.0), epsabs=1e-13, epsrel=1e-13,
                          limit=200)
            if t > 32.0:
                tail, _ = quad(lambda x: f(math.exp(x)) * math.exp(x),
                               math.log(32.0), math.log(t), epsabs=1e-13,
                               epsrel=1e-13, limit=200)
                ref += tail
            assert math.isclose(float(_lambda_integral(np.float64(t), s)), ref,
                                rel_tol=1e-12)

    def test_array_input(self):
        p = WeightParams(rho=0.01, lam0=3.0, s=0.8)
        ts = np.array([[0.0, 0.5], [31.9, 1e5]])
        vals = lambda_of_t(ts, p)
        assert vals.shape == ts.shape
        assert all(vals[i, j] == lambda_of_t(float(ts[i, j]), p)
                   for i in range(2) for j in range(2))


class TestJ:
    P = WeightParams()

    def test_degenerate_mode(self):
        assert np.isclose(j_value(0.0, 0, 0.0, self.P), 2.0)

    def test_after_anchor(self):
        t, k, eta = 50.0, 3, 20.0
        expected = (math.exp(8 * self.P.rho * math.sqrt(eta))
                    + math.exp(8 * self.P.rho * math.sqrt(k)))
        assert np.isclose(j_value(t, k, eta, self.P), expected, rtol=1e-12)

    def test_jtilde_dominates_on_low_k(self, rng):
        # 4|k| <= |eta| implies J <= 2 Jtilde
        for _ in range(200):
            eta = rng.uniform(2.0, 5e3)
            k = rng.integers(0, int(eta / 4) + 1)
            t = rng.uniform(0, 2.2 * eta)
            assert (log_j(t, k, eta, self.P)
                    <= math.log(2.0) + log_jtilde(t, k, eta, self.P) + 1e-12)

    def test_sandwich(self, rng):
        for _ in range(300):
            k = rng.integers(-40, 41)
            eta = rng.uniform(-1e4, 1e4)
            t = rng.uniform(0, 2.2e4)
            lj = float(log_j(t, k, eta, self.P))
            assert lj >= -1e-12
            assert lj <= math.log(2.0) + 8 * self.P.rho * (k * k + eta * eta) ** 0.25 + 1e-12


class TestAMultiplier:
    P = WeightParams()

    def test_origin(self):
        assert np.isclose(a_multiplier(0.0, 0, 0.0, self.P, "A"), 2.0)

    def test_atilde_below_a(self, rng):
        for _ in range(200):
            k = rng.integers(-30, 31)
            eta = rng.uniform(-1e3, 1e3)
            t = rng.uniform(0, 100)
            assert (log_a_multiplier(t, k, eta, self.P, "Atilde")
                    <= log_a_multiplier(t, k, eta, self.P, "A") + 1e-12)

    def test_alo_requires_k0(self):
        with pytest.raises(ValueError):
            log_a_multiplier(1.0, 2, 3.0, self.P, "Alo")

    def test_alo_sobolev_exponent(self):
        # Alo / (J e^{lam |eta|^s}) = <eta>^{N-1}
        eta = 7.0
        t = 0.5
        lam = lambda_of_t(t, self.P)
        got = float(log_a_multiplier(t, 0, eta, self.P, "Alo"))
        expect = (float(log_j(t, 0, eta, self.P)) + lam * abs(eta) ** self.P.s
                  + (self.P.N - 1) * 0.5 * math.log1p(eta * eta))
        assert np.isclose(got, expect, rtol=1e-12)

    def test_pure_function(self):
        a = log_a_multiplier(1.3, 4, 17.2, self.P, "A")
        b = log_a_multiplier(1.3, 4, 17.2, self.P, "A")
        assert a == b

    def test_finite_log_space_huge_modes(self):
        val = log_a_multiplier(12.0, 1000, 1e6, self.P, "A")
        assert np.isfinite(val)


class TestMultiplierSet:
    def test_matches_pointwise(self, grid16, small_params):
        mset = MultiplierSet(grid16, 1.5, small_params)
        i, j = 3, 5
        k, eta = grid16.k[i], grid16.eta[j]
        assert np.isclose(mset.log_A[i, j],
                          float(log_a_multiplier(1.5, k, eta, small_params, "A")),
                          rtol=1e-12)
        assert np.isclose(mset.log_Alo[j],
                          float(log_a_multiplier(1.5, 0, eta, small_params, "Alo")),
                          rtol=1e-12)

    def test_bit_identical(self, grid16, small_params):
        a = MultiplierSet(grid16, 0.7, small_params)
        b = MultiplierSet(grid16, 0.7, small_params)
        assert np.array_equal(a.log_A, b.log_A)
        assert np.array_equal(a.dtq_over_q, b.dtq_over_q)


class TestJCommutatorAudit:
    @staticmethod
    def direct_row(params, eta_max, rng):
        # the row evaluated with plain exponentials, valid while they fit a float
        worst = 0.0
        for _ in range(400):
            eta = rng.uniform(9.0, eta_max)
            xi = rng.uniform(9.0, eta_max)
            k = int(rng.integers(-20, 21))
            l = int(rng.integers(-20, 21))
            t = rng.uniform(0.0, 0.5 * min(math.sqrt(eta), math.sqrt(xi)))
            lhs = abs(math.exp(float(log_j(t, k, eta, params))
                               - float(log_j(t, l, xi, params))) - 1.0)
            rhs = (math.hypot(1.0, np.hypot(eta - xi, k - l))
                   * math.exp(100.0 * params.rho * abs(eta - xi) ** 0.5)
                   / math.sqrt(eta + xi + abs(k) + abs(l)))
            worst = max(worst, lhs / rhs)
        return worst

    def test_matches_direct_evaluation(self):
        p = WeightParams()
        for seed in range(3):
            row = audit_j_commutator_small_time(p, 1e4, np.random.default_rng(seed))
            ref = self.direct_row(p, 1e4, np.random.default_rng(seed))
            assert math.isclose(row.empirical_constant, ref, rel_tol=1e-12)

    def test_finite_at_large_eta(self):
        p = WeightParams()
        with pytest.raises(OverflowError):
            self.direct_row(p, 1e5, np.random.default_rng(0))
        row = audit_j_commutator_small_time(p, 1e5, np.random.default_rng(0))
        assert row.sample_count == 400
        assert np.isfinite(row.empirical_constant) and row.passes
