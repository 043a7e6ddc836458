import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from shearmhd.spectral import Grid
from shearmhd.weights import (MultiplierSet, WeightParams, _lambda_integral,
                              a_multiplier, dlambda_dt, dtm_over_m, dtq_over_q,
                              j_value, jtilde_value, lambda_of_t,
                              log_a_multiplier, log_j, log_jtilde, log_mtilde,
                              log_q, m_value, mtilde_value, q_endpoint,
                              q_growth_ratio, q_value)
from shearmhd.weights_audit import (_sign, audit_j_commutator_small_time,
                                     run_weights_audit)

RHO_HALF = WeightParams(rho=0.5, lam0=0.5 * (250 + 2 / 0.1), s=0.6)
RHO_ONE = WeightParams(rho=1.0, lam0=270.0, s=0.6)


def q_slopes(k, eta):
    """Branch slopes (a_k, b_k) fixed by 1 + slope * |endpoint - eta/k| = eta/k^2.

    For k >= 2 these agree with the closed forms 2(k+1)/k*(1-k^2/eta) and
    2(k-1)/k*(1-k^2/eta); at k = 1 the closed b-form degenerates to 0, so
    the continuity-defining value is used throughout.
    """
    k = np.asarray(k, dtype=float)
    eta = np.abs(np.asarray(eta, dtype=float))
    res = eta / k
    gain = eta / k**2 - 1.0
    a = gain / (res - q_endpoint(k, eta))
    b = gain / (q_endpoint(k - 1, eta) - res)
    return a, b


def _q_piece(t, eta, rho):
    """(log q, d/dt log q) for scalar t and scalar |eta| > 1."""
    eta = abs(eta)
    k0 = int(math.floor(math.sqrt(eta)))
    t_low = 0.5 * (eta / k0 + eta / (k0 + 1))
    if t < t_low or t >= 2.0 * eta:
        return 0.0, 0.0
    # locate k with t in [t_k, t_{k-1}), right-open so corners take the
    # right-derivative of the next branch
    k_guess = int(math.floor(eta / t - 0.5)) if t > 0 else k0
    for k in range(min(max(k_guess + 2, 1), k0), 0, -1):
        tk = 0.5 * (eta / k + eta / (k + 1))
        tk1 = 2.0 * eta if k == 1 else 0.5 * (eta / (k - 1) + eta / k)
        if tk <= t < tk1:
            res = eta / k
            gain = eta / k**2 - 1.0
            if t < res:  # approaching the resonance: q decreasing
                a = gain / (res - tk)
                z = 1.0 + a * (res - t)
                return rho * (math.log(k**2 / eta) + math.log(z)), -rho * a / z
            b = gain / (tk1 - res)
            z = 1.0 + b * (t - res)
            return rho * (math.log(k**2 / eta) + math.log(z)), rho * b / z
    return 0.0, 0.0


def q_oracle(t, eta, rho):
    """The scalar branch search elementwise; q = 1 for |eta| <= 1."""
    t, eta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(eta, dtype=float))
    pairs = [(0.0, 0.0) if abs(e) <= 1.0 else _q_piece(float(tt), float(e), rho)
             for tt, e in zip(t.ravel(), eta.ravel())]
    lq, dq = np.array(pairs, dtype=float).reshape(-1, 2).T
    return lq.reshape(t.shape), dq.reshape(t.shape)


class TestWeightParams:
    def test_defaults_valid(self):
        WeightParams()

    @pytest.mark.parametrize("kwargs", [
        {"rho": -1.0}, {"s": 0.5}, {"s": 1.2}, {"N": 4}, {"alpha": 0.0},
        {"eps": 0.2, "c0": 0.1}, {"c0": 1.5}, {"lam0": 0.1},
    ])
    def test_invalid(self, kwargs):
        # lam0 alone passes construction and fails its floor (check_lam0)
        with pytest.raises(ValueError):
            WeightParams(**kwargs).check_lam0()

    def test_lam0_constraint(self):
        # lam0 >= rho (250 + 2/(s - 1/2)), checked where the multipliers are built
        lay = Grid(8, 8).compact
        ok = WeightParams(rho=0.01, lam0=0.01 * (250 + 2 / 0.1), s=0.6)
        ok.check_lam0()
        MultiplierSet(lay, 0.0, ok)
        low = WeightParams(rho=0.01, lam0=2.69, s=0.6)  # data may carry it
        for build in (low.check_lam0, lambda: MultiplierSet(lay, 0.0, low),
                      lambda: run_weights_audit(low, n_eta=2)):
            with pytest.raises(ValueError, match="lam0"):
                build()


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


class TestQBranchIndex:
    """The closed-form branch index against the scalar interval search."""

    ETAS = np.concatenate([
        [1.0000001, 1.5, 2.0, 3.999999, 4.0, 4.000001, 37.0, 99.9, 1e4 + 0.5,
         123456.789, 1e6],
        np.arange(2.0, 41.0) ** 2,
        np.random.default_rng(5).uniform(1.0, 2e5, 40),
    ])

    @staticmethod
    def times(eta):
        """Every t_k, its float neighbours, eta/k, 2|eta|, 0 and just below t_low."""
        e = abs(eta)
        k0 = math.floor(math.sqrt(e))
        tk = q_endpoint(np.arange(k0 + 1), e)
        t_low = float(tk[-1])
        return np.concatenate([
            tk, np.nextafter(tk, 0.0), np.nextafter(tk, np.inf),
            e / np.arange(1.0, k0 + 1), [0.0, 2.0 * e, np.nextafter(t_low, 0.0)],
            np.linspace(0.0, 2.2 * e, 97)])

    def check(self, t, eta, rho=0.05):
        params = WeightParams(rho=rho, lam0=270.0 * rho)
        ref_lq, ref_dq = q_oracle(t, eta, rho)
        dq = dtq_over_q(t, eta, params)
        lq = log_q(t, eta, params)
        assert dq.shape == lq.shape == ref_dq.shape
        assert np.array_equal(dq, ref_dq)
        assert np.max(np.abs(lq - ref_lq), initial=0.0) <= 1e-15

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_dense_times(self, sign):
        for eta in self.ETAS:
            self.check(self.times(eta), sign * eta)

    def test_small_and_zero_eta(self):
        t = np.linspace(0.0, 10.0, 41)
        for eta in (0.0, 0.5, -0.5, 1.0, -1.0):
            self.check(t, eta)
            assert np.all(log_q(t, eta, WeightParams()) == 0.0)

    def test_rho_one(self):
        self.check(self.times(400.0), 400.0, rho=1.0)

    def test_scalar_t_over_eta_table(self):
        g = Grid(16, 16, 0.05)
        for t in (0.0, 3.0, 17.5, 40.0, 125.0):
            self.check(t, g.ETA)

    def test_arrays_broadcast(self):
        t = np.linspace(0.0, 300.0, 61)[:, None]
        eta = np.concatenate([-self.ETAS[:12], self.ETAS[:12], [0.3]])[None, :]
        self.check(t, eta)
        self.check(np.full((3, 4), 7.0), np.array([2.0, 16.0, 50.0, -130.0]))


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

    @pytest.mark.parametrize("s", [0.6, 0.8, 1.0])
    def test_derivative_scalar_equals_array_entry(self, s):
        # a float's ** takes libm's pow and an array numpy's power loop, which
        # differ in the last bit at about one t in twenty; one path serves both
        p = WeightParams(rho=0.01, lam0=3.0, s=s)
        ts = np.linspace(0.0, 60.0, 20001)
        vals = dlambda_dt(ts, p)
        scalars = [dlambda_dt(t, p) for t in ts.tolist()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(scalars, vals)

    @pytest.mark.parametrize("s", [0.5001, 0.501, 0.51, 0.6, 0.8, 1.0])
    def test_closed_form_matches_quadrature(self, s):
        # reference: adaptive quadrature, with the slowly decaying tail past
        # tau = 32 integrated in log tau; s near 1/2 and t across the seam
        # t = 1 of the two series are the hard cases
        p = 0.75 + 0.5 * s

        def f(tau):
            return (1.0 + tau * tau) ** (-0.5 * p)

        for t in (1e-3, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 5.0, 31.9, 32.1, 1e3, 1e5):
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
        ts = np.array([[0.0, 0.5, 1.0], [-1.0, 31.9, 1e5]])
        vals = lambda_of_t(ts, p)
        assert vals.shape == ts.shape
        assert all(vals[i, j] == lambda_of_t(float(ts[i, j]), p)
                   for i in range(2) for j in range(3))
        assert np.array_equal(_lambda_integral(-ts, p.s), -_lambda_integral(ts, p.s))


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

    # the corner t_1 = 3 of eta = 4 and its float neighbours, a time on either
    # side of it, a time before any q interval and one after them all
    @pytest.mark.parametrize("t", [0.0, 2.9, np.nextafter(3.0, 0.0), 3.0,
                                   np.nextafter(3.0, 4.0), 3.1, 50.0])
    @pytest.mark.parametrize("compact", [False, True], ids=["grid", "compact"])
    def test_tables_equal_pointwise_functions(self, grid16, small_params, t, compact):
        from shearmhd.weights import _log_q_and_rate, gevrey_log_weight, log_m
        lay = grid16.compact if compact else grid16
        p = small_params
        mset = MultiplierSet(lay, t, p)
        K, ETA = lay.K + 0 * lay.ETA, lay.ETA + 0 * lay.K  # full tables
        lam = lambda_of_t(t, p)
        lq, dq = _log_q_and_rate(t, ETA, p.rho)
        assert np.any(dq != 0) == (0.0 < t < 50.0)  # q acts between the two ends
        base = gevrey_log_weight(K, ETA, lam, p.s, p.N)
        expect = {"log_m": log_m(t, K, ETA, p), "log_j": log_j(t, K, ETA, p),
                  "log_jtilde": log_jtilde(t, K, ETA, p),
                  "dtm_over_m": dtm_over_m(t, K, ETA, p), "dtq_over_q": dq}
        expect["log_A"] = expect["log_m"] + expect["log_j"] + base
        expect["log_Atilde"] = expect["log_m"] + expect["log_jtilde"] + base
        expect["log_Alo"] = log_a_multiplier(t, 0, lay.ETA[0], p, "Alo")
        # t inside a tuple of times, with one before every q interval and one
        # inside that of eta = 4, gives its row of each table bit for bit
        batch = MultiplierSet(lay, (0.0, t, 3.1), p)
        for name, table in expect.items():
            got = getattr(mset, name)
            assert got.shape == table.shape and np.array_equal(got, table), name
            assert np.array_equal(getattr(batch, name)[1], table), name
        assert np.array_equal(expect["log_jtilde"], 8.0 * p.rho * np.sqrt(np.abs(ETA)) - lq)
        assert (mset.t, mset.lam, mset.dlam) == (t, lam, dlambda_dt(t, p))
        assert (batch.t[1], batch.lam[1], batch.dlam[1]) == (mset.t, mset.lam, mset.dlam)

    def test_scalar_time_keeps_float_attributes(self, grid16, small_params):
        mset = MultiplierSet(grid16.compact, np.float64(0.7), small_params)
        assert [type(v) for v in (mset.t, mset.lam, mset.dlam)] == [float] * 3
        batch = MultiplierSet(grid16.compact, (0.7, 0.8), small_params)
        assert [np.shape(v) for v in (batch.t, batch.lam, batch.dlam)] == [(2,)] * 3
        assert batch.log_A.shape == (2, *grid16.compact.shape)
        assert batch.log_Alo.shape == (2, grid16.compact.shape[1])

    def test_A_overflows_above_e300(self, grid16, small_params):
        # 200 |k, eta|^0.6 reaches 670 at 16^2; log A stays finite
        big = MultiplierSet(grid16.compact, 0.0, WeightParams(rho=0.05, lam0=200.0, s=0.6))
        assert 300.0 < np.max(big.log_A) < np.inf
        with pytest.raises(OverflowError):
            big.A
        ok = MultiplierSet(grid16.compact, 0.0, small_params)
        assert np.array_equal(ok.A, np.exp(ok.log_A))

    def test_bit_identical(self, grid16, small_params):
        a = MultiplierSet(grid16, 0.7, small_params)
        b = MultiplierSet(grid16, 0.7, small_params)
        assert np.array_equal(a.log_A, b.log_A)
        assert np.array_equal(a.dtq_over_q, b.dtq_over_q)


# criterion 7's rows, run_weights_audit(WeightParams(), 1e4, 24, 0), as the
# scalar-loop audit computed them: (lemma_id, sample_count,
# empirical_constant, max_violation_ratio, passes)
GOLDEN_AUDIT = [
    ("q_plateau_equality", 610, 0.0, 0.0, True),
    ("q_resonance_dip", 610, 1.1102230246251565e-16, 1.1102230246251565e-06, True),
    ("q_symmetry", 252, 0.0, 0.0, True),
    ("q_growth_comparability", 662, 2.2686015651585456, 0.0, True),
    ("q_dt_crosscheck", 662, 4.172580804465628e-08, 0.004172580804465628, True),
    ("q_zero_time_asymptotics", 60, 8.732864413748826e+16, 1.4274493159624706, True),
    ("q_ratio_exp_bound", 1170, 1.0, 0.0, True),
    ("q_growth_frequency_change", 504, 0.36200106588432046, 0.0, True),
    ("J_sandwich", 4383, 0.7391236023896639, 0.7391236023896639, True),
    ("J_ratio_bound", 400, 0.017939302597981183, 0.017939302597981183, True),
    ("J_vs_Jtilde_low_k", 300, 0.6188180814387689, 0.6188180814387689, True),
    ("J_commutator_small_time", 400, 2.0923692845927863e-09, 0.0, True),
    ("J_commutator_high_k", 400, 0.20596031527714126, 0.0, True),
    ("m_bounds", 500, 0.0, 0.0, True),
    ("m_bound_convention", 500, 0.9999918280042609, 0.0, True),
    ("m_difference_bound", 392, 0.0004577704673131011, 0.0, True),
    ("mtilde_bound", 400, 0.9999999999997622, 0.9999999999997622, True),
    ("Atilde_triangle_bound", 300, 7.548034193743453e-06, 0.0, True),
    ("average_weight_domination", 400, 23.847685435269817, 23.847685435269817, True),
    ("average_weight_domination_m_stripped", 400, 1.093765569591641,
     1.093765569591641, True),
]


class TestWeightsAudit:
    def test_golden_rows(self):
        # pins the random draws' order as well as the lemma values
        rows, summary = run_weights_audit(WeightParams(), 1e4, 24, 0)
        assert [r.lemma_id for r in rows] == [g[0] for g in GOLDEN_AUDIT]
        for row, (name, count, const, ratio, passes) in zip(rows, GOLDEN_AUDIT):
            assert row.sample_count == count, name
            assert bool(row.passes) == passes, name
            assert math.isclose(row.empirical_constant, const, rel_tol=1e-12), name
            assert math.isclose(row.max_violation_ratio, ratio, rel_tol=1e-12), name
        growth = next(r for r in rows if r.lemma_id == "q_growth_comparability")
        assert "two-sided constants [0.844, 2.27]" in growth.note
        assert summary["all_finite"] and not summary["hard_failures"]

    # the rows with a claimed constant: (claimed, slack)
    HARD = {"q_plateau_equality": (1e-10, 0.0), "q_resonance_dip": (1e-10, 0.0),
            "q_symmetry": (1e-12, 0.0), "q_dt_crosscheck": (1e-5, 0.0),
            "m_bounds": (1e-12, 0.0), "J_sandwich": (1.0, 1e-12),
            "J_ratio_bound": (1.0, 1e-12), "J_vs_Jtilde_low_k": (1.0, 1e-12),
            "mtilde_bound": (1.0, 1e-12)}

    @pytest.mark.parametrize("params", [WeightParams(), WeightParams(rho=0.2, lam0=60.0)],
                             ids=["default", "rho_0.2"])
    def test_hard_rows_report_observed_over_claimed(self, params):
        rows = {r.lemma_id: r for r in run_weights_audit(params, 1e4, 24, 0)[0]}
        assert self.HARD.keys() <= rows.keys()
        for name, (claimed, slack) in self.HARD.items():
            row = rows[name]
            assert math.isclose(row.max_violation_ratio * claimed, row.empirical_constant,
                                rel_tol=1e-15), name
            assert row.passes == (row.empirical_constant <= claimed + slack), name
        # rho = 0.2 breaks the sandwich, which tests the failing side too
        assert rows["J_sandwich"].passes == (params.rho == 0.05)

    def test_overflow_is_inf_and_fails(self):
        # at alpha = 0.004 the two rows' exponentials overflow a float: they
        # read inf and fail
        rows, summary = run_weights_audit(WeightParams(alpha=0.004), 1e4, 24, 0)
        for name in ("Atilde_triangle_bound", "average_weight_domination"):
            row = next(r for r in rows if r.lemma_id == name)
            assert row.empirical_constant == math.inf and not row.passes, name
        assert not summary["all_finite"]
        assert summary["hard_failures"] == ["Atilde_triangle_bound",
                                            "average_weight_domination"]
        # at alpha = 0.002 even exp(pi/(2 alpha)) overflows: still every row
        rows, summary = run_weights_audit(WeightParams(alpha=0.002), 1e4, 24, 0)
        assert len(rows) == 20
        assert summary["hard_failures"] == ["mtilde_bound", "Atilde_triangle_bound",
                                            "average_weight_domination"]

    @pytest.mark.parametrize("seed", [0, 1, 104, 12345])
    def test_sign_draw_is_choice_draw(self, seed):
        # _sign replaces rng.choice([-1, 1]) in the audit; the golden rows
        # hold only while both consume the stream alike, other draws between
        def stream(sign):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(200):
                out += [sign(rng), int(rng.integers(1, 40)), sign(rng),
                        rng.uniform(-1.0, 1.0), sign(rng), rng.standard_normal()]
            return out

        assert stream(_sign) == stream(lambda r: int(r.choice([-1, 1])))

    @pytest.mark.parametrize("eta_max", [1e5, 1e6])
    def test_no_warnings_at_large_eta(self, eta_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, summary = run_weights_audit(WeightParams(), eta_max, 12, 0)
        assert all(np.isfinite(r.empirical_constant) for r in rows)
        assert summary["all_finite"] and not summary["hard_failures"]


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
