import numpy as np
import pytest

from shearmhd import dynamics
from shearmhd.diagnostics import energy_identity_residuals
from shearmhd.dynamics import (SYMBOL_VARIANTS, LinearModeSystem,
                               NumericalAbort, PtildeIntegrator,
                               VBIntegrator, cfl_dt,
                               dissipation_phase, evolve, lawson_rk4_step,
                               linear_mode_propagate, propagate_linear_grid,
                               ptilde_coupling, quadratic_terms,
                               route_equivalence_run)
from shearmhd.experiments import dissipative_decay_check, gevrey_random_data
from shearmhd.spectral import (Grid, ProductWorkspace, conj_flip,
                               convolution_direct, shear_symbols)
from shearmhd.unknowns import (MHDState, TailoredState, divergence_residual,
                               leray_project_t, ptilde_correction_symbol,
                               state_to_tailored, tailored_to_state, to_p)
from shearmhd.weights import WeightParams

PAR = WeightParams(rho=0.004, lam0=1.2, s=0.6, alpha=1.0, c0=0.05, eps=1e-3)


def small_state(n=16, seed=1, eps=1e-3, lam1=1.5):
    g = Grid(n, n, 1.0)
    return gevrey_random_data(g, PAR, seed=seed, eps=eps, lam1=lam1)


def packed_tables(integ, tables):
    """The integrator's compact stack of four full (Nx, Ny) tables."""
    st = MHDState(integ.grid, tables[:2], tables[2:], 0.0)
    return integ.pack(st)


def unpacked(integ, Y, t):
    """The full-grid (v, b) state of a vb integrator's compact stack."""
    full = integ.layout.unpack(Y)
    return MHDState(integ.grid, full[:2], full[2:], t)


def zero_stack(integ):
    return packed_tables(integ, np.zeros((4, *integ.grid.shape), complex))


class TestRhsVB:
    def test_zero_state(self, grid16):
        integ = VBIntegrator(grid16, 1.0)
        assert np.all(integ.rhs(0.0, zero_stack(integ)) == 0)

    def test_x_independent_b_is_linearly_steady(self, grid16):
        # divergence-free x-independent b has only a b1(y) profile; with
        # v = 0 every linear term vanishes on the k = 0 column
        integ = VBIntegrator(grid16, 1.0)
        Y = np.zeros((4, 16, 16), complex)
        Y[2][0, 2] = 1.0
        Y[2][0, -2 % 16] = 1.0
        dY = unpacked(integ, integ.rhs(0.0, packed_tables(integ, Y)), 0.0)
        assert np.max(np.abs(dY.b[0])) <= 1e-14
        assert np.max(np.abs(dY.v[0])) <= 1e-14

    def test_b2_e1_coupling(self, grid16):
        # mode with k != 0: db1 gets +b2 and dv1 gets -v2
        integ = VBIntegrator(grid16, 0.5, linear_only=True)
        Y = np.zeros((4, 16, 16), complex)
        Y[3][1, 0] = 1.0  # b2 at (1, 0) and its Hermitian partner
        Y[3][-1, 0] = 1.0
        dY = unpacked(integ, integ.rhs(0.0, packed_tables(integ, Y)), 0.0)
        assert np.isclose(dY.b[0][1, 0], 1.0)  # +b2 e1
        assert np.isclose(dY.v[1][1, 0], 0.5j)  # alpha d_x b2

    def test_divergence_preserved(self):
        st = small_state(16, seed=3, eps=1e-2)
        integ = VBIntegrator(st.grid, 1.0)
        _, Y = evolve(integ, integ.pack(st), 0.0, 1.0, dt=0.02, cfl=None)
        out = unpacked(integ, Y, 1.0)
        assert divergence_residual(out) <= 1e-9

    def test_mean_and_hermitian_preserved(self):
        st = small_state(16, seed=4, eps=1e-2)
        integ = VBIntegrator(st.grid, 1.0)
        _, Y = evolve(integ, integ.pack(st), 0.0, 1.0, dt=0.02, cfl=None)
        out = unpacked(integ, Y, 1.0)
        for c in (*out.v, *out.b):
            assert c[0, 0] == 0.0
            assert np.array_equal(c, conj_flip(c))


class TestRhsPtilde:
    def test_average_b_does_not_force_average_v(self, grid16):
        # only bq, the k = 0 row of ptilde_2, is nonzero; the cross term
        # ((nu - kappa)/alpha) d_y^t ptilde_2 acts on k != 0 only
        pt = np.zeros((2, 16, 16), complex)
        pt[1, 0, 2] = 1.0 + 0.5j
        pt[1, 0, -2] = 1.0 - 0.5j
        ts = TailoredState(grid16, pt, 0.3)
        integ = PtildeIntegrator(grid16, 1.0, nu=1e-3, kappa=3e-3)
        Y = integ.pack(ts)
        assert np.array_equal(integ.layout.unpack(Y), ts.ptilde)
        assert np.all(integ.rhs(ts.t, Y)[0, 0] == 0)


class TestSymbolCaches:
    """The per-time symbol caches are pure: shared read-only tables, one
    entry per key, and results that do not depend on what was cached."""

    @staticmethod
    def clear():
        shear_symbols.cache_clear()
        ptilde_correction_symbol.cache_clear()
        dynamics._ptilde_rhs_symbols.cache_clear()

    def test_cached_tables_are_read_only(self, grid16):
        lay = grid16.compact
        tables = [*shear_symbols(lay, 0.3), ptilde_correction_symbol(lay, 1.0, 0.3),
                  *dynamics._ptilde_rhs_symbols(lay, 1.0, "derived", 0.0, 0.0, 0.3)]
        assert len(tables) == 11
        for tab in tables:
            assert not tab.flags.writeable
            with pytest.raises(ValueError):
                tab[0, 0] = 1.0

    def test_editing_a_returned_state_leaves_the_next_one_alone(self):
        st = small_state(seed=2)
        ts = state_to_tailored(st, 1.0)
        pt = ts.ptilde.copy()
        first = tailored_to_state(ts, 1.0)
        ref = first.v.copy(), first.b.copy()
        first.v *= 3.0
        first.b[:] = 7.0
        again = tailored_to_state(ts, 1.0)
        assert np.array_equal(again.v, ref[0]) and np.array_equal(again.b, ref[1])
        assert np.array_equal(ts.ptilde, pt)
        # state_to_tailored of the edited state does not reach the cache either
        state_to_tailored(first, 1.0).ptilde[:] = 0.0
        assert np.array_equal(state_to_tailored(st, 1.0).ptilde, pt)

    def test_rhs_calls_with_other_alpha_or_variant_share_no_entry(self):
        st = small_state(seed=3, eps=0.05)
        t = 0.7
        keys = [(1.0, "derived"), (0.7, "derived"), (1.0, "mixed"), (1.0, "flipped")]

        def rhs(alpha, variant):
            integ = PtildeIntegrator(st.grid, alpha, symbol_variant=variant)
            return integ.rhs(t, integ.pack(state_to_tailored(st, 1.0)))

        self.clear()
        interleaved = [rhs(*key) for key in keys]
        info = dynamics._ptilde_rhs_symbols.cache_info()
        assert info.misses == len(keys) and info.currsize == len(keys)
        for key, got in zip(keys, interleaved):
            self.clear()
            assert np.array_equal(got, rhs(*key)), key
        for i in range(len(keys)):
            for j in range(i):
                assert not np.allclose(interleaved[i], interleaved[j])

    def test_identity_residuals_repeat_exactly(self, small_params):
        st = small_state(seed=11)
        ts0 = state_to_tailored(st, small_params.alpha)
        runs = [energy_identity_residuals(ts0, small_params, small_params.alpha,
                                          t_end=0.2, dt=4e-3, stride=2)
                for _ in range(2)]
        assert runs[0] and runs[0] == runs[1]


def full_quadratic_terms(grid, v, b, t):
    """quadratic_terms of full tables: packed in, unpacked out."""
    lay = grid.compact
    return lay.unpack(quadratic_terms(lay, lay.pack(v), lay.pack(b), t,
                                      ProductWorkspace(grid)))


class TestQuadraticTerms:
    # the references use convolution_direct and plain symbol tables, so they
    # are independent of the transforms and of ShearSymbols
    G, T = Grid(12, 12, 1.0), 0.7

    def symbols(self):
        g, t = self.G, self.T
        return 1j * g.K * np.ones(g.shape), 1j * (g.ETA - g.K * t)

    def conv(self, f, h):
        return convolution_direct(self.G, f, h) * self.G.dealias_keep

    def advect(self, a, c):
        # (a.grad_t) c = conv(a1, ik c) + conv(a2, i(eta - kt) c), masked
        ik, idy = self.symbols()
        return np.stack([self.conv(a[0], ik * ci) + self.conv(a[1], idy * ci)
                         for ci in c])

    def state(self, divergence_free_at_t=False):
        st = gevrey_random_data(self.G, PAR, seed=5, eps=1e-3, lam1=1.5)
        if divergence_free_at_t:
            st.v = leray_project_t(self.G, st.v, self.T)
            st.b = leray_project_t(self.G, st.b, self.T)
        return st.v, st.b

    # 12 x 18 has Ny divisible by 3, where the padded grid must exceed Ny
    @pytest.mark.parametrize("grid", [G, Grid(12, 18, 1.7)], ids=["12x12", "12x18"])
    def test_matches_direct_convolution(self, grid):
        # the curl form c = b.grad_t j - v.grad_t w, which the kernel equals
        # on its stated domain, data divergence-free at t
        self.G = grid  # the helpers read the instance's grid
        g, t = self.G, self.T
        v, b = self.state(divergence_free_at_t=True)
        ik, idy = self.symbols()
        w = ik * v[1] - idy * v[0]
        j = ik * b[1] - idy * b[0]
        c_ref = (self.conv(b[0], ik * j) + self.conv(b[1], idy * j)
                 - self.conv(v[0], ik * w) - self.conv(v[1], idy * w))
        e_ref = self.conv(v[0], b[1]) - self.conv(v[1], b[0])
        c, E = full_quadratic_terms(g, v, b, t)
        for got, ref in ((c, c_ref), (E, e_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [G, Grid(12, 18, 1.7)], ids=["12x12", "12x18"])
    def test_divergence_form_on_unprojected_data(self, grid):
        # what the vb route's RK stages, not divergence-free, receive:
        # d_x d_y^t (T22 - T11) + (d_x^2 - (d_y^t)^2) T12, T = b b - v v
        self.G = grid
        g, t = self.G, self.T
        v, b = self.state()
        ik, idy = self.symbols()

        def T(i, j):
            return self.conv(b[i], b[j]) - self.conv(v[i], v[j])

        c_ref = ik * idy * (T(1, 1) - T(0, 0)) + (ik * ik - idy * idy) * T(0, 1)
        c, _ = full_quadratic_terms(g, v, b, t)
        assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))

    def test_projected_pair_matches_leray_of_advective_terms(self):
        # on divergence-free data, perp_grad_t(c / Lambda_t^2) and
        # perp_grad_t E are the Leray projections of the advective pair
        g, t = self.G, self.T
        v, b = self.state(divergence_free_at_t=True)
        ik, idy = self.symbols()
        lam2 = np.abs(ik) ** 2 + np.abs(idy) ** 2
        lam2[0, 0] = 1.0
        c, E = full_quadratic_terms(g, v, b, t)
        nlv = np.stack([idy * c / lam2, -ik * c / lam2])
        nlb = np.stack([idy * E, -ik * E])
        for got, adv in ((nlv, self.advect(b, b) - self.advect(v, v)),
                         (nlb, self.advect(b, v) - self.advect(v, b))):
            ref = leray_project_t(g, adv, t)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_no_induction_without_b(self):
        st = small_state(16, seed=2)
        _, E = full_quadratic_terms(st.grid, st.v, 0.0 * st.b, 0.3)
        assert np.all(E == 0.0)


class TestStepAPI:
    def test_zero_state_fixed(self, grid16):
        integ = VBIntegrator(grid16, 1.0)
        t, Y = evolve(integ, zero_stack(integ), 0.0, 0.1, dt=0.1, cfl=None)
        assert t == 0.1
        assert np.all(Y == 0)

    def test_nan_abort(self, grid16):
        st = MHDState(grid16, np.zeros((2, 16, 16), complex),
                      np.zeros((2, 16, 16), complex), 0.0)
        st.v[0][1, 0] = np.nan
        st.v[0][-1 % 16, 0] = np.nan
        integ = VBIntegrator(grid16, 1.0)
        with pytest.raises(NumericalAbort):
            evolve(integ, integ.pack(st), 0.0, 0.2, dt=0.1)


def record_run(monkeypatch, integ, Y0, t_end, **kwargs):
    """Callback times and step sizes of one evolve run from t = 0."""
    steps, times = [], []

    def stepping(integ, Y, t, h):
        steps.append(h)
        return lawson_rk4_step(integ, Y, t, h)

    monkeypatch.setattr(dynamics, "lawson_rk4_step", stepping)
    evolve(integ, Y0, 0.0, t_end, callback=lambda t, Y: times.append(t), **kwargs)
    return times, steps


class TestTimeGrid:
    def test_cfl_shortened_run_samples_on_grid(self, monkeypatch):
        # l1 amplitude about 0.37: the CFL limit falls from 0.069 to 0.054
        st = small_state(16, seed=3, eps=0.5)
        integ = VBIntegrator(st.grid, 1.0)
        limits = []

        def recording_cfl(*args):
            limits.append(cfl_dt(*args))
            return limits[-1]

        monkeypatch.setattr(dynamics, "cfl_dt", recording_cfl)
        times, steps = record_run(monkeypatch, integ, 20.0 * integ.pack(st), 1.0,
                                  dt=0.08, sample_dt=0.3)
        assert min(limits) < 0.08
        assert times == [m * 0.3 for m in range(4)] + [1.0]
        assert max(steps) <= 0.08

    def test_fixed_steps_land_on_sample_times(self, monkeypatch, grid16):
        integ = VBIntegrator(grid16, 1.0)
        times, steps = record_run(monkeypatch, integ, zero_stack(integ), 1.0,
                                  dt=0.1, cfl=None, sample_dt=0.3)
        assert times == [m * 0.3 for m in range(4)] + [1.0]
        assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-15)
        assert len(steps) == 10

    def test_sample_dt_not_a_multiple_of_dt(self, monkeypatch, grid16):
        # zero state and a small alpha keep the CFL limit above dt
        integ = VBIntegrator(grid16, 0.1)
        for cfl in (None, 0.5):
            times, steps = record_run(monkeypatch, integ, zero_stack(integ), 1.5,
                                      dt=0.3, cfl=cfl, sample_dt=0.5)
            assert times == [0.0, 0.5, 1.0, 1.5]
            assert len(steps) == 6  # two steps per interval of 0.5


class TestLinearModeSystem:
    @pytest.mark.parametrize("coords", ("p", "ptilde"))
    def test_unknown_variant_rejected(self, coords):
        with pytest.raises(ValueError, match="variant"):
            LinearModeSystem(1, 1.0, 1.0, coords, symbol_variant="bogus")

    @pytest.mark.parametrize("variant", ("mixed", "flipped"))
    def test_p_coords_reject_an_unread_variant(self, variant):
        # the p system has no S; only the default is accepted there
        with pytest.raises(ValueError, match="variant"):
            LinearModeSystem(1, 1.0, 1.0, "p", symbol_variant=variant)

    def test_k0_rows_are_the_damped_averages(self, grid16):
        # k = 0 rows: no coupling, the damping (-nu eta^2, -kappa eta^2)
        nu, kappa, t0, t1 = 2e-2, 5e-3, 0.3, 1.7
        k, eta = np.array([0, 1, 0, -2]), np.array([0.0, 1.5, 3.0, -4.0])
        cases = [("p", "derived")] + [("ptilde", v) for v in SYMBOL_VARIANTS]
        for coords, variant in cases:
            m = LinearModeSystem(k, eta, 0.8, coords, nu, kappa, variant).matrix(1.3)
            for i in (0, 2):
                assert m[i, 0, 1] == 0 and m[i, 1, 0] == 0
                assert m[i, 0, 0] == -nu * eta[i] ** 2
                assert m[i, 1, 1] == -kappa * eta[i] ** 2
        eta0 = grid16.eta[:5]
        phase = dissipation_phase(grid16, t0, t1)[0, :5]
        sys = LinearModeSystem(0, eta0, 1.0, "ptilde", nu, kappa)
        out = linear_mode_propagate(sys, np.ones((5, 2)), t0, t1, tol=1e-12)
        assert np.max(np.abs(out[:, 0] - np.exp(-nu * phase))) <= 1e-10
        assert np.max(np.abs(out[:, 1] - np.exp(-kappa * phase))) <= 1e-10

    def test_matrix_over_arrays_is_stacked_scalar_matrices(self):
        k, eta = np.array([1, -2, 3]), np.array([0.0, 1.5, -4.0])
        for coords in ("p", "ptilde"):
            sys = LinearModeSystem(k, eta, 0.8, coords, nu=1e-2, kappa=3e-3)
            m = sys.matrix(1.7)
            assert m.shape == (3, 2, 2)
            for i in range(3):
                one = LinearModeSystem(int(k[i]), float(eta[i]), 0.8, coords,
                                       nu=1e-2, kappa=3e-3)
                assert np.array_equal(m[i], one.matrix(1.7))

    @pytest.mark.parametrize("coords", ("p", "ptilde"))
    @pytest.mark.parametrize("nu,kappa", ((0.0, 0.0), (2e-2, 5e-3)))
    def test_stacked_oracle_matches_one_call_per_mode(self, coords, nu, kappa):
        rng = np.random.default_rng(11)
        k = np.array([1, -2, 3, 2, -1])
        eta = np.array([0.0, 1.5, -2.0, 5.0, 7.0])
        z0 = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        sys = LinearModeSystem(k, eta, 0.7, coords, nu=nu, kappa=kappa)
        out = linear_mode_propagate(sys, z0, 0.2, 3.0, tol=1e-12)
        assert out.shape == z0.shape
        for i in range(k.size):
            one = LinearModeSystem(int(k[i]), float(eta[i]), 0.7, coords,
                                   nu=nu, kappa=kappa)
            ref = linear_mode_propagate(one, z0[i], 0.2, 3.0, tol=1e-12)
            assert np.max(np.abs(out[i] - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("coords,k,eta", (("p", 2, 3.0), ("ptilde", 2, 5.0)))
    def test_oracle_is_scale_invariant(self, coords, k, eta):
        # the tolerances follow the data, so tiny data (the linear_modes
        # amplitude 1e-8) is integrated as accurately as data of size 1
        sys = LinearModeSystem(k, eta, 1.0, coords)
        unit = linear_mode_propagate(sys, [1.0, 0.5], 0.0, 20.0)
        tiny = linear_mode_propagate(sys, [1e-8, 0.5e-8], 0.0, 20.0)
        assert np.max(np.abs(tiny / 1e-8 - unit)) <= 1e-10 * np.max(np.abs(unit))

    def test_oracle_vs_richardson(self):
        # (k=1, eta=0, alpha=1, p0=(1,0), t: 0 -> 1)
        sys = LinearModeSystem(1, 0.0, 1.0, "p")
        val = linear_mode_propagate(sys, [1.0, 0.0], 0.0, 1.0, tol=1e-12)

        def rk4(n):
            h = 1.0 / n
            y = np.array([1.0 + 0j, 0.0 + 0j])
            t = 0.0
            for _ in range(n):
                f = lambda tt, yy: sys.matrix(tt) @ yy
                k1 = f(t, y)
                k2 = f(t + h / 2, y + h / 2 * k1)
                k3 = f(t + h / 2, y + h / 2 * k2)
                k4 = f(t + h, y + h * k3)
                y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            return y

        a, b = rk4(2000), rk4(4000)
        richardson = b + (b - a) / 15.0
        assert np.max(np.abs(val - richardson)) <= 1e-8

    def test_skew_rotation_conserves_norm(self):
        # with the shear symbol absent (ptilde coords at k-dominant modes the
        # S term is tiny); emulate the pure rotation by a huge alpha
        sys = LinearModeSystem(1, 0.0, 50.0, "ptilde")
        v = linear_mode_propagate(sys, [1.0, 0.0], 0.0, 2.0, tol=1e-12)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-3

    def test_ptilde_norm_bound(self):
        # |ln ||p||^2| <= pi/(2 alpha) along the tailored linear flow
        for eta in (0.0, 5.0, 30.0):
            sys = LinearModeSystem(1, eta, 1.0, "ptilde")
            v = linear_mode_propagate(sys, [1.0, 0.0], 0.0, 150.0, tol=1e-11)
            c1 = np.exp(np.pi / 2)
            assert 1.0 / c1 <= np.linalg.norm(v) ** 2 <= c1


def propagate_full(grid, p0, *args, **kwargs):
    """propagate_linear_grid of full tables: packed in, unpacked out."""
    lay = grid.compact
    return lay.unpack(propagate_linear_grid(grid, lay.pack(p0), *args, **kwargs))


def ptilde_table(grid, seed):
    pt = state_to_tailored(small_state(grid.Nx, seed=seed, eps=1e-2), 1.0).ptilde
    pt[:, 0] = 0.0  # the averages: ptilde itself is zero on k = 0
    return pt


def oracle_error(grid, p0, t0, t1, alpha, variant="derived", **kwargs):
    """Largest deviation, over the retained modes k != 0, of the grid
    propagator from the DOP853 oracle at tol 1e-12, relative to max|ref|."""
    lay = grid.compact
    out = propagate_linear_grid(grid, p0, t0, t1, alpha, variant, **kwargs)
    k, eta = np.broadcast_arrays(lay.K, lay.ETA)
    on = k != 0
    sys = LinearModeSystem(k[on], eta[on], alpha, "ptilde", symbol_variant=variant)
    ref = linear_mode_propagate(sys, np.stack([p0[0][on], p0[1][on]], -1), t0, t1,
                                tol=1e-12)
    got = np.stack([out[0][on], out[1][on]], -1)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


class TestLinearGridRecurrence:
    """The sixth-order Magnus steps of propagate_linear_grid."""

    @pytest.mark.parametrize("variant", SYMBOL_VARIANTS)
    @pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
    def test_matches_mode_oracle(self, grid32, alpha, variant):
        # at the default step bound; alpha k_max sets the steps at alpha = 2
        p0 = grid32.compact.pack(ptilde_table(grid32, 8))
        assert oracle_error(grid32, p0, 0.3, 3.3, alpha, variant) <= 2e-10

    @pytest.mark.parametrize("variant", SYMBOL_VARIANTS)
    def test_sixth_order_where_dt_binds(self, grid16, variant):
        # alpha k_max = 5 < 1/dt: the steps are dt long
        p0 = grid16.compact.pack(ptilde_table(grid16, 8))
        coarse, fine = (oracle_error(grid16, p0, 0.3, 3.3, 1.0, variant, dt=dt)
                        for dt in (0.1, 0.05))
        assert fine * 40.0 <= coarse

    def test_alfven_rate_caps_the_step(self, grid32):
        # alpha k_max = 20 steps per unit time, whatever larger step dt allows
        p0 = grid32.compact.pack(ptilde_table(grid32, 8))
        assert np.array_equal(propagate_linear_grid(grid32, p0, 0.3, 3.3, 2.0, dt=1.0),
                              propagate_linear_grid(grid32, p0, 0.3, 3.3, 2.0))

    def test_through_the_turning_point(self, grid16):
        # alpha = 1, k = 1: omega^2 = alpha^2 k^2 - k^4/Lambda^4 vanishes at
        # u = 0, where a Gauss node of the step lands, so mu -> 0 there; a
        # non-finite result would raise NumericalAbort, and a warning fail
        eta = grid16.eta[2]
        p0 = np.zeros((2, *grid16.compact.shape), complex)
        p0[:, 1, 2] = 1.0, 0.5j
        t0 = eta - 1.025  # the midpoint of step 21 of 40 is t = eta
        assert oracle_error(grid16, p0, t0, t0 + 2.0, 1.0) <= 2e-10

    def test_output_is_a_real_field_on_k_nonzero(self, grid16):
        p0 = ptilde_table(grid16, 8)
        p0[:, 2, 0] += 1e-3  # no partner at (-2, 0): the cleanup averages
        p0[:, 0, 3] = p0[:, 0, -3] = 1e-3  # and zeroes the k = 0 row
        out = propagate_full(grid16, p0, 0.2, 1.7, 1.0)
        assert np.array_equal(out, conj_flip(out))
        assert np.all(out[:, 0] == 0)

    def test_empty_interval_returns_input(self, grid16):
        p0 = ptilde_table(grid16, 9)
        assert np.array_equal(propagate_full(grid16, p0, 0.6, 0.6, 1.0), p0)

    def test_nan_input_aborts(self, grid16):
        p0 = ptilde_table(grid16, 9)
        p0[0, 1, 2] = np.nan
        with pytest.raises(NumericalAbort) as err:
            propagate_full(grid16, p0, 0.5, 1.0, 1.0)
        assert err.value.t_last == 0.5


class TestLinearBound:
    """The linear ptilde propagator stays within sqrt(C1), C1 = exp(pi/(2
    alpha)), whatever the data: |ptilde|^2 changes by at most the factor C1
    (the docstring of ``norm_inflation_experiment``).  Measured is the sup
    over retained modes k != 0 and unit sample times in [0, 20] of its 2x2
    operator norm, from the images of the two unit tables p = (1, 0) and
    (0, 1)."""

    @staticmethod
    def operator_norm_max(grid, alpha, t_end=20.0):
        lay = grid.compact
        cols = np.zeros((2, 2, *lay.shape), complex)  # (channel, column, ...)
        cols[0, 0] = cols[1, 1] = lay.K != 0
        worst = 1.0
        for t in range(int(t_end)):
            cols = propagate_linear_grid(grid, cols, t, t + 1, alpha)
            # the k = 0 rows stay zero
            worst = max(worst, float(np.linalg.norm(cols, ord=2, axis=(0, 1)).max()))
        return worst

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
    def test_operator_norm_within_c1(self, grid32, alpha):
        assert self.operator_norm_max(grid32, alpha) <= np.sqrt(np.exp(np.pi / (2 * alpha)))

    def test_norm_inflation_reports_the_operator_norm(self, grid16):
        # unit samples from t = 0: the same step times as operator_norm_max
        _, summary = dynamics.norm_inflation_experiment(
            small_state(16, seed=3), 1.0, 0.05, 1e-3, 3.0, sample_dt=1.0)
        assert summary["lin_operator_max"] == pytest.approx(
            self.operator_norm_max(grid16, 1.0, t_end=3.0), rel=1e-12)

    def test_within_c1_claimed_only_where_the_bound_holds(self):
        # the mixed S integrates to more than pi/(2 alpha |k|): its operator
        # norm leaves sqrt(C1), so no verdict is given for it
        st = small_state(16, seed=3)
        got = {}
        for variant in SYMBOL_VARIANTS:
            _, summary = dynamics.norm_inflation_experiment(
                st, 0.5, 0.05, 1e-3, 20.0, sample_dt=1.0, symbol_variant=variant)
            got[variant] = summary
        assert got["derived"]["lin_within_C1"] is True
        assert got["flipped"]["lin_within_C1"] is True
        assert got["mixed"]["lin_within_C1"] is None
        assert got["mixed"]["lin_operator_max"] > np.sqrt(got["mixed"]["C1"])


def coupling_symbol(grid, t, alpha, variant):
    return ptilde_coupling(grid.K, shear_symbols(grid, t).u, alpha, variant)


class TestPtildeSymbol:
    def test_variants_differ(self, grid16):
        sd = coupling_symbol(grid16, 1.0, 1.0, "derived")
        st_ = coupling_symbol(grid16, 1.0, 1.0, "mixed")
        sl = coupling_symbol(grid16, 1.0, 1.0, "flipped")
        assert not np.allclose(sd, st_)
        assert np.allclose(sd, -sl)

    def test_derived_value(self, grid16):
        s = coupling_symbol(grid16, 0.0, 2.0, "derived")
        # k=1, eta=0, t=0: -i k^3/(alpha lam^4) = -i/2
        assert np.isclose(s[1, 0], -0.5j)

    def test_magnitude_matches_mtilde_integrand(self, grid16):
        # |S| = (1/(alpha|k|)) (1 + (eta/k - t)^2)^{-2}
        t, alpha = 1.7, 0.8
        s = coupling_symbol(grid16, t, alpha, "derived")
        K = grid16.K * np.ones(grid16.shape)
        ETA = grid16.ETA * np.ones(grid16.shape)
        nz = K != 0
        expect = 1.0 / (alpha * np.abs(K[nz])
                        * (1.0 + (ETA[nz] / K[nz] - t) ** 2) ** 2)
        assert np.allclose(np.abs(s[nz]), expect, rtol=1e-12)


class TestRouteEquivalence:
    def test_small_grid(self):
        st = small_state(16, seed=6)
        rep = route_equivalence_run(st, 1.0, t_end=2.0, dt=0.01)
        assert rep["gap_tailored"] <= 1e-8
        assert rep["gap_vb"] <= 1e-8

    def test_unequal_dissipation(self):
        # nu != kappa tells the channel layouts of the two integrators apart:
        # vb damps (v1, v2, b1, b2) by (nu, nu, kappa, kappa), ptilde damps
        # (ptilde1, ptilde2) by (nu, kappa), their k = 0 rows (the averages
        # of v1 and b1) included
        st = small_state(16, seed=6)
        rep = route_equivalence_run(st, 1.0, t_end=2.0, dt=0.01,
                                    nu=1e-3, kappa=3e-3)
        assert rep["gap_tailored"] <= 1e-8
        assert rep["gap_vb"] <= 1e-8

    def test_alternative_variants_fail(self):
        st = small_state(16, seed=6)
        for variant in ("mixed", "flipped"):
            rep = route_equivalence_run(st, 1.0, t_end=2.0, dt=0.01,
                                        symbol_variant=variant)
            assert rep["gap_tailored"] > 1e-3


class TestOrderOfAccuracy:
    def test_dt_halving_order(self):
        # nonlinear-regime Richardson order test: observed order >= 3.5
        st = small_state(16, seed=8, eps=0.05, lam1=1.5)
        integ = VBIntegrator(st.grid, 1.0)
        outs = []
        for dt in (0.02, 0.01, 0.005):
            _, Y = evolve(integ, integ.pack(st), 0.0, 1.0, dt=dt, cfl=None)
            outs.append(Y)
        e1 = np.sqrt(np.sum(np.abs(outs[0] - outs[1]) ** 2))
        e2 = np.sqrt(np.sum(np.abs(outs[1] - outs[2]) ** 2))
        order = np.log2(e1 / e2)
        assert order >= 3.5


class TestDissipation:
    def test_phase_exact(self, grid16):
        # int_{t0}^{t1} Lambda_t^2 dt against numeric quadrature
        from scipy.integrate import quad
        ph = dissipation_phase(grid16, 0.3, 1.7)
        for (i, j) in [(1, 2), (3, 0), (0, 4), (5, 11)]:
            k, eta = grid16.k[i], grid16.eta[j]
            val, _ = quad(lambda tt: k**2 + (eta - k * tt) ** 2, 0.3, 1.7)
            assert np.isclose(ph[i, j], val, rtol=1e-10)

    def test_linear_decay_rate(self):
        rep = dissipative_decay_check(Grid(16, 16, 1.0), 1.0, 1e-3,
                                      steps=50, t1=1.0)
        assert rep["within_1pct"]
        assert rep["max_rel_rate_error"] <= 1e-10

    def test_energy_rate_against_mode_ode(self):
        # |p_nu(t)|^2 / |p_0(t)|^2 = exp(-2 nu int Lambda^2) per mode,
        # verified with the independent adaptive integrator
        nu = 2e-3
        sys0 = LinearModeSystem(2, 3.0, 1.0, "p")
        sysn = LinearModeSystem(2, 3.0, 1.0, "p", nu=nu, kappa=nu)
        p0 = linear_mode_propagate(sys0, [1.0, 0.5], 0.0, 2.0, tol=1e-12)
        pn = linear_mode_propagate(sysn, [1.0, 0.5], 0.0, 2.0, tol=1e-12)
        g = Grid(16, 16, 1.0)
        ph = dissipation_phase(g, 0.0, 2.0)[2, 3]
        ratio = (np.linalg.norm(pn) / np.linalg.norm(p0)) ** 2
        assert np.isclose(ratio, np.exp(-2 * nu * ph), rtol=1e-8)

    def test_unequal_dissipation_against_mode_ode(self):
        # nu != kappa: the linear vb flow, mapped to p, against the DOP853
        # oracle of the p system, whose matrix damps p1 by nu and p2 by kappa
        nu, kappa, t1 = 2e-3, 5e-3, 2.0
        st = small_state(16, seed=4)
        g = st.grid
        integ = VBIntegrator(g, 1.0, nu, kappa, linear_only=True)
        _, Y = evolve(integ, integ.pack(st), 0.0, t1, dt=0.01, cfl=None)
        p_num = to_p(unpacked(integ, Y, t1))
        i, j = np.array([(1, 2), (2, 3), (3, 1), (1, 5), (15, 4)]).T
        p_or = linear_mode_propagate(
            LinearModeSystem(g.k[i], g.eta[j], 1.0, "p", nu=nu, kappa=kappa),
            to_p(st)[:, i, j].T, 0.0, t1, tol=1e-12)
        # per mode the RK4 error is below 4e-8; damping p2 by nu, not kappa,
        # moves the result by 4e-3 or more
        rel = np.max(np.abs(p_num[:, i, j].T - p_or), axis=1) / np.max(np.abs(p_or), axis=1)
        assert np.all(rel <= 1e-6)

    def test_unequal_dissipation_ptilde_against_mode_ode(self):
        # nu != kappa in the ptilde chart: the dissipative ptilde integrator
        # at an amplitude where the quadratic terms are far below its time
        # error, against the DOP853 oracle of the ptilde mode matrix, which
        # must carry the cross term ((nu - kappa)/alpha) d_y^t on ptilde_2
        nu, kappa, t1 = 2e-2, 5e-3, 2.0
        st = small_state(16, seed=4, eps=1e-12)
        g = st.grid
        ts = state_to_tailored(st, 1.0)
        integ = PtildeIntegrator(g, 1.0, nu, kappa)
        _, Y = evolve(integ, integ.pack(ts), 0.0, t1, dt=0.01, cfl=None)
        p_num = g.compact.unpack(Y)
        i, j = np.array([(1, 2), (2, 3), (3, 1), (1, 5), (15, 4)]).T
        p_or = linear_mode_propagate(
            LinearModeSystem(g.k[i], g.eta[j], 1.0, "ptilde", nu=nu, kappa=kappa),
            ts.ptilde[:, i, j].T, 0.0, t1, tol=1e-12)
        rel = np.max(np.abs(p_num[:, i, j].T - p_or), axis=1) / np.max(np.abs(p_or), axis=1)
        assert np.all(rel <= 1e-6)

    def test_ideal_step_is_classical_rk4(self):
        # an ideal integrator's Lawson stages are classical RK4, bit for bit
        st = small_state(16, seed=9, eps=1e-2)
        vb = VBIntegrator(st.grid, 1.0)
        pt = PtildeIntegrator(st.grid, 1.0)
        t, h = 0.3, 0.01
        for integ, Y in ((vb, vb.pack(st)), (pt, pt.pack(state_to_tailored(st, 1.0)))):
            k1 = integ.rhs(t, Y)
            k2 = integ.rhs(t + 0.5 * h, Y + 0.5 * h * k1)
            k3 = integ.rhs(t + 0.5 * h, Y + 0.5 * h * k2)
            k4 = integ.rhs(t + h, Y + h * k3)
            rk4 = Y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            assert np.array_equal(lawson_rk4_step(integ, Y, t, h), rk4)
