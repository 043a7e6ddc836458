import numpy as np
import pytest

from shearmhd.spectral import (Grid, l2_norm, random_hermitian_coeffs,
                               shear_symbols)
from shearmhd.unknowns import (MHDState, curl_t, divergence_residual,
                               divergence_t, from_ptilde, hminus1_norm,
                               leray_project_t, perp_grad_t,
                               ptilde_correction_symbol, state_to_tailored,
                               tailored_to_state, to_p, to_ptilde, to_vtilde,
                               vorticity_current_norms)


def random_divfree_state(grid, rng, t=0.0, scale=1.0):
    v = leray_project_t(grid, np.stack([random_hermitian_coeffs(grid, rng),
                                        random_hermitian_coeffs(grid, rng)]), t)
    b = leray_project_t(grid, np.stack([random_hermitian_coeffs(grid, rng),
                                        random_hermitian_coeffs(grid, rng)]), t)
    return MHDState(grid, scale * np.stack([v, b]), t)


class TestCurl:
    def test_curl_of_gradient_vanishes(self, grid16, rng):
        t = 1.3
        phi = random_hermitian_coeffs(grid16, rng)
        sym = shear_symbols(grid16, t)
        grad = np.stack([sym.ikx * phi, sym.idyt * phi])
        w = curl_t(grid16, grad, t)
        assert np.max(np.abs(w)) <= 1e-12 * np.max(np.abs(phi))

    def test_perp_gradient_mode(self, grid16):
        # u = perp-grad phi with phi at (1,0), t=0: curl u = -Delta_t phi -> +1
        phi = grid16.zeros()
        phi[1, 0] = 1.0
        w = curl_t(grid16, perp_grad_t(grid16, phi, 0.0), 0.0)
        assert np.isclose(w[1, 0], 1.0)

    def test_symbol_arithmetic(self, grid16):
        # phi at (2,1), t=3: coefficient k^2 + (eta-kt)^2 = 4 + 25 = 29
        phi = grid16.zeros()
        phi[2, 1] = 1.0
        w = curl_t(grid16, perp_grad_t(grid16, phi, 3.0), 3.0)
        assert np.isclose(w[2, 1], 29.0)

    def test_constant_field(self, grid16):
        u = np.stack([grid16.zeros(), grid16.zeros()])
        u[0][0, 0] = 1.0
        assert np.all(curl_t(grid16, u, 2.0) == 0)


class TestStackedOperators:
    """The vector operators take the components on axis -3, so one call on a
    state's (2, 2, ...) stack equals the calls on its two fields bit for bit."""

    @pytest.mark.parametrize("compact", [False, True], ids=["grid", "compact"])
    def test_stack_equals_per_field_calls(self, grid16, rng, compact):
        t = 0.7
        vb = np.stack([[random_hermitian_coeffs(grid16, rng) for _ in range(2)]
                       for _ in range(2)])
        g = grid16.compact if compact else grid16
        if compact:
            vb = g.pack(vb)
        for op in (curl_t, divergence_t, leray_project_t, perp_grad_t):
            per_field = np.stack([op(g, f, t) for f in vb])
            assert np.array_equal(op(g, vb, t), per_field), op.__name__


class TestToP:
    def test_inverse_pair(self, grid16):
        psi = grid16.zeros()
        psi[1, 2] = 1.0
        t = 0.7
        sym = shear_symbols(grid16, t)
        lam = sym.lam.copy()
        lam[0, 0] = 1.0
        v = perp_grad_t(grid16, psi / lam, t)
        p1, _ = to_p(MHDState(grid16, np.stack([v, np.zeros_like(v)]), t))
        assert np.isclose(p1[1, 2], 1.0)
        assert np.max(np.abs(p1 - psi)) <= 1e-12

    def test_zero_b_gives_zero_p2(self, grid16, rng):
        st = random_divfree_state(grid16, rng)
        st.b[:] = 0.0
        _, p2 = to_p(st)
        assert np.all(p2 == 0)

    def test_isometry(self, grid16, rng):
        t = 1.9
        st = random_divfree_state(grid16, rng, t)
        p1, _ = to_p(st)
        v_neq = st.v.copy()
        v_neq[:, 0, :] = 0.0
        assert np.isclose(l2_norm(grid16, p1),
                          l2_norm(grid16, v_neq[0], v_neq[1]), rtol=1e-12)


class TestPtilde:
    def test_zero_p2(self, grid16, rng):
        p1 = random_hermitian_coeffs(grid16, rng)
        p1[0, :] = 0
        pt1, pt2 = to_ptilde(p1, grid16.zeros(), 2.0, 0.3, grid16)
        assert np.array_equal(pt1, p1)
        assert np.all(pt2 == 0)

    def test_roundtrip(self, grid16, rng):
        t, alpha = 1.1, 0.7
        p1 = random_hermitian_coeffs(grid16, rng)
        p2 = random_hermitian_coeffs(grid16, rng)
        p1[0, :] = p2[0, :] = 0
        pt1, pt2 = to_ptilde(p1, p2, alpha, t, grid16)
        q1, q2 = from_ptilde(pt1, pt2, alpha, t, grid16)
        assert np.max(np.abs(q1 - p1)) <= 1e-13 * np.max(np.abs(p1))
        assert np.array_equal(q2, p2)

    def test_single_mode_correction(self, grid16):
        # p2 at (k,eta) = (1,2), t = 0, alpha = 2: correction symbol
        # -(1/alpha) d_y^t Delta_t^{-1} = +i eta/(alpha Lambda^2) = +0.2i
        p2 = grid16.zeros()
        p2[1, 2] = 1.0
        pt1, _ = to_ptilde(grid16.zeros(), p2, 2.0, 0.0, grid16)
        assert np.isclose(pt1[1, 2], 0.2j)

    def test_alpha_zero_rejected(self, grid16):
        with pytest.raises(ValueError):
            ptilde_correction_symbol(grid16, 0.0, 0.0)


class TestVtilde:
    def test_b_zero(self, grid16, rng):
        st = random_divfree_state(grid16, rng)
        st.b[:] = 0.0
        assert np.array_equal(to_vtilde(st, 1.0), st.v)

    def test_inverse_dx_symbol(self, grid16):
        # b2 at (1,0) = i, alpha = 1: vtilde_1 gains i/(i*1) = 1
        st = MHDState(grid16, np.zeros((2, 2, 16, 16), complex), 0.0)
        st.b[1][1, 0] = 1j
        vt = to_vtilde(st, 1.0)
        assert np.isclose(vt[0][1, 0], 1.0)

    def test_curl_route_consistency(self, grid16, rng):
        # Lambda_t^{-1} curl(vtilde_neq) equals ptilde_1 built from (p1, p2)
        t, alpha = 2.3, 0.8
        st = random_divfree_state(grid16, rng, t)
        p1, p2 = to_p(st)
        pt1, _ = to_ptilde(p1, p2, alpha, t, grid16)
        vt = to_vtilde(st, alpha)
        pt1_route2, _ = to_p(MHDState(grid16, np.stack([vt, np.zeros_like(vt)]), t))
        assert np.max(np.abs(pt1 - pt1_route2)) <= 1e-12 * np.max(np.abs(pt1))


class TestLeray:
    def test_divfree_fixed_point(self, grid16, rng):
        t = 0.9
        u = leray_project_t(grid16, np.stack([random_hermitian_coeffs(grid16, rng),
                                              random_hermitian_coeffs(grid16, rng)]), t)
        again = leray_project_t(grid16, u, t)
        assert np.max(np.abs(u - again)) <= 1e-12 * np.max(np.abs(u))

    def test_gradient_killed(self, grid16, rng):
        t = 1.4
        phi = random_hermitian_coeffs(grid16, rng)
        phi[0, 0] = 0.0
        sym = shear_symbols(grid16, t)
        grad = np.stack([sym.ikx * phi, sym.idyt * phi])
        out = leray_project_t(grid16, grad, t)
        assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(grad))

    def test_mean_mode_passthrough(self, grid16):
        u = np.stack([grid16.zeros(), grid16.zeros()])
        u[0][0, 0] = 3.0
        u[1][0, 0] = -2.0
        out = leray_project_t(grid16, u, 0.5)
        assert out[0][0, 0] == 3.0 and out[1][0, 0] == -2.0

    def test_self_adjoint(self, grid16, rng):
        t = 0.4
        u = np.stack([random_hermitian_coeffs(grid16, rng),
                      random_hermitian_coeffs(grid16, rng)])
        w = np.stack([random_hermitian_coeffs(grid16, rng),
                      random_hermitian_coeffs(grid16, rng)])
        pu = leray_project_t(grid16, u, t)
        pw = leray_project_t(grid16, w, t)
        lhs = np.sum(np.conj(pu) * w)
        rhs = np.sum(np.conj(u) * pw)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_removes_divergence(self, grid16, rng):
        t = 2.2
        u = np.stack([random_hermitian_coeffs(grid16, rng),
                      random_hermitian_coeffs(grid16, rng)])
        pu = leray_project_t(grid16, u, t)
        res = np.max(np.abs(divergence_t(grid16, pu, t)))
        assert res <= 1e-12 * np.max(np.abs(pu)) * 16


class TestVorticityNorms:
    def test_zero_state(self, grid16):
        st = MHDState(grid16, np.zeros((2, 2, 16, 16), complex), 0.0)
        assert vorticity_current_norms(st) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [0.0, 1.0, 4.0])
    def test_single_mode_growth(self, grid16, t):
        # v = perp-grad(Lambda^{-1} psi), psi at (1,0): ||w|| = sqrt(1+t^2)
        psi = grid16.zeros()
        psi[1, 0] = 1.0
        sym = shear_symbols(grid16, t)
        lam = sym.lam.copy()
        lam[0, 0] = 1.0
        v = perp_grad_t(grid16, psi / lam, t)
        st = MHDState(grid16, np.stack([v, np.zeros_like(v)]), t)
        _, wj, _ = vorticity_current_norms(st)
        assert np.isclose(wj, np.hypot(1.0, t), rtol=1e-12)


class TestNormEquivalence:
    def test_p_equals_vb_neq(self, grid16, rng):
        t = 1.6
        st = random_divfree_state(grid16, rng, t)
        st.v[:, 0, :] = 0.0
        st.b[:, 0, :] = 0.0
        p1, p2 = to_p(st)
        assert np.isclose(l2_norm(grid16, p1, p2),
                          l2_norm(grid16, *st.v, *st.b), rtol=1e-12)

    def test_ptilde_comparable(self, grid32, rng):
        alpha = 0.5
        bound = 1.0 + 1.0 / (2 * abs(alpha))
        for t in (0.0, 1.0, 3.0):
            st = random_divfree_state(grid32, rng, t)
            st.v[:, 0, :] = 0.0
            st.b[:, 0, :] = 0.0
            p1, p2 = to_p(st)
            pt1, pt2 = to_ptilde(p1, p2, alpha, t, grid32)
            r = l2_norm(grid32, pt1, pt2) / l2_norm(grid32, p1, p2)
            assert 1.0 / bound - 1e-9 <= r <= bound + 1e-9

    def test_tailored_roundtrip(self, grid16, rng):
        t, alpha = 1.2, 1.0
        st = random_divfree_state(grid16, rng, t)
        st2 = tailored_to_state(state_to_tailored(st, alpha), alpha)
        assert np.max(np.abs(st2.v - st.v)) <= 1e-11 * np.max(np.abs(st.v))
        assert np.max(np.abs(st2.b - st.b)) <= 1e-11 * np.max(np.abs(st.b))


class TestHminus1:
    def test_weighting(self, grid16):
        c = grid16.zeros()
        c[3, 4] = 2.0
        k, eta = grid16.k[3], grid16.eta[4]
        expect = 2.0 / np.sqrt(1 + k**2 + eta**2)
        assert np.isclose(hminus1_norm(grid16, c), expect)

    def test_divergence_residual_zero_state(self, grid16):
        st = MHDState(grid16, np.zeros((2, 2, 16, 16), complex), 0.0)
        assert divergence_residual(st) == 0.0
