import numpy as np
import pytest

from shearmhd.experiments import gevrey_random_data
from shearmhd.partition import (LABEL_EQ, LABEL_R, LABEL_REM, LABEL_T,
                                gamma_tilde, nl_partition_check, omega_labels,
                                omega_r_nominal, omega_rem_nominal,
                                omega_t_nominal, partition_exactness_sample)
from shearmhd.spectral import Grid
from shearmhd.unknowns import MHDState
from shearmhd.weights import MultiplierSet, WeightParams


class TestIndicators:
    def test_every_quadruple_labeled_once(self, rng):
        rep = partition_exactness_sample(rng, n=5000)
        assert rep["all_covered"]
        assert rep["nominal_agrees_off_boundary"]

    def test_gamma_tilde_definition(self):
        # 4<k> <= |eta| and 4|k-l| <= |eta-xi|
        assert gamma_tilde(1, 10.0, 1, 2.0)
        assert not gamma_tilde(3, 10.0, 3, 2.0)
        assert not gamma_tilde(1, 10.0, 3, 9.0)

    def test_transport_has_precedence_on_its_set(self):
        # deep inside Omega_T (tiny middle factor) only T holds
        lab = omega_labels(3, 99.0, 2, 100.0)
        assert lab == LABEL_T
        assert omega_t_nominal(3, 99.0, 2, 100.0)
        # huge middle factor with the Gamma condition lands in R
        assert omega_labels(1, 100.0, 0, 2.0) == LABEL_R

    def test_reaction_requires_gamma(self):
        # big middle factor but small |eta|: R set misses it, remainder takes it
        k, eta, l, xi = 3, 2.0, 1, 0.1
        assert not omega_r_nominal(k, eta, l, xi)
        assert omega_labels(k, eta, l, xi) == LABEL_REM
        assert omega_rem_nominal(k, eta, l, xi)

    def test_diagonal_is_average(self):
        assert omega_labels(2, 5.0, 2, 1.0) == LABEL_EQ

    @pytest.mark.parametrize("shape", [(1, 5, 5), (5, 1, 5), (4, 3, 5)])
    def test_broadcast_inputs_match_scalar_calls(self, shape):
        # the k = l mask of a scalar k against an array l spans fewer axes
        # than the labels; the call forms of the partition pairing
        rng = np.random.default_rng(7)
        eta = rng.integers(-9, 10, size=shape[1]).astype(float)
        l = np.array([-2, -1, 0, 1, 2])
        xi = rng.uniform(-9.0, 9.0, size=5)
        got = omega_labels(1, eta[:, None], l[None, :], xi[None, :])
        assert got.shape == (shape[1], 5)
        ref = [[omega_labels(1, e, li, x) for li, x in zip(l, xi)] for e in eta]
        assert np.array_equal(got, ref)
        assert np.all(got[:, l == 1] == LABEL_EQ)
        # (l, eta, xi) axes, l alone on the first
        lk = np.arange(shape[0]) - shape[0] // 2
        got3 = omega_labels(0, eta[None, :, None], lk[:, None, None], xi[None, None, :])
        assert got3.shape == (shape[0], shape[1], 5)
        for i, li in enumerate(lk):
            assert np.array_equal(got3[i], omega_labels(0, eta[:, None], li, xi[None, :]))


class TestPartitionIdentity:
    PAR = WeightParams(rho=0.004, lam0=1.3, s=0.6)

    def test_zero_field(self, grid16):
        st = MHDState(grid16, np.zeros((2, 2, 16, 16), complex), 1.0)
        rep = nl_partition_check(st, self.PAR)
        assert rep["NL"] == 0.0 and rep["sum_of_pieces"] == 0.0
        assert rep["passes"]

    def test_weights_above_e300_overflow(self, grid16):
        # 200 |k, eta|^0.6 reaches 670 at 16^2: A does not fit a float
        st = MHDState(grid16, np.zeros((2, 2, 16, 16), complex), 0.0)
        with pytest.raises(OverflowError):
            nl_partition_check(st, WeightParams(rho=0.05, lam0=200.0, s=0.6))

    @pytest.mark.parametrize("t,seed", [(0.0, 1), (1.3, 2), (3.7, 3)])
    def test_random_states(self, t, seed):
        g = Grid(16, 16, 1.0)
        st = gevrey_random_data(g, self.PAR, seed, 1e-2, 1.2)
        st.t = t
        rep = nl_partition_check(st, self.PAR)
        assert rep["rel_mismatch"] <= 1e-10
        assert rep["passes"]

    def test_pieces_nontrivial(self):
        # Ly = 0.25 stretches eta so that T and R quadruples exist (on 16 x 16
        # with Ly = 1 only the remainder and the average carry anything)
        g = Grid(16, 16, 0.25)
        st = gevrey_random_data(g, self.PAR, 4, 1e-2, 1.2)
        st.t = 2.0
        rep = nl_partition_check(st, self.PAR)
        assert rep["passes"]
        for name in ("transport", "reaction", "remainder", "average"):
            assert abs(rep[name]) > 1e-8 * abs(rep["NL"]), name


# the four signed bilinear terms of nl_partition_check: (a1, a2, a3) as
# indices into (v, b), with their signs
TERMS = [(0, 1, 1, 1.0), (0, 0, 0, -1.0), (1, 1, 0, 1.0), (1, 0, 1, -1.0)]
PIECES = {LABEL_T: "transport", LABEL_R: "reaction", LABEL_REM: "remainder",
          LABEL_EQ: "average"}


def literal_pieces(grid, A, v, b, t):
    """The pairing of every valid quadruple (k, eta, l, xi) taken one at a
    time, by its label: (signed pieces, sum of |contributions|, quadruples).

    A quadruple is valid when the output, input and middle modes are all
    retained.  Tables are read at integer indices (negative ones wrap, the
    FFT order).
    """
    K, N, Ly = grid.Nx // 3, grid.Ny // 3, grid.Ly
    At, fields = A.tolist(), (v.tolist(), b.tolist())
    modes = [(k, n) for k in range(-K, K + 1) for n in range(-N, N + 1)]
    pieces, scale, quads = [0.0] * 4, 0.0, []
    for k, n in modes:
        for l, m in modes:
            p, q = k - l, n - m
            if abs(p) > K or abs(q) > N:
                continue
            lab = int(omega_labels(k, n / Ly, l, m / Ly))
            quads.append((k, n / Ly, l, m / Ly, lab))
            for i1, i2, i3, sign in TERMS:
                a1, a2, a3 = fields[i1], fields[i2], fields[i3]
                dot = a2[0][p][q] * 1j * l + a2[1][p][q] * 1j * (m / Ly - l * t)
                for j in (0, 1):
                    c = sign * (np.conj(At[k][n] * a1[j][k][n]) * (At[k][n] - At[l][m])
                                * dot * a3[j][l][m]).real / Ly
                    pieces[lab] += c
                    scale += abs(c)
    return pieces, scale, np.array(quads)


class TestPartitionPieces:
    PAR = WeightParams(rho=0.004, lam0=1.3, s=0.6)
    # On 12 x 12 and 12 x 18 (Ly = 1.7) every |k, eta| <= 4 sqrt 2, so no
    # quadruple is in T (|l, xi| >= 8 |middle| >= 8) or R (|middle| >= 8 |l, xi|
    # >= 8); Ly = 0.25 stretches eta to 24 and fills all four pieces.
    GRIDS = [((12, 12, 1.0), {LABEL_REM, LABEL_EQ}),
             ((12, 18, 1.7), {LABEL_REM, LABEL_EQ}),
             ((12, 18, 0.25), {LABEL_T, LABEL_R, LABEL_REM, LABEL_EQ})]

    @pytest.mark.parametrize("shape,present", GRIDS)
    def test_each_piece_matches_a_literal_quadruple_loop(self, shape, present):
        g = Grid(*shape)
        st = gevrey_random_data(g, self.PAR, 5, 1e-2, 1.2)
        st.t = 1.3
        # fields are dealiased, so only valid quadruples carry anything
        assert np.all(st.v[:, ~g.dealias_keep] == 0)
        assert np.all(st.b[:, ~g.dealias_keep] == 0)
        rep = nl_partition_check(st, self.PAR)
        A = MultiplierSet(g, st.t, self.PAR).A
        pieces, scale, quads = literal_pieces(g, A, st.v, st.b, st.t)
        assert set(quads[:, 4].astype(int)) == present
        for lab, name in PIECES.items():
            assert abs(rep[name] - pieces[lab]) <= 1e-13 * scale, name
            # a piece with quadruples is far above the tolerance
            assert (abs(pieces[lab]) > 1e-8 * scale) == (lab in present), name
        assert abs(rep["sum_of_pieces"] - sum(pieces)) <= 1e-13 * scale

    @pytest.mark.parametrize("shape,present", GRIDS)
    def test_every_valid_quadruple_gets_exactly_one_label(self, shape, present):
        g = Grid(*shape)
        zero = np.zeros(g.shape)
        _, _, quads = literal_pieces(g, zero, np.stack([zero, zero]),
                                     np.stack([zero, zero]), 0.0)
        k, eta, l, xi, lab = quads.T
        n_modes = (2 * (g.Nx // 3) + 1) * (2 * (g.Ny // 3) + 1)
        assert n_modes**2 > len(quads) > n_modes  # middle modes cut some off
        assert np.array_equal(omega_labels(k, eta, l, xi), lab)
        # one-hot over the nominal sets taken in the precedence T, R,
        # remainder, the diagonal apart
        off = k != l
        t_set = omega_t_nominal(k, eta, l, xi) & off
        r_set = omega_r_nominal(k, eta, l, xi) & off & ~t_set
        rem_set = omega_rem_nominal(k, eta, l, xi) & off & ~t_set & ~r_set
        one_hot = np.stack([t_set, r_set, rem_set, ~off])
        assert np.all(one_hot.sum(axis=0) == 1)
        assert np.array_equal(np.argmax(one_hot, axis=0), lab)  # T, R, REM, EQ
        assert set(lab.astype(int)) == present
