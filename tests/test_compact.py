"""The compact half-spectrum layout against full-table references.

The integrators step compact stacks (retained k by retained eta >= 0).  The
references below are the full-table right-hand sides, transforms and cleanup
that stepped (Nx, Ny) tables before the layout existed, kept here as oracles:
unpacked compact results must equal them bit for bit.  The quadratic terms
are the divergence form of the kernel, written out on full tables.
"""

import numpy as np
import pytest

from shearmhd.dynamics import PtildeIntegrator, VBIntegrator
from shearmhd.experiments import gevrey_random_data
from shearmhd.spectral import (Grid, ProductWorkspace, conj_flip,
                               random_hermitian_coeffs, shear_symbols)
from shearmhd.unknowns import (from_ptilde, leray_project_t, perp_grad_t,
                               ptilde_correction_symbol, state_to_tailored)
from shearmhd.weights import WeightParams

PAR = WeightParams(rho=0.004, lam0=1.1, s=0.6, N=5, alpha=1.0, c0=0.05, eps=1e-3)
GRIDS = [(16, 16, 1.0), (64, 64, 1.0), (128, 128, 1.0), (12, 18, 1.7),
         (24, 16, 1.0)]  # the last two have Nx divisible by 3
T = 0.7


class FullTableWorkspace:
    """Padded real transforms of full (Nx, Ny) Hermitian tables."""

    def __init__(self, grid):
        self.grid = grid
        ws = ProductWorkspace(grid)
        self.Mx, self.My = ws.Mx, ws.My
        self.neg_k = (-np.arange(grid.Nx)) % grid.Nx

    def phys(self, coeffs):
        hx, hy = self.grid.Nx // 2, self.grid.Ny // 2
        half = np.zeros(coeffs.shape[:-2] + (self.Mx, hy), dtype=np.complex128)
        half[..., :hx, :] = coeffs[..., :hx, :hy]
        half[..., self.Mx - hx:, :] = coeffs[..., hx:, :hy]
        half = np.fft.ifft(half, axis=-2, norm="forward")
        return np.fft.irfft(half, n=self.My, axis=-1, norm="forward")

    def spec(self, values):
        Nx, Ny = self.grid.shape
        hx, hy = Nx // 2, Ny // 2
        half = np.fft.rfft(values, axis=-1, norm="forward")[..., :hy]
        half = np.fft.fft(half, axis=-2, norm="forward")
        out = np.empty(values.shape[:-2] + (Nx, Ny), dtype=np.complex128)
        out[..., :hx, :hy] = half[..., :hx, :]
        out[..., hx:, :hy] = half[..., self.Mx - hx:, :]
        col = out[..., 0]
        out[..., 0] = 0.5 * (col + np.conj(col[..., self.neg_k]))
        out[..., hy] = 0.0
        out[..., hy + 1:] = np.conj(out[..., self.neg_k, hy - 1:0:-1])
        out *= self.grid.dealias_keep
        return out


def full_quadratic_terms(grid, v, b, t, ws):
    """(c, E) in divergence form: c = d_x d_y^t (T22 - T11) + (d_x^2 -
    (d_y^t)^2) T12, T = b b - v v, from the products of v and b."""
    u, k = shear_symbols(grid, t).u, grid.K
    v1, v2, b1, b2 = ws.phys(np.concatenate([v, b]))
    D, T12, E = ws.spec(np.stack([(v1 - v2) * (v1 + v2) - (b1 - b2) * (b1 + b2),
                                  b1 * b2 - v1 * v2, v1 * b2 - v2 * b1]))
    return (u * u - k * k) * T12 - (k * u) * D, E


def full_vb_rhs(grid, alpha, t, Y):
    sym = shear_symbols(grid, t)
    v, b = Y[:2], Y[2:]
    ik = sym.ikx
    press = 2.0 * ik * sym.inv_lap * v[1]
    dv = np.stack([-v[1] + ik * press + alpha * ik * b[0],
                   sym.idyt * press + alpha * ik * b[1]])
    db = np.stack([b[1] + alpha * ik * v[0], alpha * ik * v[1]])
    c, E = full_quadratic_terms(grid, v, b, t, FullTableWorkspace(grid))
    dv += perp_grad_t(grid, -sym.inv_lap * c, t)
    db += perp_grad_t(grid, E, t)
    return np.concatenate([dv, db])


def full_ptilde_rhs(grid, alpha, nu, kappa, t, Y):
    """Right-hand side of the four tables (ptilde1, ptilde2, vq, bq), the
    averages vq, bq on their k = 0 rows and ptilde zero there."""
    sym = shear_symbols(grid, t)
    iak = 1j * alpha * grid.K
    lam2 = grid.K**2 + sym.u**2
    S = -1j * grid.K**3 / (alpha * np.where(lam2 == 0, 1.0, lam2) ** 2)
    dY = np.zeros_like(Y)
    # the cross term ((nu - kappa)/alpha) d_y^t ptilde_2 joins the coupling
    dY[0] = (iak + S + ((nu - kappa) / alpha) * sym.idyt) * Y[1]
    dY[1] = iak * Y[0]
    p = np.stack(from_ptilde(Y[0], Y[1], alpha, t, grid))
    p[:, 0] = 0.0
    v, b = perp_grad_t(grid, sym.inv_lam * p, t)
    v[0][0], b[0][0] = Y[2][0], Y[3][0]
    c, E = full_quadratic_terms(grid, v, b, t, FullTableWorkspace(grid))
    n1 = sym.inv_lam * c
    n2 = sym.lam * E
    n1[0, :] = 0.0
    n2[0, :] = 0.0
    corr = ptilde_correction_symbol(grid, alpha, t)
    dY[0] += n1 + corr * n2
    dY[1] += n2
    dY[2][0, :] = -sym.idyt[0] * sym.inv_lap[0] * c[0]
    dY[3][0, :] = sym.idyt[0] * E[0]
    return dY


def full_clean(grid, Y):
    """Hermitian-symmetrize every table; zero Nyquist, dealiased and (0, 0) modes."""
    keep = grid.dealias_keep & ~grid.nyquist
    keep[0, 0] = False
    return 0.5 * (Y + conj_flip(Y)) * keep


def full_tailored_tables(ts):
    """The four tables (ptilde1, ptilde2, vq, bq) of a two-table state."""
    Y = np.zeros((4, *ts.grid.shape), dtype=np.complex128)
    Y[:2, 1:] = ts.ptilde[:, 1:]
    Y[2:, 0] = ts.ptilde[:, 0]
    return Y


def fold_averages(Y):
    """The two tables of four: vq, bq move into the k = 0 rows of ptilde."""
    out = Y[:2].copy()
    out[:, 0] = Y[2:, 0]
    return out


def stability_state(shape):
    # eps = 0.05 makes the quadratic terms far larger than roundoff
    return gevrey_random_data(Grid(*shape), PAR, seed=104, eps=0.05, lam1=1.2)


def random_full_tables(grid, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([random_hermitian_coeffs(grid, rng) * grid.dealias_keep
                     for _ in range(n)])


def random_compact(lay, n, seed=0):
    # any complex values: the eta = 0 column is not Hermitian in k
    rng = np.random.default_rng(seed)
    shape = (n, *lay.shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", GRIDS)
def test_vb_rhs_matches_full_table(shape):
    st = stability_state(shape)
    g = st.grid
    integ = VBIntegrator(g, PAR.alpha)
    got = g.compact.unpack(integ.rhs(T, integ.pack(st)))
    ref = full_vb_rhs(g, PAR.alpha, T, np.concatenate([st.v, st.b]))
    assert np.max(np.abs(ref)) > 0
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("shape", GRIDS)
def test_ptilde_rhs_matches_full_table(shape):
    st = stability_state(shape)
    g = st.grid
    ts = state_to_tailored(st, PAR.alpha)
    integ = PtildeIntegrator(g, PAR.alpha, nu=1e-3, kappa=3e-3)
    got = g.compact.unpack(integ.rhs(T, integ.pack(ts)))
    ref = full_ptilde_rhs(g, PAR.alpha, 1e-3, 3e-3, T, full_tailored_tables(ts))
    assert np.all(ref[:2, 0] == 0) and np.all(ref[2:, 1:] == 0)
    assert np.array_equal(got, fold_averages(ref))


@pytest.mark.parametrize("shape", [(16, 16, 1.0), (12, 18, 1.7)])
def test_cleanup_matches_full_table(shape):
    g = Grid(*shape)
    lay = g.compact
    Y = random_compact(lay, 4)
    X = lay.unpack(Y)
    vb = VBIntegrator(g, PAR.alpha)
    ref = full_clean(g, np.concatenate([leray_project_t(g, X[:2], T),
                                        leray_project_t(g, X[2:], T)]))
    assert np.array_equal(lay.unpack(vb.cleanup(Y, T)), ref)
    out = PtildeIntegrator(g, PAR.alpha).cleanup(Y[:2], T)
    assert np.array_equal(lay.unpack(out), full_clean(g, X[:2]))
    assert np.array_equal(Y, random_compact(lay, 4))  # the input is left alone


@pytest.mark.parametrize("shape", GRIDS)
def test_pack_unpack_roundtrip(shape):
    g = Grid(*shape)
    Y = random_full_tables(g, 4)
    comp = g.compact.pack(Y)
    assert comp.shape == (4, 2 * (g.Nx // 3) + 1, g.Ny // 3 + 1)
    assert np.array_equal(g.compact.unpack(comp), Y)


@pytest.mark.parametrize("shape", GRIDS)
def test_max_speed_is_full_table_l1(shape):
    g = Grid(*shape)
    Y = random_full_tables(g, 4)
    full_l1 = max(float(np.sum(np.abs(c))) for c in Y)
    got = VBIntegrator(g, PAR.alpha).max_speed(g.compact.pack(Y))
    assert abs(got - full_l1) <= 1e-15 * full_l1
