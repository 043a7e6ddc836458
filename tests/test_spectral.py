import inspect
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearmhd.spectral import (Grid, ProductWorkspace, conj_flip,
                               convolution_direct, hermitize, l2_norm,
                               random_hermitian_coeffs, shear_symbols)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 8)
        with pytest.raises(ValueError):
            Grid(8, 9)
        with pytest.raises(ValueError):
            Grid(8, 8, -1.0)

    def test_mode_bijection(self, grid16):
        ks = sorted(grid16.k.astype(int))
        assert ks == list(range(-8, 8))
        etas = sorted((grid16.eta * grid16.Ly).astype(int))
        assert etas == list(range(-8, 8))

    def test_eta_spacing(self):
        g = Grid(8, 8, 2.0)
        assert np.isclose(np.min(np.abs(g.eta[g.eta > 0])), 0.5)


class TestDealiasMask:
    def test_two_thirds_rule_12(self):
        m = Grid(12, 12, 1.0).dealias_keep
        k = np.fft.fftfreq(12, 1 / 12)
        for i, kv in enumerate(k):
            assert m[i, 0] == (abs(kv) <= 4)

    def test_two_thirds_rule_6(self):
        m = Grid(6, 6, 1.0).dealias_keep
        k = np.fft.fftfreq(6, 1 / 6)
        # Nx=6 is below the Grid minimum of 4? 6 >= 4, fine
        for i, kv in enumerate(k):
            assert m[i, 0] == (abs(kv) <= 2)

    def test_idempotent(self, grid16, rng):
        c = random_hermitian_coeffs(grid16, rng)
        once = c * grid16.dealias_keep
        assert np.array_equal(once * grid16.dealias_keep, once)


def sample_l2_norm(grid, comp):
    """Sample-quadrature L2 norm of a compact table from its padded samples
    on the solver's path (``phys``), scaled to match l2_norm (Parseval)."""
    p = ProductWorkspace(grid).phys(comp[None])
    return float(np.sqrt(np.mean(p**2) / grid.Ly))


class TestTransforms:
    # the solver's transforms, phys and spec, of packed dealiased tables
    def test_roundtrip(self, grid16, rng):
        ws = ProductWorkspace(grid16)
        c = ws.layout.pack(random_hermitian_coeffs(grid16, rng))
        c2 = ws.spec(ws.phys(c[None]))[0]
        assert np.max(np.abs(c - c2)) <= 1e-12 * np.max(np.abs(c))

    def test_real_physical_values(self, grid16, rng):
        # a Hermitian table is a real field: its complex inverse has no
        # imaginary part, and phys gives its real part (16 pads to itself)
        ws = ProductWorkspace(grid16)
        c = random_hermitian_coeffs(grid16, rng) * grid16.dealias_keep
        ref = np.fft.ifft2(c) * (grid16.Nx * grid16.Ny)
        assert np.max(np.abs(ref.imag)) <= 1e-12 * np.max(np.abs(ref.real))
        p = ws.phys(ws.layout.pack(c)[None])[0]
        assert p.shape == grid16.shape
        assert np.max(np.abs(p - ref.real)) <= 1e-12 * np.max(np.abs(ref.real))

    def test_parseval(self, grid16, rng):
        check_parseval(grid16, rng)

    def test_parseval_nonunit_Ly(self, rng):
        check_parseval(Grid(16, 16, 3.0), rng)


def check_parseval(g, rng):
    c = random_hermitian_coeffs(g, rng) * g.dealias_keep
    comp = g.compact.pack(c)
    assert abs(sample_l2_norm(g, comp) - l2_norm(g, c)) <= 1e-12 * l2_norm(g, c)
    # the compact norm, eta > 0 columns counted twice, is the full one
    assert abs(l2_norm(g.compact, comp) - l2_norm(g, c)) <= 1e-14 * l2_norm(g, c)


class TestHermitian:
    def test_conj_flip_involution(self, grid16, rng):
        c = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
        assert np.allclose(conj_flip(conj_flip(c)), c)

    def test_hermitize_projects(self, grid16, rng):
        c = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
        h = hermitize(c)
        assert np.max(np.abs(h - conj_flip(h))) <= 1e-14 * np.max(np.abs(h))


@dataclass(frozen=True)
class OneMode:
    """A single (k, eta) mode with the K/ETA interface that shear_symbols reads."""

    k: float
    eta: float

    @property
    def K(self):
        return np.array([[self.k]])

    @property
    def ETA(self):
        return np.array([[self.eta]])


def lambda_t(k, eta, t):
    """Lambda_t of one mode, through shear_symbols."""
    return shear_symbols(OneMode(float(k), float(eta)), t).lam[0, 0]


class TestLambdaT:
    def test_unit_mode(self, grid16):
        assert shear_symbols(grid16, 0.0).lam[1, 0] == 1.0

    def test_critical_time(self, grid16):
        assert grid16.eta[5] == 5.0
        assert shear_symbols(grid16, 5.0).lam[1, 5] == 1.0

    def test_arithmetic(self, grid16):
        assert np.isclose(shear_symbols(grid16, 1.0).lam[2, 3], np.sqrt(5.0))

    def test_zero_mode(self, grid16):
        assert shear_symbols(grid16, 3.0).lam[0, 0] == 0.0

    @given(k=st.integers(-50, 50), eta=st.floats(-100, 100),
           t=st.floats(-20, 20))
    @settings(max_examples=200)
    def test_symbol_identity(self, k, eta, t):
        # Lambda_t(k, eta, t) = Lambda_0(k, eta - k t)
        assert np.isclose(lambda_t(k, eta, t), lambda_t(k, eta - k * t, 0.0),
                          rtol=1e-12, atol=1e-12)

    @given(k=st.integers(-50, 50).filter(lambda k: k != 0),
           eta=st.floats(-100, 100), t=st.floats(-20, 20))
    @settings(max_examples=200)
    def test_lower_bound(self, k, eta, t):
        assert lambda_t(k, eta, t) >= abs(k) - 1e-12


def sheared_gradient(grid, f, t):
    """(d_x f, d_y^t f) of a coefficient table, from the shear_symbols tables."""
    sym = shear_symbols(grid, t)
    return sym.ikx * f, sym.idyt * f


class TestShearedGradient:
    def test_single_mode_t0(self, grid16):
        f = grid16.zeros()
        f[1, 0] = 1.0
        fx, fy = sheared_gradient(grid16, f, 0.0)
        assert fx[1, 0] == 1j and fy[1, 0] == 0.0

    def test_critical_time(self, grid16):
        f = grid16.zeros()
        f[1, 2] = 1.0
        fx, fy = sheared_gradient(grid16, f, 2.0)
        assert fx[1, 2] == 1j and abs(fy[1, 2]) <= 1e-15

    def test_derived_mode(self, grid16):
        f = grid16.zeros()
        f[2, 1] = 1.0
        fx, fy = sheared_gradient(grid16, f, 3.0)
        assert fx[2, 1] == 2j and fy[2, 1] == -5j


def workspace_product(g, f, h):
    """Dealiased product of two full tables on the solver's path: pack, phys,
    pointwise product, spec, unpack."""
    ws = ProductWorkspace(g)
    p = ws.phys(ws.layout.pack(np.stack([f, h])))
    return ws.layout.unpack(ws.spec(p[0] * p[1]))


class TestNonlinearProduct:
    def test_zero(self, grid16):
        z = grid16.zeros()
        assert np.all(workspace_product(grid16, z, z) == 0)

    def test_constant_one(self, grid16):
        c = grid16.zeros()
        c[0, 0] = 1.0
        out = workspace_product(grid16, c, c)
        assert np.max(np.abs(out - c)) <= 1e-14

    def test_pair_mode_zero_component(self):
        g = Grid(8, 8, 1.0)
        f = g.zeros()
        f[1, 0] = 1.0
        f[-1 % 8, 0] = 1.0
        out = workspace_product(g, f, f)
        conv = convolution_direct(g, f, f) * g.dealias_keep
        assert np.isclose(out[0, 0], conv[0, 0])
        assert np.isclose(out[0, 0], 2.0)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_against_direct_convolution(self, n, rng):
        g = Grid(n, n, 1.0)
        f = random_hermitian_coeffs(g, rng) * g.dealias_keep
        h = random_hermitian_coeffs(g, rng) * g.dealias_keep
        out = workspace_product(g, f, h)
        conv = convolution_direct(g, f, h) * g.dealias_keep
        scale = np.max(np.abs(conv))
        assert np.max(np.abs(out - conv)) <= 1e-12 * scale

    def test_dealiased_modes_exactly_zero(self, grid16, rng):
        f = random_hermitian_coeffs(grid16, rng)
        out = workspace_product(grid16, f, f)
        assert np.all(out[~grid16.dealias_keep] == 0.0)
        # only the retained modes of the operands enter the product
        kept = f * grid16.dealias_keep
        assert np.array_equal(workspace_product(grid16, kept, kept), out)


class TestProductWorkspace:
    # smallest even M >= 3*(N//3) + 1: no alias k' +- M of a product of
    # retained modes lands on a retained |k'| <= N//3
    @pytest.mark.parametrize("shape, padded", [
        ((12, 12), (14, 14)), ((16, 16), (16, 16)), ((12, 18, 1.7), (14, 20)),
        ((24, 16), (26, 16)), ((64, 64), (64, 64))],
        ids=["12x12", "16x16", "12x18", "24x16", "64x64"])
    def test_padded_to_alias_bound(self, shape, padded):
        ws = ProductWorkspace(Grid(*shape))
        assert (ws.Mx, ws.My) == padded
        for n, m in zip(shape, padded):
            assert m % 2 == 0 and m > 3 * (n // 3) and m - 2 <= 3 * (n // 3)

    @pytest.mark.parametrize("shape", [(16, 16, 1.0), (12, 18, 1.7)])
    def test_spec_exactly_hermitian(self, shape, rng):
        ws = ProductWorkspace(Grid(*shape))
        out = ws.spec(rng.standard_normal((3, ws.Mx, ws.My)))
        assert out.shape == (3, *ws.layout.shape)
        full = ws.layout.unpack(out)
        assert np.any(full != 0.0)
        assert np.array_equal(full, conj_flip(full))

    def test_phys_matches_complex_inverse(self, rng):
        # the real, pruned inverse of the retained modes (the compact tables
        # phys reads) equals the zero-padded complex ifft2
        g = Grid(12, 16, 1.0)
        ws = ProductWorkspace(g)
        c = np.stack([random_hermitian_coeffs(g, rng) * g.dealias_keep
                      for _ in range(2)])
        ref = np.zeros((2, ws.Mx, ws.My), dtype=complex)
        kx, ky = np.meshgrid(g.k.astype(int), (g.eta * g.Ly).round().astype(int),
                             indexing="ij")
        ref[:, kx % ws.Mx, ky % ws.My] = c
        ref = np.fft.ifft2(ref) * (ws.Mx * ws.My)
        got = ws.phys(ws.layout.pack(c))
        assert got.dtype == float
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestShearSymbols:
    def test_inv_lap_zero_mode(self, grid16):
        sym = shear_symbols(grid16, 1.3)
        assert sym.inv_lap[0, 0] == 0.0
        nz = sym.lam2 > 0
        assert np.allclose(sym.inv_lap[nz], -1.0 / sym.lam2[nz])

    @pytest.mark.parametrize("compact", [False, True])
    def test_inv_lam_zero_mode(self, grid16, compact):
        lay = grid16.compact if compact else grid16
        sym = shear_symbols(lay, 1.3)
        assert sym.inv_lam[0, 0] == 0.0
        nz = sym.lam > 0
        assert np.count_nonzero(~nz) == 1
        assert np.array_equal(sym.inv_lam[nz], 1.0 / sym.lam[nz])
        with pytest.raises(ValueError):
            sym.inv_lam[1, 1] = 0.0

    def test_cached_per_grid_and_time(self, grid16):
        sym = shear_symbols(grid16, 0.7)
        assert shear_symbols(Grid(16, 16, 1.0), 0.7) is sym
        assert shear_symbols(grid16, 0.8) is not sym

    def test_layouts_are_keys_by_identity(self):
        # equal grids have distinct layouts, each hitting its own entry
        one, other = Grid(16, 16, 1.0), Grid(16, 16, 1.0)
        assert one == other and one.compact != other.compact
        sym = shear_symbols(one.compact, 0.7)
        misses = shear_symbols.cache_info().misses
        assert shear_symbols(one.compact, 0.7) is sym
        assert shear_symbols.cache_info().misses == misses
        assert shear_symbols(other.compact, 0.7) is not sym
        assert shear_symbols.cache_info().misses == misses + 1

    def test_a_tuple_of_times_enters_each_time(self, grid16):
        # one build over the times; each time's entry is a view of it and bit
        # for bit the build of that time alone, and the build is not repeated
        lay = Grid(16, 16, 0.8).compact
        times = (0.35, 0.4)
        both = shear_symbols(lay, times)
        assert both.u.shape == (2,) + lay.shape
        misses = shear_symbols.cache_info().misses
        for i, t in enumerate(times):
            sym, alone = shear_symbols(lay, t), inspect.unwrap(shear_symbols)(lay, t)
            for a, b, whole in zip(sym, alone, both, strict=True):
                assert np.array_equal(a, b) and np.shares_memory(a, whole[i])
                assert not a.flags.writeable
            assert shear_symbols(lay, t) is sym
        assert shear_symbols.cache_info().misses == misses + len(times)
        assert shear_symbols(lay, times) is both

    def test_cache_clear_drops_the_times_a_tuple_left_uncalled(self):
        # after a clear, a time of an earlier tuple build is built afresh,
        # not handed a view of that build
        lay = Grid(16, 16, 1.0).compact
        both = shear_symbols(lay, (0.5, 0.6))
        shear_symbols.cache_clear()
        misses = shear_symbols.cache_info().misses
        sym = shear_symbols(lay, 0.5)
        assert shear_symbols.cache_info().misses == misses + 1
        for a, whole in zip(sym, both, strict=True):
            assert not np.shares_memory(a, whole)
            assert np.array_equal(a, whole[0])

    def test_tables_read_only(self, grid16):
        sym = shear_symbols(grid16, 0.7)
        with pytest.raises(ValueError):
            sym.u[1, 1] = 0.0
        with pytest.raises(ValueError):
            sym.ikx *= 2.0
