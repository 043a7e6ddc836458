"""Discrete Fourier representation on a truncated doubly periodic domain.

The x-period is fixed to 2*pi, so the x-wavenumber k runs over the integers
{-Nx/2, ..., Nx/2-1}.  The y-period is 2*pi*Ly, so the y-wavenumber eta runs
over (1/Ly)*{-Ny/2, ..., Ny/2-1}.  Full coefficient tables are (Nx, Ny), k
by eta in FFT order, Nyquist rows/columns zero.  The integrators, the
transforms and every sample use :class:`CompactLayout`, the independent
modes of a real dealiased field: |k| <= Nx/3 in FFT order (row 0 is k = 0)
by 0 <= eta*Ly <= Ny/3.  It has a :class:`Grid`'s ``K``, ``ETA``, ``Ly``,
``mult`` and ``shape``, so every symbol operator and norm accepts it as a
grid; full tables remain at files, public inputs and the test oracles.

Conventions used throughout the package:

* physical samples  f(x_j, y_m) = sum_{k,eta} fhat(k,eta) e^{i(k x_j + eta y_m)},
  i.e. ``phys = Nx*Ny * ifft2(coeffs)`` and ``coeffs = fft2(phys)/(Nx*Ny)``;
* quadratic products are evaluated on a zero-padded grid of M > 3K points
  per axis, K = N//3 the largest retained index, so that the retained modes
  carry the exact convolution, then truncated by the 2/3-rule mask
  |k| <= Nx/3, |eta*Ly| <= Ny/3.  A product of retained modes reaches
  |k| <= 2K, and its aliases k' +- M miss every retained |k'| <= K.  Every
  padded transform is one batched real-FFT call over a stack of compact
  tables, :meth:`ProductWorkspace.phys` or :meth:`ProductWorkspace.spec`;
* weighted norms are discretizations of sum_k integral d(eta):
  ``norm(f)^2 = (1/Ly) * sum_{k,eta} mult * w(k,eta)^2 |fhat|^2``, with the
  multiplicity ``mult`` 1 on a :class:`Grid` and, on a compact layout, 2 on
  eta > 0 for the conjugate partners it leaves out (real fields, even w).

Shear-frame derivative symbols: d_x -> i k, d_y^t -> i(eta - k t),
Lambda_t = sqrt(k^2 + (eta - k t)^2), Delta_t^{-1} -> -1/Lambda_t^2.
Four :func:`per_time_cache` functions keep per-time tables, read-only
(every caller shares them), for their last four keys: the stage times t,
t + h/2, t + h of a Lawson-RK4 step, which a sample at a step time shares,
and one more.  They are :func:`shear_symbols` on (layout, t), whose entry
is the named tuple :class:`ShearSymbols` of nine tables, Lambda_t^{-1} and
the quadratic kernel's curl-form pair among them,
``unknowns.ptilde_correction_symbol`` on (layout, alpha, t), one table,
``dynamics._ptilde_rhs_symbols`` on (layout, alpha, variant, nu, kappa, t),
three tables and a column, and ``dynamics._vb_rhs_symbols`` on (layout, t),
two real and four complex tables, all built from the first.  Each also
builds over a tuple of times (:func:`per_time_cache`): the first three over
the stage times of the next uniform steps of ``dynamics.evolve``, the first
two over the energy identity's batch of sample times.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Mode layout and cached wavenumber arrays for one doubly periodic box."""

    Nx: int
    Ny: int
    Ly: float = 1.0

    def __post_init__(self):
        if self.Nx < 4 or self.Ny < 4 or self.Nx % 2 or self.Ny % 2:
            raise ValueError("Nx, Ny must be even integers >= 4")
        if self.Ly <= 0:
            raise ValueError("Ly must be positive")
        k = np.fft.fftfreq(self.Nx, d=1.0 / self.Nx)  # integers, FFT order
        n = np.fft.fftfreq(self.Ny, d=1.0 / self.Ny)  # integer eta-index
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "eta", n / self.Ly)
        object.__setattr__(self, "K", k[:, None])
        object.__setattr__(self, "ETA", (n / self.Ly)[None, :])
        keep = (np.abs(k[:, None]) <= self.Nx / 3.0) & (np.abs(n[None, :]) <= self.Ny / 3.0)
        object.__setattr__(self, "dealias_keep", keep)
        nyq = (k[:, None] == -self.Nx // 2) | (n[None, :] == -self.Ny // 2)
        object.__setattr__(self, "nyquist", nyq)
        object.__setattr__(self, "mult", np.ones((1, 1)))
        object.__setattr__(self, "compact", CompactLayout(self))

    @property
    def shape(self):
        return (self.Nx, self.Ny)

    def zeros(self):
        return np.zeros(self.shape, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class CompactLayout:
    """The retained half-spectrum of a grid: rows k = 0..Nx//3, -(Nx//3)..-1,
    columns eta*Ly = 0..Ny//3.  ``rows`` holds the full-table row of every
    row and ``neg`` the row of -k; the eta < 0 half is the conjugate, so
    ``mult`` counts each eta > 0 column twice.  Layouts compare and hash by
    identity, each grid's its own, so a per-time cache key hashes in C."""

    grid: Grid

    def __post_init__(self):
        g = self.grid
        k = np.r_[0:g.Nx // 3 + 1, -(g.Nx // 3):0]
        object.__setattr__(self, "rows", k % g.Nx)
        object.__setattr__(self, "neg", -np.arange(len(k)) % len(k))
        object.__setattr__(self, "K", g.K[k % g.Nx])
        object.__setattr__(self, "ETA", g.ETA[:, :g.Ny // 3 + 1])
        object.__setattr__(self, "Ly", g.Ly)
        object.__setattr__(self, "shape", (len(k), g.Ny // 3 + 1))
        object.__setattr__(self, "mult", np.r_[1.0, np.full(g.Ny // 3, 2.0)][None, :])

    def pack(self, full: np.ndarray) -> np.ndarray:
        """Compact copy of full tables (..., Nx, Ny); other modes are dropped."""
        return full[..., self.rows, :self.shape[1]]

    def hermitize_column(self, comp: np.ndarray) -> np.ndarray:
        """In place, a real field's rule: each eta = 0 column averaged with its -k partner."""
        col = comp[..., 0]
        comp[..., 0] = 0.5 * (col + np.conj(col[..., self.neg]))
        return comp

    def unpack(self, comp: np.ndarray) -> np.ndarray:
        """Full Hermitian tables of compact ones; modes not retained are 0."""
        n_eta, Ny = self.shape[1], self.grid.Ny
        out = np.zeros(comp.shape[:-2] + self.grid.shape, dtype=np.complex128)
        out[..., self.rows, :n_eta] = comp
        out[..., self.rows, Ny - n_eta + 1:] = np.conj(comp[..., self.neg, n_eta - 1:0:-1])
        return out


class ShearSymbols(NamedTuple):
    """Per-mode sheared-frame derivative symbols at a fixed time.

    Read-only arrays of the layout's shape: ``ikx`` = ik, ``idyt`` = i(eta-kt),
    ``u`` = eta - k*t, ``lam2`` = k^2+u^2, ``lam`` = sqrt(lam2), ``inv_lap`` =
    Delta_t^{-1} symbol -1/lam2, ``inv_lam`` = Lambda_t^{-1} = 1/lam (both 0
    at the (0,0) mode, where inversion is undefined), and the curl-form pair
    ``u2k2`` = u^2 - k^2, ``ku`` = k*u, which takes the transformed products
    (T12, D) of the quadratic kernel to c = u2k2 T12 - ku D.
    """

    ikx: np.ndarray
    idyt: np.ndarray
    u: np.ndarray
    lam2: np.ndarray
    lam: np.ndarray
    inv_lap: np.ndarray
    inv_lam: np.ndarray
    u2k2: np.ndarray
    ku: np.ndarray


def per_time_cache(build):
    """``functools.lru_cache`` of the read-only tables ``build(*key, t)`` for
    the last four keys used.

    ``build`` forms its tables for a float t, or, with a leading time axis
    on each, for a tuple of times.  A call with a tuple is an entry too, and
    it keeps each time's tables (views of the one build) outside the four
    entries until that time's first call, which enters them: so the stage
    times of several Lawson-RK4 steps cost one set of array operations.
    Only the latest tuple's times are kept so: a new tuple drops the times
    that an earlier one left uncalled (a run aborted between them).
    """
    parts = {}  # key of one time -> its tables from a tuple build, until called

    @functools.lru_cache(maxsize=4)
    @functools.wraps(build)
    def cached(*key):
        entry = parts.pop(key, None)
        if entry is None:
            entry = build(*key)
            for tab in (entry,) if isinstance(entry, np.ndarray) else entry:
                tab.flags.writeable = False
            if isinstance(key[-1], tuple):
                parts.clear()
                each = entry if isinstance(entry, np.ndarray) else map(
                    getattr(type(entry), "_make", tuple), zip(*entry))
                parts.update(((*key[:-1], t), part) for t, part in zip(key[-1], each))
        return entry

    def cache_clear(clear=cached.cache_clear):
        """Empty the cache, the times a tuple build left uncalled included."""
        parts.clear()
        clear()

    cached.cache_clear = cache_clear
    return cached


@per_time_cache
def shear_symbols(grid: Grid | CompactLayout, t: float) -> ShearSymbols:
    u = grid.ETA - grid.K * np.asarray(t, dtype=float)[..., None, None]
    lam2 = grid.K**2 + u**2
    lam = np.sqrt(lam2)
    nz = lam2 > 0
    with np.errstate(over="ignore"):  # -1/lam2 is -inf where lam2 > 0 is subnormal
        inv_lap = np.where(nz, -1.0 / np.where(nz, lam2, 1.0), 0.0)
    return ShearSymbols(1j * grid.K * np.ones_like(u), 1j * u, u, lam2, lam, inv_lap,
                        np.where(nz, 1.0 / np.where(nz, lam, 1.0), 0.0),
                        u * u - grid.K * grid.K, grid.K * u)


def conj_flip(coeffs: np.ndarray) -> np.ndarray:
    """conj(f)(-k,-eta), the Hermitian partner of each table on the last two axes."""
    return np.roll(np.conj(coeffs[..., ::-1, ::-1]), (1, 1), axis=(-2, -1))


def hermitize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian subspace (average with the partner table)."""
    return 0.5 * (coeffs + conj_flip(coeffs))


def _pad_len(n: int) -> int:
    """Smallest even M > 3K, K = n//3: the alias bound for retained |k| <= K.

    A product of two retained fields has modes |k| <= 2K; on M points its
    mode k lands on k - M or k + M, which misses every retained |k'| <= K
    exactly when M - 2K > K.  For n not divisible by 3 this is n itself.
    """
    m = 3 * (n // 3) + 1
    return m + (m % 2)


class ProductWorkspace:
    """Reusable padded real-transform pipeline for quadratic products.

    Pointwise products are formed between ``phys`` and ``spec``, which take
    and give stacks of compact tables (:class:`CompactLayout`).  Each axis is
    padded to the alias bound M > 3K of :func:`_pad_len`, K the largest
    retained index, so no alias of a product mode lands on a retained mode
    and those carry the exact convolution; when N is divisible by 3 this
    takes M past N.  Both transforms run along x over the retained columns
    eta >= 0 only: the eta < 0 half of a real field is the conjugate of the
    other.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.layout = grid.compact
        self.Mx = _pad_len(grid.Nx)
        self.My = _pad_len(grid.Ny)
        self._rows = self.layout.K[:, 0].astype(int) % self.Mx  # padded row of each k
        self._phys_buffers = {}  # stack shape -> (padded half, x-transformed, real)
        self._spec_buffers = {}  # stack shape -> (y-transformed, x-transformed)
        self._scratch = {}  # batch shape -> real padded stack of 7 tables per entry

    def phys(self, coeffs: np.ndarray) -> np.ndarray:
        """Real padded samples of every compact table of ``coeffs``.

        The result is this workspace's buffer for the stack shape
        ``coeffs.shape[:-2]``: it stays valid until the next ``phys`` call with
        the same stack shape, which overwrites it, so consume (or copy) it
        before then.  Reusing the buffers keeps large temporaries from being
        mapped and faulted in afresh on every call.
        """
        stack = coeffs.shape[:-2]
        bufs = self._phys_buffers.get(stack)
        if bufs is None:
            # only the rows _rows of the padded half are ever written, so the
            # others stay zero across calls
            half_shape = stack + (self.Mx, coeffs.shape[-1])
            bufs = (np.zeros(half_shape, dtype=np.complex128),
                    np.empty(half_shape, dtype=np.complex128),
                    np.empty(stack + (self.Mx, self.My)))
            self._phys_buffers[stack] = bufs
        half, mixed, out = bufs
        half[..., self._rows, :] = coeffs
        np.fft.ifft(half, axis=-2, norm="forward", out=mixed)
        return np.fft.irfft(mixed, n=self.My, axis=-1, norm="forward", out=out)

    def spec(self, values: np.ndarray) -> np.ndarray:
        """Compact dealiased tables of every real stack entry of ``values``; the
        eta = 0 column is averaged with its -k partner (exactly Hermitian).

        Both transforms write into this workspace's buffers for the stack
        shape ``values.shape[:-2]``; the result, gathered from them, is a
        fresh array that no later call touches.
        """
        stack = values.shape[:-2]
        bufs = self._spec_buffers.get(stack)
        if bufs is None:
            bufs = (np.empty(stack + (self.Mx, self.My // 2 + 1), dtype=np.complex128),
                    np.empty(stack + (self.Mx, self.layout.shape[1]), dtype=np.complex128))
            self._spec_buffers[stack] = bufs
        half, mixed = bufs
        np.fft.rfft(values, axis=-1, norm="forward", out=half)
        np.fft.fft(half[..., :self.layout.shape[1]], axis=-2, norm="forward", out=mixed)
        # np.take gives a C-contiguous copy, unlike mixed[..., rows, :]
        return self.layout.hermitize_column(np.take(mixed, self._rows, axis=-2))

    def scratch(self, batch: tuple = ()) -> np.ndarray:
        """A reusable real padded stack (7, *batch, Mx, My), for the pointwise
        products of the quadratic kernel (its first 4) and of the energy
        identity, ``batch`` its batch of times, to hand to :meth:`spec`; it is
        one buffer per batch shape, so fill and consume it before its next
        use.  Tables never written are never paged in."""
        if batch not in self._scratch:
            self._scratch[batch] = np.empty((7, *batch, self.Mx, self.My))
        return self._scratch[batch]

    def advect(self, sym: ShearSymbols, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Dealiased (a . grad_t) c, at the time of ``sym``, for every table of c.

        ``a`` is a compact vector table (2, ...) and ``c`` any compact stack
        (n, ...); one inverse transform of 2 + 2n tables and one forward of n,
        the products formed in place in the samples of the gradients.
        """
        n = len(c)
        p = self.phys(np.concatenate([a, sym.ikx * c, sym.idyt * c]))
        dx, dy = p[2:2 + n], p[2 + n:]
        dx *= p[0]
        dy *= p[1]
        dx += dy
        return self.spec(dx)


def convolution_direct(grid: Grid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """O(N^2) reference convolution, (f*g)(k,eta) = sum f(k',eta')g(k-k',eta-eta').

    Sum runs over all table entries of f; modes falling outside the table are
    dropped (true truncated convolution, no periodic wrap).  Test oracle only.
    """
    Nx, Ny = grid.shape
    out = np.zeros((Nx, Ny), dtype=np.complex128)
    kix = np.fft.fftfreq(Nx, 1.0 / Nx).astype(int)
    niy = np.fft.fftfreq(Ny, 1.0 / Ny).astype(int)
    index_x = {v: i for i, v in enumerate(kix)}
    index_y = {v: i for i, v in enumerate(niy)}
    for i1, k1 in enumerate(kix):
        for j1, n1 in enumerate(niy):
            a = f[i1, j1]
            if a == 0:
                continue
            for i2, k2 in enumerate(kix):
                ks = k1 + k2
                if ks not in index_x:
                    continue
                for j2, n2 in enumerate(niy):
                    ns = n1 + n2
                    if ns not in index_y:
                        continue
                    out[index_x[ks], index_y[ns]] += a * g[i2, j2]
    return out


def random_hermitian_coeffs(grid: Grid, rng: np.random.Generator,
                            envelope: np.ndarray | None = None) -> np.ndarray:
    """Random mean-free Hermitian table with Nyquist rows zeroed."""
    raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if envelope is not None:
        raw = raw * envelope
    c = hermitize(raw)
    c[grid.nyquist] = 0.0
    c[0, 0] = 0.0
    return c


def l2_norm(grid: Grid | CompactLayout, *tables: np.ndarray) -> float:
    """sqrt((1/Ly) * sum mult |fhat|^2) accumulated over all given tables."""
    s = sum(float(np.sum(grid.mult * np.abs(t) ** 2)) for t in tables)
    return float(np.sqrt(s / grid.Ly))
