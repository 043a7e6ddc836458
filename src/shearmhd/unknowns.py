"""Transforms between (v, b), symmetric (p1, p2) and tailored (ptilde) unknowns.

Sign conventions, fixed once and tested against each other:

* perpendicular gradient  perp_grad_t(phi) = (d_y^t phi, -d_x phi),
  divergence-free by construction;
* scalar curl             curl_t(u) = d_x u2 - d_y^t u1;
* p_i = Lambda_t^{-1} curl_t(field_neq) (:func:`to_p`), inverted by
  field_neq = perp_grad_t(Lambda_t^{-1} p_i);
* ptilde_1 = p_1 - (1/alpha) d_y^t Delta_t^{-1} p_2, i.e. the correction
  symbol on p_2 is +i(eta - k t)/(alpha * Lambda_t^2); ptilde_2 = p_2.

With these choices the two construction routes of the adapted velocity
commute exactly: Lambda_t^{-1} curl_t(vtilde_neq) = ptilde_1 for
vtilde = v + (1/alpha) d_x^{-1} b_2 e_1.

States are mean-free and divergence-free in the sheared frame at their own
time tag; at k = 0 divergence-freeness forces the second components of the
averages to vanish.  ptilde is zero on k = 0, so a :class:`TailoredState`
carries the first components of the averages of v and b in the k = 0 rows
of its two tables.  Every operator is elementwise in modes, so states live
on a grid or on its compact layout alike; the runs keep them on the layout.
The conversions are the chart maps :func:`to_p`, :func:`to_ptilde` and
:func:`from_ptilde`; they read Lambda_t^{-1} from ``spectral.shear_symbols``
and the correction symbol from its own per-time cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import CompactLayout, Grid, shear_symbols, l2_norm


@dataclass
class MHDState:
    """Velocity/magnetic perturbation pair in the sheared frame."""

    grid: Grid | CompactLayout
    v: np.ndarray  # (2, *grid.shape) complex
    b: np.ndarray
    t: float = 0.0

    def norm(self) -> float:
        return l2_norm(self.grid, self.v[0], self.v[1], self.b[0], self.b[1])


@dataclass
class TailoredState:
    """(ptilde_1, ptilde_2) on k != 0; the k = 0 rows hold the x-averages."""

    grid: Grid | CompactLayout
    ptilde: np.ndarray  # (2, *grid.shape) complex; row k = 0 is (v1, b1) at k = 0
    t: float = 0.0

    def norm(self) -> float:
        return l2_norm(self.grid, *self.ptilde)


def divergence_t(grid: Grid, u: np.ndarray, t: float) -> np.ndarray:
    sym = shear_symbols(grid, t)
    return sym.ikx * u[0] + sym.idyt * u[1]


def curl_t(grid: Grid, u: np.ndarray, t: float) -> np.ndarray:
    """Scalar curl d_x u2 - d_y^t u1."""
    sym = shear_symbols(grid, t)
    return sym.ikx * u[1] - sym.idyt * u[0]


def perp_grad_t(grid: Grid, phi: np.ndarray, t: float) -> np.ndarray:
    """(d_y^t phi, -d_x phi) of each table of phi, the components on axis -3;
    always divergence-free in the sheared frame."""
    sym = shear_symbols(grid, t)
    return np.stack([sym.idyt * phi, -sym.ikx * phi], axis=-3)


def leray_project_t(grid: Grid, u: np.ndarray, t: float) -> np.ndarray:
    """u - grad_t Delta_t^{-1} (div_t u); the (0,0) mode passes through."""
    sym = shear_symbols(grid, t)
    phi = sym.inv_lap * (sym.ikx * u[0] + sym.idyt * u[1])
    return np.stack([u[0] - sym.ikx * phi, u[1] - sym.idyt * phi])


def to_p(state: MHDState):
    """The stacked (p1, p2) = Lambda_t^{-1} curl_t of v and b, with the k = 0
    rows zero."""
    g, t = state.grid, state.t
    p = shear_symbols(g, t).inv_lam * np.stack([curl_t(g, state.v, t), curl_t(g, state.b, t)])
    p[:, 0] = 0.0
    return p


@functools.lru_cache(maxsize=4)
def ptilde_correction_symbol(grid: Grid | CompactLayout, alpha: float, t: float) -> np.ndarray:
    """Read-only symbol of -(1/alpha) d_y^t Delta_t^{-1}: +i(eta - kt)/(alpha
    Lambda_t^2), 0 on k = 0; the last four keys are kept."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    sym = shear_symbols(grid, t)
    corr = 1j * sym.u / (alpha * np.where(sym.lam2 == 0, 1.0, sym.lam2))
    corr[0, :] = 0.0
    corr.flags.writeable = False
    return corr


def to_ptilde(p1: np.ndarray, p2: np.ndarray, alpha: float, t: float, grid: Grid):
    return p1 + ptilde_correction_symbol(grid, alpha, t) * p2, p2.copy()


def from_ptilde(pt1: np.ndarray, pt2: np.ndarray, alpha: float, t: float, grid: Grid):
    return pt1 - ptilde_correction_symbol(grid, alpha, t) * pt2, pt2.copy()


def to_vtilde(state: MHDState, alpha: float) -> np.ndarray:
    """Adapted velocity vtilde = v + (1/alpha) d_x^{-1} b_2 e_1 (k != 0 only)."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    g = state.grid
    k = g.K * np.ones(g.shape)
    inv_ikx = np.zeros(g.shape, dtype=np.complex128)
    nz = k != 0
    inv_ikx[nz] = 1.0 / (1j * k[nz])
    vt = state.v.copy()
    vt[0] = vt[0] + inv_ikx * state.b[1] / alpha
    return vt


def state_to_tailored(state: MHDState, alpha: float) -> TailoredState:
    g, t = state.grid, state.t
    pt = np.stack(to_ptilde(*to_p(state), alpha, t, g))
    pt[:, 0] = state.v[0][0], state.b[0][0]  # the k = 0 rows hold the averages
    return TailoredState(g, pt, t)


def tailored_to_state(ts: TailoredState, alpha: float) -> MHDState:
    g, t, pt = ts.grid, ts.t, ts.ptilde
    p = np.stack(from_ptilde(pt[0], pt[1], alpha, t, g))  # (p1, p2), k = 0 rows dropped
    p[:, 0] = 0.0
    vb = perp_grad_t(g, shear_symbols(g, t).inv_lam * p, t)  # (v, b)
    vb[:, 0, 0] = pt[:, 0]  # the averages of v1 and b1
    return MHDState(g, vb[0], vb[1], t)


def hminus1_norm(grid: Grid | CompactLayout, *tables: np.ndarray) -> float:
    """Inhomogeneous H^{-1}: <k,eta>^{-1} multiplier on the mean-free part."""
    w2 = 1.0 / (1.0 + grid.K**2 + grid.ETA**2)
    w2[0, 0] = 0.0
    s = sum(float(np.sum(grid.mult * w2 * np.abs(c) ** 2)) for c in tables)
    return float(np.sqrt(s / grid.Ly))


def vorticity_current_norms(state: MHDState):
    """(||(v,b)||_L2, ||(w,j)||_L2, ||(v,b)||_H^-1) with w, j the sheared curls."""
    g, t = state.grid, state.t
    w = curl_t(g, state.v, t)
    j = curl_t(g, state.b, t)
    return (state.norm(), l2_norm(g, w, j),
            hminus1_norm(g, state.v[0], state.v[1], state.b[0], state.b[1]))


def divergence_residual(state: MHDState) -> float:
    g, t = state.grid, state.t
    dv = divergence_t(g, state.v, t)
    db = divergence_t(g, state.b, t)
    denom = state.norm()
    if denom == 0:
        return 0.0
    return l2_norm(g, dv, db) / denom
