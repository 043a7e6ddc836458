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

An :class:`MHDState` is one array ``vb`` of shape (2, 2, ...): field (v, b),
then component, then the mode table.  The vector operators
(:func:`perp_grad_t`, :func:`curl_t`, :func:`divergence_t`,
:func:`leray_project_t`) take or give the components on axis -3, so one
call serves a single field or the whole (v, b) stack.

States are mean-free and divergence-free in the sheared frame at their own
time tag; at k = 0 divergence-freeness forces the second components of the
averages to vanish.  ptilde is zero on k = 0, so a :class:`TailoredState`
carries the first components of the averages of v and b in the k = 0 rows
of its two tables.  Every operator is elementwise in modes, so states live
on a grid or on its compact layout alike; the runs keep them on the layout.
The conversions are the chart maps :func:`to_p`, :func:`to_ptilde` and
:func:`from_ptilde`; they read Lambda_t^{-1} from ``spectral.shear_symbols``
and the correction symbol from its own ``spectral.per_time_cache``.  Every
operator returns fresh arrays, which the caller may edit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import CompactLayout, Grid, per_time_cache, shear_symbols, l2_norm


@dataclass
class MHDState:
    """Velocity/magnetic perturbation pair in the sheared frame, one stack
    ``vb`` (2, 2, *grid.shape): field (v, b), then component."""

    grid: Grid | CompactLayout
    vb: np.ndarray
    t: float = 0.0

    @property
    def v(self) -> np.ndarray:
        return self.vb[0]

    @property
    def b(self) -> np.ndarray:
        return self.vb[1]

    def norm(self) -> float:
        return l2_norm(self.grid, *self.v, *self.b)


@dataclass
class TailoredState:
    """(ptilde_1, ptilde_2) on k != 0; the k = 0 rows hold the x-averages.

    A batch of states at a tuple of times ``t`` stacks them on an axis just
    before the mode table, (2, n, ...), which the per-time tables' leading
    time axis meets; :func:`tailored_to_state` takes it to a ``vb`` of
    (2, n, 2, ...)."""

    grid: Grid | CompactLayout
    ptilde: np.ndarray  # (2, *grid.shape) complex; row k = 0 is (v1, b1) at k = 0
    t: float = 0.0

    def norm(self) -> float:
        return l2_norm(self.grid, *self.ptilde)


def divergence_t(grid: Grid, u: np.ndarray, t: float) -> np.ndarray:
    """d_x u1 + d_y^t u2 of each vector of u, the components on axis -3."""
    sym = shear_symbols(grid, t)
    return sym.ikx * u[..., 0, :, :] + sym.idyt * u[..., 1, :, :]


def curl_t(grid: Grid, u: np.ndarray, t: float) -> np.ndarray:
    """Scalar curl d_x u2 - d_y^t u1 of each vector of u, the components on
    axis -3."""
    sym = shear_symbols(grid, t)
    return sym.ikx * u[..., 1, :, :] - sym.idyt * u[..., 0, :, :]


def perp_grad_t(grid: Grid, phi: np.ndarray, t: float) -> np.ndarray:
    """(d_y^t phi, -d_x phi) of each table of phi, the components on axis -3;
    always divergence-free in the sheared frame."""
    sym = shear_symbols(grid, t)
    out = np.empty(phi.shape[:-2] + (2,) + phi.shape[-2:], complex)
    np.multiply(sym.idyt, phi, out=out[..., 0, :, :])
    np.multiply(-sym.ikx, phi, out=out[..., 1, :, :])
    return out


def leray_project_t(grid: Grid, u: np.ndarray, t: float) -> np.ndarray:
    """u - grad_t Delta_t^{-1} (div_t u) of each vector of u, the components
    on axis -3; the (0,0) mode passes through."""
    sym = shear_symbols(grid, t)
    phi = sym.inv_lap * (sym.ikx * u[..., 0, :, :] + sym.idyt * u[..., 1, :, :])
    return u - np.stack([sym.ikx * phi, sym.idyt * phi], axis=-3)


def to_p(state: MHDState):
    """The stacked (p1, p2) = Lambda_t^{-1} curl_t of v and b, with the k = 0
    rows zero."""
    g, t = state.grid, state.t
    p = shear_symbols(g, t).inv_lam * curl_t(g, state.vb, t)
    p[:, 0] = 0.0
    return p


@per_time_cache
def ptilde_correction_symbol(grid: Grid | CompactLayout, alpha: float, t: float) -> np.ndarray:
    """Read-only symbol of -(1/alpha) d_y^t Delta_t^{-1}: +i(eta - kt)/(alpha
    Lambda_t^2), 0 on k = 0; the last four keys are kept."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    sym = shear_symbols(grid, t)
    corr = 1j * sym.u / (alpha * np.where(sym.lam2 == 0, 1.0, sym.lam2))
    corr[..., 0, :] = 0.0
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
    pt[:, 0] = state.vb[:, 0, 0]  # the k = 0 rows hold the averages of v1, b1
    return TailoredState(g, pt, t)


def tailored_to_state(ts: TailoredState, alpha: float) -> MHDState:
    g, t, pt = ts.grid, ts.t, ts.ptilde
    p = pt.copy()  # (p1, p2) as from_ptilde forms them, k = 0 rows dropped
    p[0] -= ptilde_correction_symbol(g, alpha, t) * pt[1]
    p[..., 0, :] = 0.0
    vb = perp_grad_t(g, shear_symbols(g, t).inv_lam * p, t)  # (v, b)
    vb[..., 0, 0, :] = pt[..., 0, :]  # the averages of v1 and b1
    return MHDState(g, vb, t)


def hminus1_norm(grid: Grid | CompactLayout, *tables: np.ndarray) -> float:
    """Inhomogeneous H^{-1}: <k,eta>^{-1} multiplier on the mean-free part."""
    w2 = 1.0 / (1.0 + grid.K**2 + grid.ETA**2)
    w2[0, 0] = 0.0
    s = sum(float(np.sum(grid.mult * w2 * np.abs(c) ** 2)) for c in tables)
    return float(np.sqrt(s / grid.Ly))


def vorticity_current_norms(state: MHDState):
    """(||(v,b)||_L2, ||(w,j)||_L2, ||(v,b)||_H^-1) with w, j the sheared curls."""
    g = state.grid
    return (state.norm(), l2_norm(g, *curl_t(g, state.vb, state.t)),
            hminus1_norm(g, *state.v, *state.b))


def divergence_residual(state: MHDState) -> float:
    denom = state.norm()
    if denom == 0:
        return 0.0
    return l2_norm(state.grid, *divergence_t(state.grid, state.vb, state.t)) / denom
