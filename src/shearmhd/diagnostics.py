"""Norms, energies, bootstrap quantities, the energy-derivative identity
and growth-law fitting.

Exponentially weighted norms are accumulated with log-sum-exp; ``*_log``
helpers return log-values for ranges where the plain value overflows.

Every norm, energy and pairing reads the multiplicity ``mult`` of its
layout (:mod:`shearmhd.spectral`), so the same functions take the compact
tables the runs sample and the full tables of the public API.

The energy-derivative identity implemented in :func:`identity_sides` is the
exact time derivative of E = ||A ptilde||^2, the k = 0 rows of ptilde being
the x-averages of v1 and b1 (:class:`~shearmhd.unknowns.TailoredState`):

    dE/dt + 2|dlam| ||Lambda^{s/2} A X||^2
          + 2 sum (d_t q / q) A Atilde |X|^2        (signed)
          + 2 ||sqrt(-d_t m / m) A X||^2
    = 2 Re<A ptilde_1, S A ptilde_2> + 2 NL + 2 ONL,

with NL the commutator-form quadratic pairing and ONL the two tailored
correction pairings.  The q-term carries the geometric-mean weight A*Atilde
(differentiating J produces J~/J times A^2) and the lambda/m terms carry A;
the q factor is signed because q decreases on the approach to each
resonance.  Branch corners of q make E only piecewise-C^1, so finite
differencing of E must avoid stencils that straddle a corner time.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .spectral import CompactLayout, Grid, ProductWorkspace, shear_symbols
from .unknowns import (MHDState, TailoredState, perp_grad_t, ptilde_correction_symbol,
                       tailored_to_state, vorticity_current_norms)
from .weights import MultiplierSet, WeightParams, gevrey_log_weight, q_endpoint
from .dynamics import PtildeIntegrator, evolve, ptilde_coupling, quadratic_terms


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def weighted_l2_log(grid: Grid | CompactLayout, log_weight: np.ndarray,
                    *tables: np.ndarray) -> float:
    """log of sqrt((1/Ly) sum mult exp(2*log_weight) |fhat|^2), by log-sum-exp."""
    logs, mults = [np.empty(0)], [np.empty(0)]  # no tables give -inf
    for c in tables:
        mag = np.abs(c)
        nz = mag > 0
        logs.append(2.0 * np.broadcast_to(log_weight, c.shape)[nz] + 2.0 * np.log(mag[nz]))
        mults.append(np.broadcast_to(grid.mult, c.shape)[nz])
    vals, mult = np.concatenate(logs), np.concatenate(mults)
    keep = np.isfinite(vals)
    if not np.any(keep):
        return -np.inf
    m = float(np.max(vals[keep]))
    total = m + float(np.log(np.sum(mult[keep] * np.exp(vals[keep] - m))))
    return 0.5 * (total - np.log(grid.Ly))


def weighted_l2(grid: Grid | CompactLayout, log_weight: np.ndarray,
                *tables: np.ndarray) -> float:
    return float(np.exp(weighted_l2_log(grid, log_weight, *tables)))


def gevrey_norm(grid: Grid | CompactLayout, tables, lam: float, s: float, N: int) -> float:
    """Gevrey norm sqrt((1/Ly) sum <k,eta>^{2N} e^{2 lam |k,eta|^s} |fhat|^2)."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    lw = gevrey_log_weight(grid.K, grid.ETA, lam, s, N)
    if isinstance(tables, np.ndarray) and tables.ndim == 2:
        tables = [tables]
    return weighted_l2(grid, lw, *tables)


# ---------------------------------------------------------------------------
# energies and bootstrap terms
# ---------------------------------------------------------------------------

def energy_E(ts: TailoredState, mset: MultiplierSet):
    """(E, E0) of the run: the A-weighted squared norm of ptilde and the
    Alo-weighted one of its k = 0 rows, the averages."""
    g = ts.grid
    E = float(np.exp(2.0 * weighted_l2_log(g, mset.log_A, *ts.ptilde)))
    E0 = float(np.exp(2.0 * weighted_l2_log(g, mset.log_Alo, *ts.ptilde[:, :1])))
    return E, E0


def dissipation_terms(ts: TailoredState, mset: MultiplierSet):
    """Instantaneous bootstrap integrands for the E and E0 lines.

    Returns (|dlam| ||Lambda^{s/2} A X||^2, |||dq/q|^{1/2} Atilde X||^2,
    and the two A^lo analogues on the averages).
    """
    g = ts.grid
    p = mset.params
    avg = ts.ptilde[:, :1]
    mag2 = g.K**2 + g.ETA**2
    log_lam_s = 0.25 * p.s * np.log(np.where(mag2 > 0, mag2, 1.0))
    adl = abs(mset.dlam)
    t_lam = adl * weighted_l2(g, mset.log_A + log_lam_s, *ts.ptilde) ** 2
    absq = np.abs(mset.dtq_over_q)
    with np.errstate(divide="ignore"):
        log_sq = 0.5 * np.log(np.where(absq > 0, absq, 1.0))
    log_sq = np.where(absq > 0, log_sq, -np.inf)
    t_q = weighted_l2(g, mset.log_Atilde + log_sq, *ts.ptilde) ** 2
    t_lam_lo = adl * weighted_l2(g, mset.log_Alo + log_lam_s[:1], *avg) ** 2
    t_q_lo = weighted_l2(g, mset.log_Alo + log_sq[:1], *avg) ** 2
    return t_lam, t_q, t_lam_lo, t_q_lo


@dataclass
class DiagnosticsRecord:
    t: float
    l2_vb: float
    hminus1_vb: float
    l2_wj: float
    gevrey_vb: float
    E: float
    E0: float
    int_lam: float = 0.0
    int_q: float = 0.0
    int_lam_lo: float = 0.0
    int_q_lo: float = 0.0

    def validate_against(self, prev: "DiagnosticsRecord | None"):
        vals = astuple(self)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite diagnostics entry")
        if any(v < 0 for v in vals):
            raise ValueError("diagnostics entries must be nonnegative")
        if prev is not None and self.t <= prev.t:
            raise ValueError("time must increase strictly across records")


def make_record(state: MHDState, ts: TailoredState, mset: MultiplierSet,
                lam2: float, integrals=(0.0, 0.0, 0.0, 0.0)) -> DiagnosticsRecord:
    l2_vb, l2_wj, hminus1_vb = vorticity_current_norms(state)
    E, E0 = energy_E(ts, mset)
    return DiagnosticsRecord(
        t=state.t, l2_vb=l2_vb, hminus1_vb=hminus1_vb, l2_wj=l2_wj,
        gevrey_vb=gevrey_norm(state.grid, [*state.v, *state.b], lam2, mset.params.s,
                              mset.params.N),
        E=E, E0=E0,
        int_lam=integrals[0], int_q=integrals[1],
        int_lam_lo=integrals[2], int_q_lo=integrals[3],
    )


def bootstrap_monitor(records, params: WeightParams, c_star: float = 1.0):
    """Ratios of the two bootstrap lines to their stated budgets."""
    eps, c0 = params.eps, params.c0
    out = []
    for r in records:
        line1 = (r.E + r.int_lam + r.int_q) / (c_star * eps**2)
        budget2 = c_star * np.log(np.e + r.t) ** 2 * eps**4 / c0**2
        line2 = (r.E0 + r.int_lam_lo + r.int_q_lo) / budget2
        out.append({"t": r.t, "ratio_E_line": float(line1),
                    "ratio_E0_line": float(line2)})
    summary = {
        "c_star": c_star,
        "max_ratio_E_line": max(r["ratio_E_line"] for r in out) if out else 0.0,
        "max_ratio_E0_line": max(r["ratio_E0_line"] for r in out) if out else 0.0,
    }
    return out, summary


# ---------------------------------------------------------------------------
# energy-derivative identity
# ---------------------------------------------------------------------------

def _pair(grid: Grid | CompactLayout, x, y) -> float:
    """(1/Ly) Re sum mult conj(x) y accumulated over matching tables of real
    fields."""
    s = 0.0
    for xc, yc in zip(x, y):
        s += float(np.sum(grid.mult * (np.conj(xc) * yc).real))
    return s / grid.Ly


def identity_sides(ts: TailoredState, mset: MultiplierSet, alpha: float,
                   ws: ProductWorkspace | None = None):
    """All analytic terms of the energy identity at the state's time.

    ``mset`` holds the multipliers at that time, on the state's layout.
    Returns a dict with the left-side weight terms (lam_term, q_term,
    m_term) and the right-side pairings (L_pair, NL, ONL, with S the derived
    symbol); the identity reads
    dE/dt = -2*(lam_term + q_term + m_term) + 2*(L_pair + NL + ONL).
    A state on a full grid is packed (and its weights rebuilt) once.
    """
    g, t, params = ts.grid, ts.t, mset.params
    if isinstance(g, Grid):
        g = g.compact
        ts = TailoredState(g, g.pack(ts.ptilde), t)
        mset = MultiplierSet(g, t, params)
    if float(np.max(mset.log_A)) > 300.0:
        raise OverflowError("weights too large for direct pairing; reduce lam0/rho")
    if ws is None:
        ws = ProductWorkspace(g.grid)
    A = mset.A
    pt1, pt2 = ts.ptilde
    # left-side weight terms; the k = 0 rows (the averages) take no m term,
    # nor any pairing through S or corr: all three vanish at k = 0
    mag2 = g.K**2 + g.ETA**2
    lam_s = mag2 ** (0.5 * params.s)
    dens = g.mult * (np.abs(pt1) ** 2 + np.abs(pt2) ** 2)
    lam_term = abs(mset.dlam) * np.sum(lam_s * A**2 * dens) / g.Ly
    AAt = np.exp(mset.log_A + mset.log_Atilde)
    q_term = np.sum(mset.dtq_over_q * AAt * dens) / g.Ly
    m_term = np.sum(-mset.dtm_over_m * A**2 * dens) / g.Ly
    # right side: linear pairing
    sym = shear_symbols(g, t)
    S = ptilde_coupling(g.K, sym.u, alpha)
    L_pair = _pair(g, [A * pt1], [S * (A * pt2)])
    # right side: nonlinear pairings in commutator form
    st = tailored_to_state(ts, alpha)
    v, b = st.v, st.b
    # the projected pair; every pairing below meets it only through fields
    # that are divergence-free mode by mode, which the projection leaves alone
    c, E = quadratic_terms(g, v, b, t, ws)
    nlv, nlb = perp_grad_t(g, np.stack([-sym.inv_lap * c, E]), t)
    Av, Ab = A * v, A * b
    # the advections in Elsasser pairs z+- = v +- b: with X = z-.grad_t(A z+)
    # and Y = z+.grad_t(A z-), v.grad_t(Av) - b.grad_t(Ab) = (X + Y)/2 and
    # v.grad_t(Ab) - b.grad_t(Av) = (X - Y)/2
    X = ws.advect(sym, v - b, Av + Ab)
    Y = ws.advect(sym, v + b, Av - Ab)
    NL = (_pair(g, Av, A * nlv + 0.5 * (X + Y))
          + _pair(g, Ab, A * nlb + 0.5 * (X - Y)))
    # right side: tailored corrections; corr is (1/alpha) d_y^t Lambda_t^{-2}
    # off k = 0 and 0 on it, so the k = 0 rows of both pairings vanish
    corr = ptilde_correction_symbol(g, alpha, t)
    ONL1 = _pair(g, A * (corr * b), A * nlv)
    n2 = sym.lam * E  # Lambda_t^{-1} curl_t(nlb)
    ONL2 = _pair(g, [A * pt1], [A * (corr * n2)])
    return {"lam_term": float(lam_term), "q_term": float(q_term),
            "m_term": float(m_term), "L_pair": float(L_pair),
            "NL": float(NL), "ONL": float(ONL1 + ONL2)}


def q_corner_times(grid: Grid, t_max: float) -> np.ndarray:
    """All q branch-corner times of the grid's eta values in (0, t_max]."""
    times = set()
    for eta in np.abs(grid.eta):
        if eta <= 1.0:
            continue
        ks = np.arange(np.floor(np.sqrt(eta)) + 1.0)
        # the interval endpoints t_k (t_0 = 2|eta|) and the resonances eta/k
        for val in np.r_[q_endpoint(ks, eta), eta / ks[1:]]:
            if 0 < val <= t_max:
                times.add(round(val, 12))
    return np.array(sorted(times))


def energy_identity_residuals(ts0: TailoredState, params: WeightParams,
                              alpha: float, t_end: float, dt: float,
                              stride: int = 5):
    """Evolve the tailored form and measure the identity residual.

    E is sampled every ``stride`` fixed steps (at t0 + m * stride * dt) and
    differentiated with the 4th-order 5-point centered stencil; stencil
    windows containing a q branch corner of any grid eta are skipped (E is
    only piecewise smooth there).  t_end - t0 must be a whole multiple of
    stride * dt (within the 1e-9 relative slack of :func:`evolve`), since a
    shorter last interval would break the uniform stencil; otherwise
    ``ValueError`` is raised.  Returns the list of (t, residual) pairs;
    residuals are relative to the identity scale.
    """
    g = ts0.grid
    h = stride * dt
    n = (t_end - ts0.t) / h
    if abs(n - round(n)) > 1e-9 * abs(n):
        raise ValueError(f"t_end - t0 = {t_end - ts0.t:.6g} is not a whole multiple "
                         f"of stride * dt = {h:.6g}")
    integ = PtildeIntegrator(g, alpha)
    lay = integ.layout
    samples = []
    evolve(integ, integ.pack(ts0), ts0.t, t_end, dt=dt, cfl=None, sample_dt=h,
           callback=lambda t, Y: samples.append(TailoredState(lay, Y, t)))
    # corners of every eta of the full grid, retained or not
    corners = q_corner_times(g, t_end + h)
    energies, terms = [], {}
    for i, st in enumerate(samples):
        t = st.t
        mset = MultiplierSet(lay, t, params)
        energies.append(energy_E(st, mset)[0])
        if 2 <= i < len(samples) - 2 and not np.any(
                (corners > t - 2.5 * h) & (corners < t + 2.5 * h)):
            terms[i] = identity_sides(st, mset, alpha, integ.ws)
    out = []
    for i, tm in terms.items():
        dE = (-energies[i + 2] + 8 * energies[i + 1]
              - 8 * energies[i - 1] + energies[i - 2]) / (12 * h)
        lhs = dE + 2 * (tm["lam_term"] + tm["q_term"] + tm["m_term"])
        rhs = 2 * (tm["L_pair"] + tm["NL"] + tm["ONL"])
        scale = max(abs(dE), 2 * abs(tm["lam_term"]) + 2 * abs(tm["q_term"])
                    + 2 * abs(tm["m_term"]), abs(rhs), 1e-300)
        out.append((samples[i].t, abs(lhs - rhs) / scale))
    return out


# ---------------------------------------------------------------------------
# growth fit
# ---------------------------------------------------------------------------

def growth_fit(times, wj_norms, hminus1_in: float):
    """Least-squares fit of ||(w,j)||(t) against <t> = sqrt(1+t^2).

    Returns (slope/hminus1_in, intercept, r_squared, degenerate_flag).
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(wj_norms, dtype=float)
    if times.size < 10:
        raise ValueError("need at least 10 samples")
    x = np.hypot(1.0, times)
    var = float(np.var(y))
    if var == 0.0 or hminus1_in == 0.0:
        return 0.0, float(y[0]) if y.size else 0.0, 0.0, True
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))
    return float(coef[0] / hminus1_in), float(coef[1]), float(r2), False
