"""Time-dependent Fourier multipliers: q, J, Jtilde, m, mtilde, lambda(t), A.

All exponentially large multipliers are handled as natural logs; ``log_*``
functions return log-values and plain-named ones exponentiate when safe.

The piecewise weight q(t, eta) is built per resonant interval
[t_k, t_{k-1}], t_k = (eta/k + eta/(k+1))/2, t_0 = 2|eta|, k = 1..floor(sqrt(|eta|)):
within each interval q dips from the plateau value 1 down to (k^2/eta)^rho
at the resonant time eta/k and climbs back, the two branch slopes being
fixed by continuity (1 + slope * half-interval-length = eta/k^2).  Outside
the interval union q is extended by the constant plateau value 1, anchored
at q(2|eta|) = 1.  For |eta| <= 1 there are no resonant intervals and q = 1.
Branch corners use the right-derivative.  :func:`q_endpoint` is the one
place the endpoints t_k are written; the energy identity's corner times,
the audit's sample times and the resonance chain's intervals I_k take them
from there.

q is evaluated over whole arrays with the branch index in closed form: t_k =
eta(2k+1)/(2k(k+1)) decreases in k, so the k with t in [t_k, t_{k-1}) is the
ceiling of the positive root of 2tk^2 + 2(t-eta)k - eta = 0, clipped to
[1, floor(sqrt(|eta|))] and corrected by one against the endpoints t_k and
t_{k-1} themselves, so the intervals stay right-open.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightParams:
    """Scalar parameter set governing every multiplier."""

    rho: float = 0.05
    lam0: float = 13.5
    s: float = 0.6
    N: int = 5
    alpha: float = 1.0
    c0: float = 0.05
    eps: float = 1e-3

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not (0.5 < self.s <= 1.0):
            raise ValueError("s must lie in (1/2, 1]")
        if self.N < 5:
            raise ValueError("N must be an integer >= 5")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if not (0 < self.eps < self.c0 < 1):
            raise ValueError("need 0 < eps < c0 < 1")

    def check_lam0(self):
        """``ValueError`` unless lam0 >= rho (250 + 2/(s - 1/2)), the floor
        that binds the multipliers' readers (:class:`MultiplierSet`, the audit)."""
        if self.lam0 < self.rho * (250.0 + 2.0 / (self.s - 0.5)) - 1e-12:
            raise ValueError("lam0 must satisfy lam0 >= rho*(250 + 2/(s-1/2))")

    @property
    def freq_cut(self) -> float:
        """Frequency cut of m: active for sqrt(|eta|) <= 10*c0/eps."""
        return 10.0 * self.c0 / self.eps


# ---------------------------------------------------------------------------
# q weight
# ---------------------------------------------------------------------------

def q_endpoint(k, eta):
    """Interval endpoint t_{k,eta}; k = 0 gives the anchor 2|eta|."""
    k = np.asarray(k, dtype=float)
    eta = np.abs(np.asarray(eta, dtype=float))
    return np.where(k == 0, 2.0 * eta, 0.5 * (eta / np.where(k == 0, 1, k)
                                              + eta / (k + 1.0)))


def _log_q_and_rate(t, eta, rho):
    """(log q, d_t log q) elementwise over broadcast t and eta."""
    t, eta = np.broadcast_arrays(np.asarray(t, dtype=float),
                                 np.abs(np.asarray(eta, dtype=float)))
    resonant = eta > 1.0
    eta = np.where(resonant, eta, 2.0)
    k0 = np.floor(np.sqrt(eta))
    t_low = 0.5 * (eta / k0 + eta / (k0 + 1.0))
    active = resonant & (t >= t_low) & (t < 2.0 * eta)
    if not active.any():  # every t before its eta's first t_low, say: q = 1 throughout
        return np.zeros(t.shape), np.zeros(t.shape)
    # inactive points are evaluated at t_low, inside the range, and masked
    t = np.where(active, t, t_low)
    # t_k decreases in k, so t in [t_k, t_{k-1}) puts the positive root of
    # 2 t k^2 + 2 (t - eta) k - eta = 0 in (k - 1, k]; the +-1 corrections
    # settle roundoff against the endpoints themselves (right-open)
    k = np.clip(np.ceil((eta - t + np.sqrt((t - eta) ** 2 + 2.0 * t * eta))
                        / (2.0 * t)), 1.0, k0)
    k += t < q_endpoint(k, eta)
    k -= t >= q_endpoint(k - 1.0, eta)
    tk, tk1 = q_endpoint(k, eta), q_endpoint(k - 1.0, eta)
    res = eta / k
    gain = eta / k**2 - 1.0
    before = t < res  # approaching the resonance: q decreasing
    slope = np.where(before, gain / (res - tk), gain / (tk1 - res))
    z = 1.0 + slope * np.where(before, res - t, t - res)
    lq = rho * (np.log(k**2 / eta) + np.log(z))
    dq = np.where(before, -rho, rho) * slope / z
    return np.where(active, lq, 0.0), np.where(active, dq, 0.0)


def log_q(t, eta, params: WeightParams):
    """log q(t, eta); q = 1 for |eta| <= 1 and outside the construction range."""
    return _log_q_and_rate(t, eta, params.rho)[0]


def q_value(t, eta, params: WeightParams):
    return np.exp(log_q(t, eta, params))


def dtq_over_q(t, eta, params: WeightParams):
    """Signed d_t q / q by analytic branch differentiation (right-derivative)."""
    return _log_q_and_rate(t, eta, params.rho)[1]


def q_growth_ratio(t, eta, params: WeightParams):
    """|d_t q|/q on the resonant range 2*sqrt|eta| <= t <= 2|eta|, else 0."""
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    ratio = np.abs(dtq_over_q(t, eta, params))
    in_range = (t >= 2.0 * np.sqrt(np.abs(eta))) & (t <= 2.0 * np.abs(eta))
    return np.where(in_range, ratio, 0.0)


# ---------------------------------------------------------------------------
# m and mtilde
# ---------------------------------------------------------------------------

def _m_active(k, eta, params: WeightParams):
    return (np.asarray(k) != 0) & (np.sqrt(np.abs(eta)) <= params.freq_cut)


def log_m(t, k, eta, params: WeightParams):
    """log m, with m = exp(-(1/(alpha|k|)) * int_0^t dtau/(1+(eta/k-tau)^2))."""
    k = np.asarray(k, dtype=float)
    eta = np.asarray(eta, dtype=float)
    ksafe = np.where(k == 0, 1.0, k)
    ratio = eta / ksafe
    integral = np.arctan(ratio) - np.arctan(ratio - t)
    out = -integral / (params.alpha * np.abs(ksafe))
    return np.where(_m_active(k, eta, params), out, 0.0)


def m_value(t, k, eta, params: WeightParams):
    return np.exp(log_m(t, k, eta, params))


def dtm_over_m(t, k, eta, params: WeightParams):
    k = np.asarray(k, dtype=float)
    eta = np.asarray(eta, dtype=float)
    ksafe = np.where(k == 0, 1.0, k)
    val = -1.0 / (params.alpha * np.abs(ksafe) * (1.0 + (eta / ksafe - t) ** 2))
    return np.where(_m_active(k, eta, params), val, 0.0)


def _asinh_kernel_antiderivative(u):
    # int (1+u^2)^{-2} du = (u/(1+u^2) + arctan u)/2
    u = np.asarray(u, dtype=float)
    return 0.5 * (u / (1.0 + u**2) + np.arctan(u))


def log_mtilde(t, k, eta, params: WeightParams):
    """log mtilde with the squared-denominator integrand; requires k != 0."""
    k = np.asarray(k, dtype=float)
    if np.any(k == 0):
        raise ValueError("mtilde is defined only for k != 0")
    eta = np.asarray(eta, dtype=float)
    shift = eta / k
    integral = _asinh_kernel_antiderivative(t - shift) - _asinh_kernel_antiderivative(-shift)
    return integral / (params.alpha * np.abs(k))


def mtilde_value(t, k, eta, params: WeightParams):
    return np.exp(log_mtilde(t, k, eta, params))


# ---------------------------------------------------------------------------
# lambda(t)
# ---------------------------------------------------------------------------

_LAMBDA_TERMS = np.arange(56.0)


def _near_series(x, coef):
    """x / <x> sum_n coef_n z^n, z = x^2 / (1 + x^2), for a 1-D array x."""
    z = x * x / (1.0 + x * x)
    return x / np.sqrt(1.0 + x * x) * np.sum(coef * z[:, None] ** _LAMBDA_TERMS, axis=-1)


@functools.lru_cache(maxsize=8)
def _lambda_series(s: float):
    """(alpha, near coefficients, far coefficients, F(1)) of :func:`_lambda_integral`."""
    a = 0.375 + 0.25 * s
    alpha = a - 0.5
    n = _LAMBDA_TERMS
    # (3/2 - a)_n / n! / (2n + 1) and (1/2)_n / n! 2^{-(alpha+n)} / (alpha + n)
    near = np.cumprod(np.r_[1.0, (n[:-1] + 1.5 - a) / (n[:-1] + 1.0)]) / (2.0 * n + 1.0)
    far = (np.cumprod(np.r_[1.0, (n[:-1] + 0.5) / (n[:-1] + 1.0)])
           * 2.0 ** -(alpha + n) / (alpha + n))
    return alpha, near, far, float(_near_series(np.ones(1), near)[0])


def _lambda_integral(t, s: float):
    """F(t) = int_0^t <tau>^{-p} dtau with p = 3/4 + s/2, elementwise.

    With a = p/2 and alpha = a - 1/2 > 0 (s > 1/2), F is odd in t and, on
    x = |t|, sums one of two power series of positive terms:

    * x <= 1, the Pfaff transform of the Euler integral x 2F1(1/2, a; 3/2; -x^2):
      F = x / <x> sum_n (1/2)_n (3/2 - a)_n / ((3/2)_n n!) z^n,
      z = x^2 / (1 + x^2) <= 1/2;
    * x > 1, F(1) plus the integral over [1, x] in w = 1/(1 + tau^2) < 1/2,
      int w^{alpha-1} (1 - w)^{-1/2} dw / 2 expanded binomially:
      F = F(1) + 1/2 sum_n (1/2)_n / n! 2^{-(alpha+n)}
      (-expm1((alpha + n) ln 2w)) / (alpha + n).

    Both series' terms shrink at least like 2^{-n}, so the 56 terms kept
    reach roundoff.  No term is a difference of large values: the far series
    needs no Gamma function and no F(infinity) - tail subtraction, whose
    cancellation grows like 1/alpha as s -> 1/2.  Each series sums its terms
    along the last axis, so a scalar t and the same t inside an array give
    bit-identical values.
    """
    alpha, near, far, f1 = _lambda_series(s)
    t = np.asarray(t, dtype=float)
    x = np.abs(t)
    out = np.empty_like(x)
    inner = x <= 1.0
    out[inner] = _near_series(x[inner], near)
    lg = np.log(2.0 / (1.0 + x[~inner] ** 2))
    out[~inner] = f1 + 0.5 * np.sum(far * -np.expm1((alpha + _LAMBDA_TERMS) * lg[:, None]),
                                    axis=-1)
    return np.copysign(out, t)


def lambda_of_t(t, params: WeightParams):
    """lambda(t) = lam0 - rho * int_0^t <tau>^{-(3/4 + s/2)} dtau."""
    tt = np.asarray(t, dtype=float)
    out = params.lam0 - params.rho * _lambda_integral(tt, params.s)
    return out if tt.ndim else float(out)


def dlambda_dt(t, params: WeightParams):
    """dlambda/dt = -rho <t>^{-(3/4 + s/2)}, elementwise.  The power is numpy's
    ufunc on the 0-d or n-d array alike, so a scalar t and the same t inside
    an array give bit-identical values."""
    tt = np.asarray(t, dtype=float)
    out = -params.rho * np.power(1.0 + tt * tt, -0.5 * (0.75 + 0.5 * params.s))
    return out if tt.ndim else float(out)


# ---------------------------------------------------------------------------
# J and the assembled multipliers
# ---------------------------------------------------------------------------

def log_jtilde(t, k, eta, params: WeightParams):
    del k
    eta = np.asarray(eta, dtype=float)
    return 8.0 * params.rho * np.sqrt(np.abs(eta)) - log_q(t, eta, params)


def _log_j_of_jtilde(log_jtilde_value, k, rho):
    """log J = log(Jtilde + e^{8 rho sqrt|k|}) from log Jtilde."""
    return np.logaddexp(log_jtilde_value, 8.0 * rho * np.sqrt(np.abs(k)))


def log_j(t, k, eta, params: WeightParams):
    return _log_j_of_jtilde(log_jtilde(t, k, eta, params), k, params.rho)


def j_value(t, k, eta, params: WeightParams):
    return np.exp(log_j(t, k, eta, params))


def jtilde_value(t, k, eta, params: WeightParams):
    return np.exp(log_jtilde(t, k, eta, params))


def gevrey_log_weight(k, eta, lam, s, N):
    """log of the Sobolev-Gevrey weight <k,eta>^N e^{lam |k,eta|^s}, elementwise."""
    mag2 = np.asarray(k, dtype=float) ** 2 + np.asarray(eta, dtype=float) ** 2
    return 0.5 * N * np.log1p(mag2) + lam * mag2 ** (0.5 * s)


def log_a_multiplier(t, k, eta, params: WeightParams, kind: str = "A"):
    """log of A, Atilde or Alo at (t, k, eta).

    Alo requires k = 0 and carries Sobolev exponent N-1.
    """
    lam = lambda_of_t(float(t) if np.ndim(t) == 0 else t, params)
    if kind == "A":
        return (log_m(t, k, eta, params) + log_j(t, k, eta, params)
                + gevrey_log_weight(k, eta, lam, params.s, params.N))
    if kind == "Atilde":
        return (log_m(t, k, eta, params) + log_jtilde(t, k, eta, params)
                + gevrey_log_weight(k, eta, lam, params.s, params.N))
    if kind == "Alo":
        if np.any(np.asarray(k) != 0):
            raise ValueError("Alo is defined on the k = 0 column only")
        return (log_j(t, 0, eta, params)
                + gevrey_log_weight(0, eta, lam, params.s, params.N - 1))
    raise ValueError(f"unknown multiplier kind {kind!r}")


def a_multiplier(t, k, eta, params: WeightParams, kind: str = "A"):
    return np.exp(log_a_multiplier(t, k, eta, params, kind))


class MultiplierSet:
    """Grid-wide weight evaluation at a fixed time, or at each of a tuple of
    times, cached for reuse.

    Provides the log tables of A and Atilde over the (k, eta) table of a
    grid or compact layout (they are even in (k, eta)), the k=0 row of Alo,
    and the analytic time-derivative factors entering the energy identity.
    For a tuple of times every table takes a leading time axis and ``t``,
    ``lam`` and ``dlam`` are arrays over it; for one time they are floats.
    Pure: identical inputs give bit-identical outputs.  Each table is its
    pointwise function (``log_m``, ``log_jtilde``, ``gevrey_log_weight``,
    ``dtm_over_m``, ...) evaluated on the layout's ``K`` and ``ETA`` with
    the time axis broadcast against them, so it equals that function bit
    for bit, at each time of a tuple too; q enters through ``log_q`` and
    ``dtq_over_q`` on the eta row alone.
    """

    def __init__(self, grid, t, params: WeightParams):
        params.check_lam0()
        self.grid = grid
        tt = np.asarray(t, dtype=float)
        self.t = tt if tt.ndim else float(tt)
        self.params = params
        self.lam = lam = lambda_of_t(tt, params)
        self.dlam = dlambda_dt(tt, params)
        tc, lc = tt[..., None, None], np.asarray(lam)[..., None, None]  # along the time axis
        K, ETA, full = grid.K, grid.ETA, np.ones(grid.shape)
        base = gevrey_log_weight(K, ETA, lc, params.s, params.N)
        self.log_jtilde = log_jtilde(tc, K, ETA, params) * full
        self.log_j = _log_j_of_jtilde(self.log_jtilde, K, params.rho)
        self.log_m = log_m(tc, K, ETA, params)
        self.log_A = self.log_m + self.log_j + base
        self.log_Atilde = self.log_m + self.log_jtilde + base
        # the k = 0 row (row 0 of every layout), where log J is log_j(t, 0, eta)
        self.log_Alo = self.log_j[..., 0, :] + gevrey_log_weight(
            K[0], ETA[0], lc[..., 0], params.s, params.N - 1)
        self.dtq_over_q = dtq_over_q(tc, ETA, params) * full
        self.dtm_over_m = dtm_over_m(tc, K, ETA, params)

    @property
    def A(self):
        """exp(log_A); ``OverflowError`` where it passes e^300."""
        if float(np.max(self.log_A)) > 300.0:
            raise OverflowError("weights too large for direct pairing; reduce lam0/rho")
        return np.exp(self.log_A)
