"""Two-mode resonance model and echo-chain growth asymptotics.

Near the resonant time eta/k the dominant mode pair (k, k-1) obeys

    p_k'     = c0 (1 + (eta/k - t)^2)^{-1/2} p_{k-1}
    p_{k-1}' = c0 (1 + (eta/k - t)^2)^{-1/2} p_k

on the interval I_k = [t_k, t_{k-1}] of the q weight, eta/k +
[-eta/(2k(k+1)), +eta/(2k(k-1))] (right endpoint 2*eta for k = 1), with
the endpoints from ``weights.q_endpoint``.  The symmetric/antisymmetric
combinations q^{+-} = p_k +- p_{k-1} evolve by the exact factor
exp(+-c0*(asinh(eta/k - t0) - asinh(eta/k - t1))), so a receiver starting
from zero is amplified by sinh(c0 * asinh(eta/k^2)) per interval; the chain
product over k grows like exp(C c0 sqrt(c0 eta)) with C a fitted constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import q_endpoint


@dataclass(frozen=True)
class ChainConfig:
    c0: float
    eta: float
    k_start: int | None = None

    def __post_init__(self):
        if not (0 < self.c0 < 1):
            raise ValueError("c0 must lie in (0, 1)")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.k_start is None:
            object.__setattr__(self, "k_start",
                               max(1, int(math.floor(math.sqrt(self.c0 * self.eta)))))
        if self.k_start < 1:
            raise ValueError("k_start must be >= 1")


def resonant_interval(eta: float, k: int):
    """I_k = [t_k, t_{k-1}]; the k = 1 right endpoint is truncated at 2*eta."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(q_endpoint(k, eta)), float(q_endpoint(k - 1, eta))


def integrate_two_mode(c0: float, eta: float, k: int, p_init, t0: float,
                       t1: float, tol: float = 1e-12) -> np.ndarray:
    """Adaptive integration of the coupled pair over [t0, t1] in I_k."""
    from scipy.integrate import solve_ivp
    res = eta / k

    def f(t, p):
        phi = c0 / math.hypot(1.0, res - t)
        return [phi * p[1], phi * p[0]]

    sol = solve_ivp(f, (t0, t1), np.asarray(p_init, dtype=float),
                    method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(f"two-mode integration failed: {sol.message}")
    return sol.y[:, -1]


def qpm_closed_form(c0: float, eta: float, k: int, t0: float, t1: float):
    """Exact amplification factors (q_plus, q_minus) over [t0, t1]."""
    res = eta / k
    integral = math.asinh(res - t0) - math.asinh(res - t1)
    return math.exp(c0 * integral), math.exp(-c0 * integral)


def closed_form_two_mode(c0: float, eta: float, k: int, p_init, t0: float,
                         t1: float) -> np.ndarray:
    """Exact solution via the q^{+-} diagonalization."""
    qp, qm = qpm_closed_form(c0, eta, k, t0, t1)
    p = np.asarray(p_init, dtype=float)
    plus = (p[0] + p[1]) * qp
    minus = (p[0] - p[1]) * qm
    return np.array([0.5 * (plus + minus), 0.5 * (plus - minus)])


def chain_step_amplification(c0: float, eta: float, k: int) -> float:
    """sinh(c0 * asinh(eta/k^2)): growth of a zero-started receiver."""
    x = eta / k**2
    if x <= 0:
        raise ValueError("eta/k^2 must be positive")
    return math.sinh(c0 * math.asinh(x))


def chain_step_lower_bound(c0: float, x: float) -> float:
    return 0.5 * c0 * x**c0


def chain_total_growth(config: ChainConfig):
    """(log_product, per-step amplifications) for k = k_start down to 1.

    The asymptotic regime wants c0*eta >> 1; the returned flag marks runs with
    c0*eta < 10 where the asymptotics is unreliable.
    """
    steps = []
    log_product = 0.0
    for k in range(config.k_start, 0, -1):
        amp = chain_step_amplification(config.c0, config.eta, k)
        steps.append((k, amp))
        log_product += math.log(amp)
    return {"log_product": log_product, "steps": steps,
            "small_parameter_warning": config.c0 * config.eta < 10.0}


def chain_handoff_trajectory(config: ChainConfig, tol: float = 1e-12):
    """ODE chain with zeroed receivers at each handoff.

    Integrates the two-mode system over each I_k, copying the grown mode
    forward and zeroing the next receiver; returns per-interval ODE
    amplifications alongside the sinh closed form.
    """
    amp_rows = []
    carry = 1.0
    for k in range(config.k_start, 0, -1):
        t0, t1 = resonant_interval(config.eta, k)
        p = integrate_two_mode(config.c0, config.eta, k, [carry, 0.0], t0, t1, tol)
        amp_rows.append({"k": k, "ode_amplification": p[1] / carry,
                         "sinh_amplification":
                             chain_step_amplification(config.c0, config.eta, k)})
        carry = p[1]
    return amp_rows


def chain_sweep_fit(c0: float, etas):
    """Regress log(product) + (c0/2) log(eta) on sqrt(c0*eta).

    Returns the fitted slope (an estimate of C*c0), intercept and R^2.
    """
    etas = np.asarray(etas, dtype=float)
    ys = []
    xs = []
    for eta in etas:
        res = chain_total_growth(ChainConfig(c0, float(eta)))
        ys.append(res["log_product"] + 0.5 * c0 * math.log(eta))
        xs.append(math.sqrt(c0 * eta))
    xs, ys = np.asarray(xs), np.asarray(ys)
    coef = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coef, xs)
    ss = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss if ss > 0 else 0.0
    return {"slope": float(coef[0]), "intercept": float(coef[1]),
            "r_squared": float(r2),
            "rows": [{"eta": float(e), "x": float(x), "y": float(y)}
                     for e, x, y in zip(etas, xs, ys)]}
