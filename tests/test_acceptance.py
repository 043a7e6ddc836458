"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities at the stated tolerance.  Run with -s to see them.
"""

import math
import time

import numpy as np
import pytest

from shearmhd.diagnostics import energy_identity_residuals, gevrey_norm
from shearmhd.dynamics import route_equivalence_run
from shearmhd.experiments import ExperimentConfig, gevrey_random_data, run
from shearmhd.partition import nl_partition_check
from shearmhd.resonance import (ChainConfig, chain_step_lower_bound,
                                chain_sweep_fit, closed_form_two_mode,
                                integrate_two_mode, resonant_interval)
from shearmhd.spectral import (Grid, ProductWorkspace, convolution_direct,
                               l2_norm, random_hermitian_coeffs)
from shearmhd.unknowns import state_to_tailored
from shearmhd.weights import WeightParams
from shearmhd.weights_audit import run_weights_audit

STABILITY_PARAMS = {"rho": 0.004, "lam0": 1.1, "s": 0.6, "N": 5, "alpha": 1.0,
                  "c0": 0.05, "eps": 1e-3}
LAM1, LAM2 = 1.2, 1.0


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_spectral_foundations():
    t0 = time.time()
    worst_rt, worst_par, worst_conv = 0.0, 0.0, 0.0
    rng = np.random.default_rng(0)
    for n in (8, 12, 16):
        g = Grid(n, n, 1.0)
        ws = ProductWorkspace(g)
        for _ in range(3):
            # roundtrip and Parseval on the solver's transforms of a packed
            # (so dealiased) table: padded samples by phys, back by spec
            c = ws.layout.pack(random_hermitian_coeffs(g, rng))
            p = ws.phys(c[None])
            sample_l2 = float(np.sqrt(np.mean(p**2) / g.Ly))
            back = ws.spec(p)[0]
            worst_rt = max(worst_rt, float(np.max(np.abs(c - back))
                                           / np.max(np.abs(c))))
            norm = l2_norm(ws.layout, c)
            worst_par = max(worst_par, abs(sample_l2 - norm) / norm)
            f = random_hermitian_coeffs(g, rng) * g.dealias_keep
            h = random_hermitian_coeffs(g, rng) * g.dealias_keep
            # the solver's product path: pack, phys, pointwise product, spec
            p = ws.phys(ws.layout.pack(np.stack([f, h])))
            prod = ws.layout.unpack(ws.spec(p[0] * p[1]))
            conv = convolution_direct(g, f, h) * g.dealias_keep
            worst_conv = max(worst_conv, float(np.max(np.abs(prod - conv))
                                               / np.max(np.abs(conv))))
    elapsed = time.time() - t0
    ok = max(worst_rt, worst_par, worst_conv) <= 1e-10 and elapsed < 10.0
    report(1, ok, f"roundtrip {worst_rt:.2e}, parseval {worst_par:.2e}, "
                  f"convolution {worst_conv:.2e} (tol 1e-10), {elapsed:.1f}s < 10s")


def test_criterion_2_linear_oracle(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "experiment": "linear_modes",
        "grid": {"Nx": 64, "Ny": 64, "Ly": 1.0},
        "params": STABILITY_PARAMS,
        "evolution": {"dt": 0.005, "t_end": 10.0},
        "initial": {"kind": "gevrey_random", "seed": 7, "eps": 1e-3,
                    "lam1": LAM1, "amplitude": 1e-8},
    })
    payload = run(cfg, str(tmp_path / "linear_modes"))
    s = payload["summary"]
    elapsed = time.time() - t0
    err_ok = s["max_rel_mode_error"] <= 1e-4
    exp_ok = all(abs(e - 2.0) <= 0.2 for e in s["scaling_exponents"])
    ok = err_ok and exp_ok and elapsed < 120.0
    report(2, ok, f"max per-mode rel err {s['max_rel_mode_error']:.2e} <= 1e-4 "
                  f"({s['modes_compared']} modes above floor), scaling "
                  f"exponents {['%.3f' % e for e in s['scaling_exponents']]} "
                  f"in 2 +/- 0.2, {elapsed:.0f}s < 120s")


def test_criterion_3_route_equivalence():
    t0 = time.time()
    g = Grid(32, 32, 1.0)
    params = WeightParams(**STABILITY_PARAMS)
    st = gevrey_random_data(g, params, seed=3, eps=1e-3, lam1=LAM1)
    rep = route_equivalence_run(st, params.alpha, t_end=5.0, dt=0.01,
                                symbol_variant="derived")
    gap = max(rep["gap_tailored"], rep["gap_vb"])
    elapsed = time.time() - t0
    ok = gap <= 1e-6
    report(3, ok, f"vb vs ptilde gap {gap:.2e} <= 1e-6 over t in [0,5] with "
                  f"the symbol produced by the derivation chain "
                  f"(+(1/(alpha dx)) dx^4 invlap^2), {elapsed:.0f}s")


@pytest.fixture(scope="module")
def growth_summary(tmp_path_factory):
    cfg = ExperimentConfig.from_dict({
        "experiment": "nonlinear_ideal",
        "grid": {"Nx": 64, "Ny": 64, "Ly": 1.0},
        "params": STABILITY_PARAMS,
        "evolution": {"dt": 0.02, "t_end": 50.0},
        "initial": {"kind": "gevrey_random", "seed": 7, "eps": 1e-3,
                    "lam1": LAM1},
        "monitor": {"lam2": LAM2, "sample_dt": 0.5, "hminus1_gate_K": 0.25},
    })
    t0 = time.time()
    payload = run(cfg, str(tmp_path_factory.mktemp("nonlinear_ideal")))
    return payload["summary"], time.time() - t0


def test_criterion_4_vorticity_current_growth(growth_summary):
    s, elapsed = growth_summary
    fit = s["growth_fit"]
    ok = (s["hminus1_gate"]["passes"] and fit["r_squared"] >= 0.9
          and fit["slope_over_hminus1"] > 0
          and s["gevrey_bound_10eps"]["passes"]
          and s["l2_min_ratio"] >= 0.1 and elapsed < 600.0)
    report(4, ok, f"gate H^-1 >= K c0 eps passed (K=0.25), fit slope "
                  f"{fit['slope_over_hminus1']:.3f} > 0 with R^2 "
                  f"{fit['r_squared']:.4f} >= 0.9, gevrey "
                  f"{s['gevrey_bound_10eps']['value']:.3f} eps <= 10 eps, "
                  f"L2 ratio {s['l2_min_ratio']:.3f} >= 0.1, "
                  f"{elapsed:.0f}s < 600s")


def test_criterion_5_norm_inflation(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "experiment": "norm_inflation",
        "grid": {"Nx": 64, "Ny": 64, "Ly": 1.0},
        "params": STABILITY_PARAMS,
        "evolution": {"dt": 0.02, "t_end": 50.0},
        "initial": {"kind": "gevrey_random", "seed": 7, "eps": 1e-3,
                    "lam1": LAM1},
        "monitor": {"sample_dt": 1.0},
    })
    payload = run(cfg, str(tmp_path / "norm_inflation"))
    s = payload["summary"]
    elapsed = time.time() - t0
    c1 = s["C1"]
    margin = 0.5
    in_band = (s["ratio_min"] >= 1.0 / c1 - margin
               and s["ratio_max"] <= c1 + margin)
    ok = (in_band and s["max_rel_deviation"] <= 0.5
          and s["lin_within_C1"] and s["lin_operator_max"] <= np.sqrt(c1)
          and elapsed < 600.0)
    report(5, ok, f"||ptilde||/||ptilde_in|| in [{s['ratio_min']:.3f}, "
                  f"{s['ratio_max']:.3f}] within [1/C1-0.5, C1+0.5] "
                  f"(C1={c1:.3f}), linear operator norm "
                  f"{s['lin_operator_max']:.3f} <= sqrt(C1), rel deviation "
                  f"{s['max_rel_deviation']:.2e} <= 0.5 up to t=c0/eps=50, "
                  f"{elapsed:.0f}s < 600s")


def test_criterion_6_dissipative_extension(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "experiment": "dissipative",
        "grid": {"Nx": 64, "Ny": 64, "Ly": 1.0},
        "params": STABILITY_PARAMS,
        "evolution": {"dt": 0.02, "t_end": 50.0, "nu": 1e-3, "kappa": 1e-3},
        "initial": {"kind": "gevrey_random", "seed": 7, "eps": 1e-3,
                    "lam1": LAM1},
        "monitor": {"lam2": LAM2, "sample_dt": 0.5, "hminus1_gate_K": 0.25},
    })
    payload = run(cfg, str(tmp_path / "dissipative"))
    s = payload["summary"]
    elapsed = time.time() - t0
    ok = (s["gevrey_bound_10eps"]["passes"] and s["decay_check"]["within_1pct"]
          and elapsed < 600.0)
    dc = s["decay_check"]
    report(6, ok, f"nu=kappa=eps: gevrey {s['gevrey_bound_10eps']['value']:.3f} "
                  f"eps <= 10 eps, linear run vs DOP853 (dt={dc['dt']}) error "
                  f"{dc['max_rel_mode_error']:.2e} on {dc['modes_compared']} "
                  f"modes <= 1%, {elapsed:.0f}s")


def test_criterion_7_weights_audit():
    t0 = time.time()
    rows, summary = run_weights_audit(WeightParams(), eta_max=1e4, n_eta=24,
                                      seed=0)
    elapsed = time.time() - t0
    by_id = {r.lemma_id: r for r in rows}
    hard = all(by_id[name].passes for name in
               ("J_sandwich", "m_bounds", "q_plateau_equality",
                "q_resonance_dip"))
    plateau = by_id["q_plateau_equality"].empirical_constant
    dip = by_id["q_resonance_dip"].empirical_constant
    ok = (summary["all_finite"] and not summary["hard_failures"] and hard
          and plateau <= 1e-10 and dip <= 1e-10 and elapsed < 60.0)
    report(7, ok, f"all {len(rows)} lemma rows finite, hard asserts "
                  f"(J sandwich, m bounds, plateau {plateau:.1e} <= 1e-10, "
                  f"dip {dip:.1e} <= 1e-10) hold, {elapsed:.1f}s < 60s")


def test_criterion_8_resonance_chain():
    t0 = time.time()
    worst_ode = 0.0
    for (c0, eta, k) in ((0.5, 400.0, 10), (0.3, 900.0, 12), (0.7, 150.0, 5)):
        lo, hi = resonant_interval(eta, k)
        p = integrate_two_mode(c0, eta, k, [1.0, 0.0], lo, hi, tol=1e-12)
        pc = closed_form_two_mode(c0, eta, k, [1.0, 0.0], lo, hi)
        worst_ode = max(worst_ode, float(np.max(np.abs(p - pc))))
    bound_ok = True
    for c0 in np.arange(0.1, 0.95, 0.1):
        for x in np.geomspace(1.0, 1e4, 200):
            if math.sinh(c0 * math.asinh(x)) < chain_step_lower_bound(c0, x) - 1e-12:
                bound_ok = False
    fit = chain_sweep_fit(0.5, [100.0, 316.0, 1000.0, 3160.0, 10000.0])
    elapsed = time.time() - t0
    ok = worst_ode <= 1e-8 and bound_ok and fit["r_squared"] >= 0.99 \
        and elapsed < 60.0
    report(8, ok, f"ODE vs sinh/cosh closed form {worst_ode:.2e} <= 1e-8, "
                  f"sinh(c0 asinh x) >= (c0/2) x^c0 on x in [1,1e4] x c0 in "
                  f"[0.1,0.9], sweep fit R^2 {fit['r_squared']:.5f} >= 0.99, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_9_energy_identity_and_partition():
    t0 = time.time()
    g = Grid(32, 32, 1.0)
    params = WeightParams(rho=0.004, lam0=1.3, s=0.6, alpha=1.0, c0=0.05,
                          eps=1e-3)
    st = gevrey_random_data(g, params, seed=11, eps=1e-3, lam1=LAM1)
    ts0 = state_to_tailored(st, params.alpha)
    res_coarse = energy_identity_residuals(ts0, params, params.alpha,
                                           t_end=2.0, dt=2e-3, stride=2)
    res_fine = energy_identity_residuals(ts0, params, params.alpha,
                                         t_end=2.0, dt=1e-3, stride=2)
    r1 = max(r for _, r in res_coarse)
    r2 = max(r for _, r in res_fine)
    order = math.log2(r1 / r2)
    st.t = 1.3
    part = nl_partition_check(st, params)
    elapsed = time.time() - t0
    ok = (r1 <= 1e-5 and order >= 3.5 and part["rel_mismatch"] <= 1e-10)
    report(9, ok, f"identity residual {r1:.2e} <= 1e-5 at dt=2e-3, halving "
                  f"order {order:.2f} >= 3.5, partition R+T+Rem+NL_eq vs NL "
                  f"mismatch {part['rel_mismatch']:.2e} <= 1e-10, "
                  f"{elapsed:.0f}s")
