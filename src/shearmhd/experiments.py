"""Configuration-driven experiments with reproducible, hash-stamped outputs.

Experiments: linear_modes, nonlinear_ideal, dissipative, norm_inflation,
resonance_chain, weights_audit, nl_partition (``EXPERIMENTS``).
Configs are versioned JSON whose keys are the rows of ``KEYS``; identical
configs (seeds included) produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import copy
import math
import os
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package

from . import io as sio
from .diagnostics import (GROWTH_FIT_MIN_SAMPLES, DiagnosticsRecord,
                          MultiplierSet, bootstrap_monitor, dissipation_terms,
                          gevrey_norm, growth_fit, make_record)
from .dynamics import (SYMBOL_VARIANTS, LinearModeSystem, VBIntegrator,
                       evolve, linear_mode_propagate, propagate_linear_grid,
                       sample_times)
from .partition import nl_partition_check, partition_exactness_sample
from .resonance import ChainConfig, chain_handoff_trajectory, chain_sweep_fit, chain_total_growth
from .spectral import Grid, conj_flip, l2_norm, random_hermitian_coeffs
from .unknowns import (MHDState, curl_t, divergence_residual, hminus1_norm,
                       leray_project_t, perp_grad_t, state_to_tailored, to_p)
from .weights import WeightParams, gevrey_log_weight
from .weights_audit import AuditRow, run_weights_audit

KINDS = ("gevrey_random", "single_mode", "file")  # initial.kind
CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


# One leaf config key.  A value must have the type of ``default`` (a float
# default also takes an int) and pass ``check``, a (test, text) pair.  A value
# other than the default is refused unless ``readers`` maps the experiment to
# a tuple of kinds that holds the config's initial.kind.
Key = namedtuple("Key", "default readers check", defaults=(None,))


def _by(*experiments, kinds=KINDS) -> dict:
    return dict.fromkeys(experiments, kinds)


_NONNEG, _POS = (lambda v: v >= 0, ">= 0"), (lambda v: v > 0, "> 0")
_GEVREY, _FILE = ("gevrey_random",), ("file",)
_EVOLVING = _by("linear_modes", "nonlinear_ideal", "dissipative", "norm_inflation")
_DATA = {**_EVOLVING, **_by("nl_partition")}  # the runs that build initial data
# a single mode's nonlinear pairing vanishes: nl_partition would compare 0 with 0
_MODE = _by(*_EVOLVING, kinds=("single_mode",))
_STABILITY = _by("nonlinear_ideal", "dissipative", "norm_inflation")
_TRAJECTORY = _by("nonlinear_ideal", "dissipative")
# the multipliers: the trajectory samples, the partition check and the audit
_WEIGHTS = {**_TRAJECTORY, **_by("nl_partition", "weights_audit")}
_ENVELOPE = {**_WEIGHTS, **_by("linear_modes", "norm_inflation", kinds=_GEVREY)}
_AUDIT, _CHAIN = _by("weights_audit"), _by("resonance_chain")

# initial.kind comes first: which keys are read depends on it
KEYS = {
    "initial": {
        "kind": Key("gevrey_random", {**_EVOLVING, "nl_partition": (*_GEVREY, *_FILE)},
                    (KINDS.__contains__, f"one of {KINDS}")),
        # generated data's draw; nl_partition's indicator sample reads it too,
        # but its three values do not move with the seed
        "seed": Key(7, _by(*_DATA, kinds=_GEVREY), _NONNEG),
        # generated data's size, the gates and norm_inflation's horizon
        "eps": Key(1e-3, {**_by("nl_partition", kinds=_GEVREY), **_STABILITY}, _POS),
        "lam1": Key(1.2, _by(*_DATA, kinds=_GEVREY), _NONNEG),
        "k": Key(1, _MODE), "eta_index": Key(0, _MODE),
        # linear_modes rescales any data to the amplitude
        "amplitude": Key(1e-8, {**_MODE, **_by("linear_modes")}, _POS),
        "component": Key("v", _MODE, (("v", "b").__contains__, "'v' or 'b'")),
        "path": Key("", _by(*_DATA, kinds=_FILE))},
    "grid": {"Nx": Key(64, _DATA), "Ny": Key(64, _DATA), "Ly": Key(1.0, _DATA)},
    "params": {  # their ranges are WeightParams'
        "rho": Key(0.004, _WEIGHTS), "lam0": Key(1.1, _WEIGHTS),
        "s": Key(0.6, _ENVELOPE), "N": Key(5, _ENVELOPE),
        "alpha": Key(1.0, {**_DATA, **_AUDIT}),
        # norm_inflation's horizon is c0/eps, its eps equal to initial.eps
        "c0": Key(0.05, {**_WEIGHTS, **_STABILITY}),
        "eps": Key(1e-3, {**_WEIGHTS, **_STABILITY})},
    "evolution": {
        "dt": Key(0.02, _EVOLVING, _POS), "t_end": Key(50.0, _EVOLVING, _NONNEG),
        "nu": Key(0.0, _by("dissipative"), _NONNEG),
        "kappa": Key(0.0, _by("dissipative"), _NONNEG),
        "symbol_variant": Key("derived", _by("norm_inflation"),
                              (SYMBOL_VARIANTS.__contains__, f"one of {SYMBOL_VARIANTS}"))},
    "monitor": {
        "lam2": Key(1.0, _TRAJECTORY, _NONNEG), "sample_dt": Key(0.5, _STABILITY, _POS),
        "hminus1_gate_K": Key(0.25, _TRAJECTORY), "c_star": Key(1.0, _TRAJECTORY, _POS)},
    "audit": {
        # the J commutator row draws eta and xi from [9, eta_max]
        "eta_max": Key(1e4, _AUDIT, (lambda v: v >= 9, ">= 9")),
        "n_eta": Key(24, _AUDIT, _NONNEG), "seed": Key(0, _AUDIT, _NONNEG)},
    "chain": {
        "c0": Key(0.5, _CHAIN, (lambda v: 0 < v < 1, "in (0, 1)")),
        # the sweep fit regresses on the etas: a line needs two distinct ones
        "etas": Key([100.0, 1000.0, 10000.0], _CHAIN, (
            lambda v: all(type(e) in (int, float) and e > 0 for e in v) and len(set(v)) > 1,
            "two or more distinct numbers, all > 0")),
        "bridge": Key(False, _CHAIN)},
    "output": {"snapshots": Key(0, _TRAJECTORY, _NONNEG)},
}


def _section(name: str):
    return field(default_factory=lambda: {k: copy.copy(d) for k, (d, *_) in KEYS[name].items()})


@dataclass
class ExperimentConfig:
    """A run's config: each section's keys, with their defaults, ranges
    and readers, are the rows of :data:`KEYS`."""
    experiment: str = "nonlinear_ideal"
    version: int = CONFIG_VERSION
    grid: dict = _section("grid")
    params: dict = _section("params")
    evolution: dict = _section("evolution")
    initial: dict = _section("initial")
    monitor: dict = _section("monitor")
    audit: dict = _section("audit")
    chain: dict = _section("chain")
    output: dict = _section("output")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict) or any(not isinstance(data[s], dict)
                                             for s in KEYS if s in data):
            raise ConfigError("wrong type: the config and its sections must be JSON objects")
        unknown = sorted(set(data) - {"experiment", "version", *KEYS}) + sorted(
            f"{s}.{k}" for s in KEYS for k in data.get(s, ()) if k not in KEYS[s])
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        base = cls(**{k: v for k, v in data.items() if k not in KEYS})
        for section in KEYS.keys() & data.keys():
            getattr(base, section).update(data[section])
        base.validate()
        return base

    def reads(self, section: str, key: str) -> bool:
        """Whether this experiment, with this initial.kind, reads the key."""
        return self.initial["kind"] in KEYS[section][key].readers.get(self.experiment, ())

    def validate(self):
        """Walk :data:`KEYS`: types and ranges, then readers; then check the
        rules that tie several keys together."""
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
        for section, keys in KEYS.items():
            for k, (default, readers, check) in keys.items():
                name, val = f"{section}.{k}", getattr(self, section)[k]
                if type(val) is not type(default) and (type(val), type(default)) != (int, float):
                    raise ConfigError(f"{name} has the wrong type: {type(val).__name__}, "
                                      f"not {type(default).__name__}")
                if check and not check[0](val):
                    raise ConfigError(f"{name} must be {check[1]}")
                if val != default and not self.reads(section, k):
                    readers = ", ".join(e if kinds == KINDS else f"{e} ({'/'.join(kinds)} data)"
                                        for e, kinds in readers.items())
                    raise ConfigError(f"{name} = {val!r} is not read by {self.experiment} with "
                                      f"{self.initial['kind']} data; it is read by {readers}")
        try:
            grid, params = self.make_grid(), self.weight_params()
            if self.reads("params", "lam0"):
                params.check_lam0()
        except ValueError as exc:
            raise ConfigError(f"invalid grid or params: {exc}") from exc
        ev, ini = self.evolution, self.initial
        if self.experiment == "dissipative" and not (ev["nu"] or ev["kappa"]):
            raise ConfigError("evolution.nu or kappa > 0 is required by dissipative")
        if ini["kind"] == "single_mode":
            # the mode's table index, as single_mode_state takes it
            i, j = ini["k"] % grid.Nx, ini["eta_index"] % grid.Ny
            if i == 0 and j == 0:
                raise ConfigError("initial (k, eta_index) is the mean mode (0, 0)")
            if not grid.dealias_keep[i, j]:  # dealiasing would zero the data
                raise ConfigError("initial (k, eta_index) lies outside the retained modes")
            if i == 0 and self.experiment in ("linear_modes", "dissipative", "norm_inflation"):
                raise ConfigError(f"initial.k = {ini['k']} is a k = 0 mode, and "
                                  f"{self.experiment} measures the k != 0 modes only")
        # the gates read initial.eps, the bootstrap budgets and m params.eps,
        # whose range 0 < eps < c0 the first then shares
        if self.reads("initial", "eps") and ini["eps"] != self.params["eps"]:
            raise ConfigError(f"initial.eps = {ini['eps']} and params.eps = "
                              f"{self.params['eps']} must be equal, with 0 < eps < c0")
        if ini["kind"] != "file":  # generated data start at t = 0
            self.check_horizon(0.0)

    def check_horizon(self, t0: float):
        """The run's span from the data's own time t0: an evolving run needs
        t0 < t_end, and nonlinear_ideal and dissipative the growth fit's
        GROWTH_FIT_MIN_SAMPLES samples at ``dynamics.sample_times``."""
        if not self.reads("evolution", "t_end"):
            return
        t_end = float(self.evolution["t_end"])
        if t0 >= t_end:
            raise ConfigError(f"the initial state's t = {t0} is not below evolution.t_end")
        if self.experiment in _TRAJECTORY and 1 + len(sample_times(
                t0, t_end, float(self.monitor["sample_dt"]))) < GROWTH_FIT_MIN_SAMPLES:
            raise ConfigError(f"the growth fit needs {GROWTH_FIT_MIN_SAMPLES} samples")

    def weight_params(self) -> WeightParams:
        return WeightParams(**self.params)

    def make_grid(self) -> Grid:
        return Grid(self.grid["Nx"], self.grid["Ny"], float(self.grid["Ly"]))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _random_state(grid: Grid, rng: np.random.Generator, envelope: np.ndarray,
                  t: float) -> MHDState:
    """Random Hermitian (v, b) under ``envelope``, dealiased and projected
    divergence-free at time t; the tables are drawn in the order v1, v2, b1,
    b2 and stacked as the state's (2, 2, Nx, Ny) array, field then component."""
    tabs = [random_hermitian_coeffs(grid, rng, envelope) * grid.dealias_keep
            for _ in range(4)]
    vb = np.reshape(tabs, (2, 2, *grid.shape))
    return MHDState(grid, leray_project_t(grid, vb, t), t)


def gevrey_random_data(grid: Grid, params: WeightParams, seed: int, eps: float,
                       lam1: float) -> MHDState:
    """Random Hermitian data under a Gevrey envelope, divergence- and
    mean-free, rescaled to ||(v,b)||_{G^lam1} = eps exactly."""
    envelope = np.exp(-gevrey_log_weight(grid.K, grid.ETA, lam1, params.s, params.N + 2))
    state = _random_state(grid, np.random.default_rng(seed), envelope, 0.0)
    norm = gevrey_norm(grid, [*state.v, *state.b], lam1, params.s, params.N)
    if norm == 0:
        raise ValueError("degenerate random draw")
    state.vb *= eps / norm
    return state


def single_mode_state(grid: Grid, k: int, eta_index: int, amplitude: float,
                      component: str = "v") -> MHDState:
    """Divergence-free single mode (plus Hermitian partner) in v or b."""
    if component not in ("v", "b"):
        raise ValueError("component must be 'v' or 'b'")
    psi = grid.zeros()
    i = int(k) % grid.Nx
    j = int(eta_index) % grid.Ny
    psi[i, j] = 1.0
    psi[(-int(k)) % grid.Nx, (-int(eta_index)) % grid.Ny] = 1.0
    fld = perp_grad_t(grid, psi, 0.0)
    nrm = l2_norm(grid, fld[0], fld[1])
    if nrm == 0:
        raise ValueError("degenerate mode (0, 0)")
    vb = np.zeros((2, 2, *grid.shape), dtype=np.complex128)
    vb[("v", "b").index(component)] = fld * (amplitude / nrm)
    return MHDState(grid, vb, 0.0)


def build_initial_state(config: ExperimentConfig, grid: Grid,
                        params: WeightParams) -> MHDState:
    ini = config.initial
    if ini["kind"] == "gevrey_random":
        return gevrey_random_data(grid, params, ini["seed"], ini["eps"], ini["lam1"])
    if ini["kind"] == "single_mode":
        return single_mode_state(grid, ini["k"], ini["eta_index"], ini["amplitude"],
                                 ini["component"])
    try:
        state = sio.read_state_snapshot(ini["path"])
    except (OSError, ValueError, KeyError) as exc:  # KeyError: a key or table it lacks
        raise ConfigError(f"cannot read initial.path {ini['path']!r}: {exc}") from exc
    if state.grid != grid:
        raise ConfigError("snapshot grid does not match configured grid")
    # a run keeps the retained, mean-free modes of a real field: refuse data
    # that packing would change, and data that are not divergence-free
    vb = state.vb
    if np.any(vb[..., ~grid.dealias_keep]) or np.any(vb[..., 0, 0]):
        raise ConfigError("the snapshot has modes outside the retained band or at the mean")
    if np.max(np.abs(vb - conj_flip(vb))) > 1e-12 * np.max(np.abs(vb)):
        raise ConfigError("the snapshot is not Hermitian (not a real field)")
    if divergence_residual(state) > 1e-12:
        raise ConfigError(f"the snapshot is not divergence-free at its t = {state.t}")
    return state


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _initial_state(config: ExperimentConfig) -> MHDState:
    """The config's initial state; a run starts at its own time state0.t,
    which :meth:`ExperimentConfig.check_horizon` checks."""
    state0 = build_initial_state(config, config.make_grid(), config.weight_params())
    config.check_horizon(state0.t)
    return state0


def _stability_run(config: ExperimentConfig, sample):
    """The vb run of nonlinear_ideal, dissipative and norm_inflation: the
    config's data from its own time t0 to t_end at the config's nu, kappa,
    dt and sample_dt.  ``sample(st, ts)`` gets, at t0 and at every sample
    time, the state on the compact layout and its tailored form; the first
    sample is the initial state.  Returns the initial state, on the grid."""
    ev = config.evolution
    alpha = config.weight_params().alpha
    state0 = _initial_state(config)
    integ = VBIntegrator(state0.grid, alpha, float(ev["nu"]), float(ev["kappa"]))

    def tailor(t, Y):
        st = MHDState(integ.layout, Y, t)
        sample(st, state_to_tailored(st, alpha))

    evolve(integ, integ.pack(state0), state0.t, float(ev["t_end"]), dt=float(ev["dt"]),
           callback=tailor, sample_dt=float(config.monitor["sample_dt"]))
    return state0


def run_trajectory(config: ExperimentConfig, outdir: str):
    """nonlinear_ideal and dissipative; a dissipative run adds the decay
    check of its own initial data."""
    params = config.weight_params()
    lam2 = float(config.monitor["lam2"])
    snap_every = config.output["snapshots"]
    records: list[DiagnosticsRecord] = []
    integrals = np.zeros(4)
    prev = {"t": None, "terms": None}

    def sample(st, ts):
        t, lay = st.t, st.grid
        mset = MultiplierSet(lay, t, params)
        terms = np.array(dissipation_terms(ts, mset))
        if prev["t"] is not None:
            integrals[:] += 0.5 * (t - prev["t"]) * (terms + prev["terms"])
        prev["t"], prev["terms"] = t, terms
        rec = make_record(st, ts, mset, lam2, tuple(integrals))
        rec.validate_against(records[-1] if records else None)
        records.append(rec)
        if snap_every and (len(records) - 1) % snap_every == 0:
            sio.write_state_snapshot(
                os.path.join(outdir, f"snapshot_{len(records) - 1:05d}.txt"),
                MHDState(lay.grid, lay.unpack(st.vb), t))

    state0 = _stability_run(config, sample)
    hm1_in = records[0].hminus1_vb
    slope, intercept, r2, degenerate = growth_fit(
        [r.t for r in records], [r.l2_wj for r in records], hm1_in)
    _, boot = bootstrap_monitor(records, params, float(config.monitor["c_star"]))
    eps = float(config.initial["eps"])
    gate_K = float(config.monitor["hminus1_gate_K"])
    summary = {
        "hminus1_in": hm1_in,
        "hminus1_gate": {"K": gate_K, "threshold": gate_K * params.c0 * eps,
                         "passes": bool(hm1_in >= gate_K * params.c0 * eps)},
        "growth_fit": {"slope_over_hminus1": slope, "intercept": intercept,
                       "r_squared": r2, "degenerate": degenerate},
        "gevrey_max": max(r.gevrey_vb for r in records),
        "gevrey_bound_10eps": {"value": max(r.gevrey_vb for r in records) / eps,
                               "passes": bool(max(r.gevrey_vb for r in records) <= 10 * eps)},
        "l2_min_ratio": min(r.l2_vb for r in records) / records[0].l2_vb,
        "bootstrap": boot,
        "nu": float(config.evolution["nu"]), "kappa": float(config.evolution["kappa"]),
    }
    if config.experiment == "dissipative":
        ev = config.evolution
        summary["decay_check"] = dissipative_decay_check(
            state0, params.alpha, float(ev["nu"]), float(ev["kappa"]), float(ev["dt"]))
    return ([f.name for f in fields(DiagnosticsRecord)],
            [astuple(r) for r in records], summary)


def linear_oracle_comparison(state0: MHDState, Y: np.ndarray, t1: float,
                             alpha: float, nu: float = 0.0, kappa: float = 0.0,
                             tol: float = 1e-10):
    """Per-entry relative error of a linear vb run, compact tables ``Y`` at
    ``t1`` from ``state0`` at its own time state0.t, in p against one DOP853
    call (tolerance ``tol``) of the p system with ``nu``, ``kappa`` on every
    retained k != 0 mode, from that same time.  Returns the rows [component,
    k, eta, rel_error] of the oracle entries >= 1e-6 of the largest, and the
    worst error, floor and count."""
    grid = state0.grid
    # the oracle compares full tables
    p_num = to_p(MHDState(grid, grid.compact.unpack(Y), t1))
    sel = grid.dealias_keep & (grid.K != 0)
    i, j = np.nonzero(sel)
    p_or = np.zeros_like(p_num)
    p_or[:, sel] = linear_mode_propagate(
        LinearModeSystem(grid.k[i], grid.eta[j], alpha, "p", nu, kappa),
        to_p(state0)[:, sel].T, state0.t, t1, tol).T

    floor = 1e-6 * float(np.max(np.abs(p_or)))
    K, ETA = np.broadcast_to(grid.K, grid.shape), np.broadcast_to(grid.ETA, grid.shape)
    rows = []
    worst = 0.0
    for pn, po, name in zip(p_num, p_or, ("p1", "p2")):
        sig = np.abs(po) >= floor
        rel = np.abs(pn - po)[sig] / np.abs(po)[sig]
        for kk, ee, rr in zip(K[sig], ETA[sig], rel):
            rows.append([name, int(kk), float(ee), float(rr)])
        if rel.size:
            worst = max(worst, float(np.max(rel)))
    return rows, {"max_rel_mode_error": worst, "floor": floor,
                  "modes_compared": len(rows)}


def dissipative_decay_check(state0: MHDState, alpha: float, nu: float,
                            kappa: float, dt: float) -> dict:
    """The run's data and step, linear, on the vb route over [t0, t0 + 2],
    t0 = state0.t, against the DOP853 oracle of the dissipative p system (p1
    damped by nu, p2 by kappa; at nu = kappa each |p|^2 decays by exp(-2 nu
    int Lambda_t^2) relative to the ideal flow).  At tolerance 1e-12 the
    oracle's error is far below the solver's, so the error is RK4's, of
    fourth order in dt."""
    t1 = state0.t + 2.0
    integ = VBIntegrator(state0.grid, alpha, nu, kappa, linear_only=True)
    _, Y = evolve(integ, integ.pack(state0), state0.t, t1, dt=dt, cfl=None)
    _, report = linear_oracle_comparison(state0, Y, t1, alpha, nu, kappa, tol=1e-12)
    return {**report, "within_1pct": bool(report["max_rel_mode_error"] <= 0.01),
            "nu": nu, "kappa": kappa, "dt": dt, "t1": t1}


def run_linear_modes(config: ExperimentConfig, outdir: str):
    """Solver-vs-oracle comparison plus the amplitude-scaling exponent, both
    from the data's own time t0."""
    del outdir
    alpha = config.weight_params().alpha
    ev = config.evolution
    amp = float(config.initial["amplitude"])
    state0 = _initial_state(config)
    grid, t0, t_end = state0.grid, state0.t, float(ev["t_end"])
    state0.vb *= amp / state0.norm()

    integ = VBIntegrator(grid, alpha)
    _, Y = evolve(integ, integ.pack(state0), t0, t_end, dt=float(ev["dt"]), cfl=None)
    rows, comparison = linear_oracle_comparison(state0, Y, t_end, alpha)

    # amplitude scaling against the same-integrator linearized flow; the
    # shared integrator error cancels in the difference, so a coarse dt and
    # a short horizon suffice for the exponent
    t_short = min(t0 + 2.0, t_end)
    lin = VBIntegrator(grid, alpha, linear_only=True)
    _, Ylin = evolve(lin, lin.pack(state0), t0, t_short, dt=0.01, cfl=None)
    devs = []
    amps = [amp, amp / 2, amp / 4]
    for a in amps:
        sc = a / amp
        _, Ya = evolve(integ, integ.pack(state0) * sc, t0, t_short, dt=0.01, cfl=None)
        devs.append(MHDState(grid.compact, Ya - sc * Ylin, t_short).norm())
    # a deviation below 1e-6 amp^2 is roundoff, not nonlinearity (a single
    # Fourier mode solves the nonlinear equations), and gives no exponent
    measured = [d if d >= 1e-6 * a * a else 0.0 for d, a in zip(devs, amps)]
    exponents = [math.log2(a / b) if a and b else None for a, b in zip(measured, measured[1:])]
    summary = {
        **comparison,
        "deviations": dict(zip(map(str, amps), devs)),
        "scaling_exponents": exponents,
        "mean_exponent": None if None in exponents else float(np.mean(exponents)),
    }
    return ["component", "k", "eta", "rel_error"], rows, summary


def run_norm_inflation(config: ExperimentConfig, outdir: str):
    """Co-evolve the full solution and the per-mode linear ptilde flow.

    The rows carry per-sample norms and ratios, the summary the extreme
    ratios against C1 = exp(pi/(2 alpha)) and, as ``lin_operator_max``, the
    sup over samples and modes k != 0 of the 2x2 operator norm of the
    linear propagator U(t, t0).  The run keeps U, from the identity at the
    first sample through ``propagate_linear_grid`` between samples, and
    ptilde(t0); the linear prediction is U ptilde(t0).  ``lin_within_C1`` gates
    |ptilde|^2 within [1/C1, C1], so the l2 ratio within [1/sqrt(C1),
    sqrt(C1)]: per mode d/dt |ptilde|^2 = 2 Re(conj(ptilde_1) S ptilde_2)
    <= |S| |ptilde|^2 (the i alpha k terms are skew), and int |S| dt =
    pi/(2 alpha |k|) for the derived or flipped S.  For the mixed S, int |S|
    dt = 3.168/(alpha |k|) exceeds that, so no bound is claimed and the key
    is None (its operator norm reaches 4.92 > sqrt(C1) = 4.81 at 16^2,
    alpha = 0.5, over [0, 20]).
    """
    del outdir
    params = config.weight_params()
    alpha = params.alpha
    variant = config.evolution["symbol_variant"]
    rows = []
    ref = {"op_max": 0.0}

    def sample(st, ts):
        lay, t = st.grid, st.t
        pt = ts.ptilde
        pt[:, 0] = 0.0  # the norms are of ptilde alone, not of the averages
        if rows:
            ref["U"] = propagate_linear_grid(lay.grid, ref["U"], rows[-1]["t"], t,
                                             alpha, variant)
        else:
            # the state at t0 starts the linear flow U(t, t0) at the identity
            ref["U"] = np.eye(2, dtype=np.complex128)[:, :, None, None] * np.ones(lay.shape)
            ref["pt0"] = pt
        # sigma_max(U) = (sqrt(|U|_F^2 + 2 |det U|) + sqrt(|U|_F^2 - 2 |det U|)) / 2
        U = ref["U"]
        fro2 = np.sum(np.abs(U) ** 2, axis=(0, 1))
        det2 = 2.0 * np.abs(U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0])
        op = 0.5 * (np.sqrt(fro2 + det2) + np.sqrt(np.maximum(fro2 - det2, 0.0)))
        ref["op_max"] = max(ref["op_max"], float(op.max()))
        lin = U[:, 0] * ref["pt0"][0] + U[:, 1] * ref["pt0"][1]
        pt_l2, lin_l2, dev_l2 = (l2_norm(lay, *f) for f in (pt, lin, pt - lin))
        pt_h1, lin_h1, dev_h1 = (hminus1_norm(lay, *f) for f in (pt, lin, pt - lin))
        # the first sample, the state at t0, sets the reference norms
        l2_in, h1_in = ref.setdefault("l2", pt_l2), ref.setdefault("h1", pt_h1)
        if l2_in == 0:
            raise ValueError("initial tailored state vanishes")
        wj = l2_norm(lay, *curl_t(lay, st.vb, t))
        rows.append({
            "t": t,
            "ptilde_l2": pt_l2,
            "ptilde_lin_l2": lin_l2,
            "deviation_l2": dev_l2,
            "ratio_l2": pt_l2 / l2_in,
            "ratio_lin_l2": lin_l2 / l2_in,
            "ratio_h1": pt_h1 / h1_in if h1_in > 0 else 0.0,
            "ratio_lin_h1": lin_h1 / h1_in if h1_in > 0 else 0.0,
            "rel_deviation": dev_l2 / lin_l2 if lin_l2 > 0 else 0.0,
            "rel_deviation_h1": dev_h1 / lin_h1 if lin_h1 > 0 else 0.0,
            "wj_over_t": wj / np.hypot(1.0, t),
        })

    _stability_run(config, sample)
    c1 = float(np.exp(np.pi / (2.0 * abs(alpha))))
    ratios = np.array([r["ratio_l2"] for r in rows])
    lin_ratios = np.array([r["ratio_lin_l2"] for r in rows])
    devs = np.array([r["rel_deviation"] for r in rows])
    cols = list(rows[0])
    summary = {
        "columns": cols,
        "C1": c1,
        "lin_operator_max": ref["op_max"],
        "horizon": min(float(config.evolution["t_end"]),
                       params.c0 / float(config.initial["eps"])),
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "lin_ratio_min": float(lin_ratios.min()),
        "lin_ratio_max": float(lin_ratios.max()),
        "lin_within_C1": None if variant == "mixed" else bool(
            lin_ratios.min() >= c1**-0.5 - 1e-9 and lin_ratios.max() <= c1**0.5 + 1e-9),
        "max_rel_deviation": float(devs.max()),
        "symbol_variant": variant,
    }
    return cols, [list(r.values()) for r in rows], summary


def run_resonance_chain(config: ExperimentConfig, outdir: str):
    del outdir
    ch = config.chain
    c0 = float(ch["c0"])
    rows = []
    for eta in ch["etas"]:
        cfg = ChainConfig(c0, float(eta))
        res = chain_total_growth(cfg)
        cum = 0.0
        for k, amp in res["steps"]:
            cum += math.log(amp)
            rows.append([float(eta), c0, k, amp, cum])
    fit = chain_sweep_fit(c0, ch["etas"])
    summary = {"fit": {k: v for k, v in fit.items() if k != "rows"},
               "sweep": fit["rows"]}
    if ch["bridge"]:
        summary["handoff"] = chain_handoff_trajectory(
            ChainConfig(c0, float(min(ch["etas"]))))
    return ["eta", "c0", "k", "step_amplification", "cumulative_log_growth"], rows, summary


def run_weights_audit_experiment(config: ExperimentConfig, outdir: str):
    del outdir
    au = config.audit
    rows, summary = run_weights_audit(config.weight_params(), float(au["eta_max"]),
                                      au["n_eta"], au["seed"])
    return [f.name for f in fields(AuditRow)], [astuple(r) for r in rows], summary


def run_nl_partition(config: ExperimentConfig, outdir: str):
    del outdir
    report = nl_partition_check(_initial_state(config), config.weight_params())
    rng = np.random.default_rng(config.initial["seed"])
    report["indicator_sample"] = partition_exactness_sample(rng)
    rows = [[k, v] for k, v in report.items() if isinstance(v, (int, float, bool))]
    return ["quantity", "value"], rows, report


# each runner returns (csv columns, csv rows, summary)
RUNNERS = {
    "linear_modes": run_linear_modes,
    "nonlinear_ideal": run_trajectory,
    "dissipative": run_trajectory,
    "norm_inflation": run_norm_inflation,
    "resonance_chain": run_resonance_chain,
    "weights_audit": run_weights_audit_experiment,
    "nl_partition": run_nl_partition,
}
EXPERIMENTS = tuple(RUNNERS)


def run(config: ExperimentConfig, outdir: str) -> dict:
    """Execute one experiment; writes diagnostics.csv and summary.json."""
    config.validate()
    sio.ensure_dir(outdir)
    cdict = config.to_dict()
    chash = sio.config_hash(cdict)
    header = {"config": cdict, "config_sha256": chash}
    sio.write_json(os.path.join(outdir, "config.json"), header)
    cols, rows, summary = RUNNERS[config.experiment](config, outdir)
    sio.write_csv(os.path.join(outdir, "diagnostics.csv"), cols, rows, header)
    payload = {"experiment": config.experiment, "config_sha256": chash,
               "summary": _jsonable(summary)}
    sio.write_json(os.path.join(outdir, "summary.json"), payload)
    return payload


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj
