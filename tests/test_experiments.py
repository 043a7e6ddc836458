import csv
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import shearmhd
from shearmhd import cli, experiments
from shearmhd.diagnostics import gevrey_norm
from shearmhd.experiments import (ConfigError, ExperimentConfig,
                                  build_initial_state, gevrey_random_data,
                                  run, single_mode_state)
from shearmhd.io import (config_hash, read_state_snapshot,
                         write_state_snapshot)
from shearmhd.spectral import Grid, l2_norm
from shearmhd.unknowns import divergence_residual, hminus1_norm, leray_project_t
from shearmhd.weights import WeightParams

PAR = WeightParams(rho=0.004, lam0=1.1, s=0.6)
G16 = {"Nx": 16, "Ny": 16, "Ly": 1.0}
SNAP16 = ('# shearmhd-field-snapshot v1\n# {"Nx": 16, "Ny": 16, "Ly": 1.0, "t": 0.0, '
          '"components": ["v1", "v2", "b1", "b2"]}\ncomponent,k,eta_index,re,im\n')


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig.from_dict({"experiment": "resonance_chain",
                                          "chain": {"c0": 0.3}})
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert config_hash(again.to_dict()) == config_hash(cfg.to_dict())

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"experimnet": "weights_audit"})
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"grid": {"NX": 8}})

    def test_bad_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "bogus"})

    def test_eps_below_c0_enforced(self):
        with pytest.raises(ConfigError, match="eps < c0"):
            ExperimentConfig.from_dict({
                "experiment": "nonlinear_ideal",
                "initial": {"eps": 0.2},
            })

    def test_eps_mismatch_rejected(self):
        # the gates read initial.eps, the bootstrap budgets and m params.eps
        for exp in ("nonlinear_ideal", "norm_inflation", "nl_partition"):
            with pytest.raises(ConfigError, match="initial.eps .* params.eps"):
                ExperimentConfig.from_dict({"experiment": exp,
                                            "initial": {"eps": 1e-2}})
        with pytest.raises(ConfigError, match="initial.eps .* params.eps"):
            ExperimentConfig.from_dict({"experiment": "dissipative",
                                        "evolution": {"nu": 1e-3, "kappa": 1e-3},
                                        "params": {"eps": 2e-3}})
        cfg = ExperimentConfig.from_dict({"experiment": "nonlinear_ideal",
                                          "params": {"eps": 1e-2},
                                          "initial": {"eps": 1e-2}})
        assert cfg.weight_params().eps == cfg.initial["eps"]

    def test_dissipative_requires_dissipation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "dissipative"})

    def test_symbol_variant_validated(self):
        with pytest.raises(ConfigError, match="symbol_variant"):
            ExperimentConfig.from_dict({"experiment": "norm_inflation",
                                        "evolution": {"symbol_variant": "bogus"}})
        cfg = ExperimentConfig.from_dict({"experiment": "norm_inflation",
                                          "evolution": {"symbol_variant": "mixed"}})
        assert cfg.evolution["symbol_variant"] == "mixed"

    def test_symbol_variant_only_for_norm_inflation(self):
        # every other experiment ignores the key, so a non-default value is refused
        for exp in ("nonlinear_ideal", "linear_modes", "nl_partition"):
            with pytest.raises(ConfigError, match="norm_inflation"):
                ExperimentConfig.from_dict({"experiment": exp,
                                            "evolution": {"symbol_variant": "flipped"}})

    def test_negative_dissipation_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            ExperimentConfig.from_dict({"experiment": "dissipative",
                                        "evolution": {"nu": -1.0, "kappa": 1.0}})

    def test_dissipation_only_for_dissipative(self):
        # the ideal runners build ideal integrators, so nonzero nu is refused
        for exp in ("nonlinear_ideal", "norm_inflation", "linear_modes"):
            with pytest.raises(ConfigError, match="dissipative"):
                ExperimentConfig.from_dict({"experiment": exp,
                                            "evolution": {"nu": 0.3}})

    def test_snapshots_only_for_trajectories(self):
        with pytest.raises(ConfigError, match="snapshots"):
            ExperimentConfig.from_dict({"experiment": "norm_inflation",
                                        "output": {"snapshots": 5}})

    def test_sample_dt_positive(self):
        for bad in (0.0, -0.5):
            with pytest.raises(ConfigError, match="sample_dt"):
                ExperimentConfig.from_dict({"monitor": {"sample_dt": bad}})

    def test_single_mode_checked(self):
        # both would validate, then fail in single_mode_state with a ValueError
        single = {"experiment": "linear_modes", "grid": {"Nx": 16, "Ny": 16},
                  "initial": {"kind": "single_mode", "k": 1, "eta_index": 0}}
        for bad, match in (({"component": "x"}, "component"),
                           ({"k": 0, "eta_index": 0}, "mean mode"),
                           ({"k": 16, "eta_index": -16}, "mean mode")):
            data = {**single, "initial": {**single["initial"], **bad}}
            with pytest.raises(ConfigError, match=match):
                ExperimentConfig.from_dict(data)
        ExperimentConfig.from_dict({**single, "initial": {**single["initial"],
                                                           "component": "b"}})
        # a k = 0 mode is run by nonlinear_ideal; linear_modes compares k != 0 only
        ExperimentConfig.from_dict({**single, "experiment": "nonlinear_ideal", "initial": {
            **single["initial"], "k": 0, "eta_index": 1}})

    @pytest.mark.parametrize("bad,match", [
        ({"chain": {"c0": 1.5}}, "chain.c0"),
        ({"chain": {"c0": 0.0}}, "chain.c0"),
        ({"chain": {"etas": []}}, "chain.etas"),
        ({"chain": {"etas": [100.0]}}, "chain.etas"),
        ({"chain": {"etas": [100.0, 100.0]}}, "chain.etas"),
        ({"chain": {"etas": [-5.0, 100.0]}}, "chain.etas"),
        ({"audit": {"eta_max": 8.0}}, "audit.eta_max"),
    ], ids=["c0_above_1", "c0_zero", "no_etas", "one_eta", "one_distinct_eta",
            "negative_eta", "eta_max_below_9"])
    def test_chain_and_audit_ranges_checked(self, bad, match):
        # each would validate, then fail in the run with a bare exception
        for exp in ("resonance_chain", "weights_audit"):
            with pytest.raises(ConfigError, match=match):
                ExperimentConfig.from_dict({"experiment": exp, **bad})

    def test_chain_and_audit_edges_accepted(self):
        cfg = ExperimentConfig.from_dict({"experiment": "weights_audit",
                                          "audit": {"eta_max": 9.0}})
        assert cfg.audit["eta_max"] == 9.0
        ExperimentConfig.from_dict({"experiment": "resonance_chain",
                                    "chain": {"c0": 0.99, "etas": [1.0, 2.0]}})

    def test_lam0_floor_binds_only_its_readers(self, tmp_path):
        # at s = 0.55 the floor rho (250 + 2/(s - 1/2)) is 1.16, above the
        # default lam0 = 1.1; the runs that read s alone are not bound by it
        for name in ("norm_inflation", "linear_modes"):
            cfg = ExperimentConfig.from_dict({"experiment": name, "grid": G16,
                                              "params": {"s": 0.55},
                                              "evolution": {"t_end": 1.0}})
            run(cfg, str(tmp_path / name))
        data = {"experiment": "nonlinear_ideal", "grid": G16, "params": {"s": 0.55}}
        with pytest.raises(ConfigError, match="lam0"):
            ExperimentConfig.from_dict(data)
        ExperimentConfig.from_dict({**data, "params": {"s": 0.55, "lam0": 1.2}})

    def test_evolution_form_rejected(self):
        # every trajectory runner uses the vb integrator; the key is not accepted
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({"evolution": {"form": "ptilde"}})


class TestInitialData:
    def test_gevrey_norm_exact(self):
        g = Grid(32, 32, 1.0)
        st = gevrey_random_data(g, PAR, seed=5, eps=1e-3, lam1=1.2)
        norm = gevrey_norm(g, [st.v[0], st.v[1], st.b[0], st.b[1]], 1.2,
                           PAR.s, PAR.N)
        assert abs(norm - 1e-3) <= 1e-15

    def test_divergence_and_mean_free(self):
        g = Grid(32, 32, 1.0)
        st = gevrey_random_data(g, PAR, seed=5, eps=1e-3, lam1=1.2)
        assert divergence_residual(st) <= 1e-12
        assert st.v[0][0, 0] == 0.0 and st.b[0][0, 0] == 0.0

    def test_deterministic(self):
        g = Grid(16, 16, 1.0)
        a = gevrey_random_data(g, PAR, seed=9, eps=1e-3, lam1=1.2)
        b = gevrey_random_data(g, PAR, seed=9, eps=1e-3, lam1=1.2)
        assert np.array_equal(a.v, b.v) and np.array_equal(a.b, b.b)

    def test_hminus1_gate_quantities(self):
        g = Grid(32, 32, 1.0)
        st = gevrey_random_data(g, PAR, seed=5, eps=1e-3, lam1=1.2)
        hm1 = hminus1_norm(g, st.v[0], st.v[1], st.b[0], st.b[1])
        assert 0 < hm1 < 1e-3  # below the Gevrey norm, above zero

    def test_single_mode(self):
        g = Grid(16, 16, 1.0)
        st = single_mode_state(g, 2, 1, 1e-4, "b")
        assert np.isclose(l2_norm(g, st.b[0], st.b[1]), 1e-4)
        assert np.all(st.v == 0)
        assert divergence_residual(st) <= 1e-12

    def test_file_kind(self, tmp_path):
        g = Grid(16, 16, 1.0)
        st = single_mode_state(g, 1, 0, 1e-3, "v")
        path = str(tmp_path / "snap.txt")
        write_state_snapshot(path, st)
        cfg = ExperimentConfig.from_dict({
            "experiment": "nl_partition",
            "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "params": {"rho": 0.004, "lam0": 1.1},
            "initial": {"kind": "file", "path": path},
        })
        st2 = build_initial_state(cfg, g, PAR)
        assert np.allclose(st2.v, st.v)

    def test_file_kind_grid_must_match(self, tmp_path):
        # the runs step on the configured grid: a snapshot of another Ly
        # has other eta, so it is refused as one of another shape is
        path = str(tmp_path / "snap.txt")
        write_state_snapshot(path, single_mode_state(Grid(16, 16, 2.0), 1, 0, 1e-3, "v"))
        cfg = ExperimentConfig.from_dict({
            "experiment": "nl_partition", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "initial": {"kind": "file", "path": path}})
        with pytest.raises(ConfigError, match="snapshot grid"):
            build_initial_state(cfg, cfg.make_grid(), cfg.weight_params())

    @pytest.mark.parametrize("defect, match", [
        ("outside_band", "outside the retained band"), ("mean", "at the mean"),
        ("not_hermitian", "not Hermitian"), ("divergent", "not divergence-free")])
    def test_file_data_the_run_would_change_are_refused(self, tmp_path, defect, match):
        # packing would drop a mode outside |k| <= Nx/3, the mean, or the
        # imaginary part of a table that is not Hermitian; each defect alone
        g = Grid(16, 16, 1.0)
        st = single_mode_state(g, 1, 1, 1e-3, "v")
        if defect == "outside_band":
            st.vb[1, 1, 7, 0] = st.vb[1, 1, -7, 0] = 1e-3  # b2 of a real pair at k = 7
        elif defect == "mean":
            st.vb[0, 0, 0, 0] = 1e-3
        elif defect == "not_hermitian":
            st.vb[0, :, -1, -1] = 0.0  # the partner of (1, 1)
        else:
            st.t = 1.0  # divergence-free at t = 0 only
        path = str(tmp_path / "snap.txt")
        write_state_snapshot(path, st)
        cfg = ExperimentConfig.from_dict({
            "experiment": "nl_partition", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "params": {"rho": 0.004, "lam0": 1.1}, "initial": {"kind": "file", "path": path}})
        with pytest.raises(ConfigError, match=match):
            build_initial_state(cfg, g, PAR)


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        g = Grid(16, 16, 2.0)
        st = gevrey_random_data(g, PAR, seed=1, eps=1e-3, lam1=1.2)
        st.t = 3.25
        path = str(tmp_path / "state.txt")
        write_state_snapshot(path, st)
        back = read_state_snapshot(path)
        assert back.t == 3.25
        assert back.grid.Ly == 2.0
        assert np.max(np.abs(back.v - st.v)) <= 1e-16
        assert np.max(np.abs(back.b - st.b)) <= 1e-16

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_state_snapshot(str(path))


class TestRunner:
    def test_resonance_chain_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "resonance_chain",
            "chain": {"c0": 0.5, "etas": [50.0, 200.0], "bridge": False},
        })
        payload = run(cfg, str(tmp_path / "a"))
        assert payload["summary"]["fit"]["r_squared"] > 0.9
        for name in ("config.json", "diagnostics.csv", "summary.json"):
            assert (tmp_path / "a" / name).exists()
        with open(tmp_path / "a" / "config.json") as fh:
            stored = json.load(fh)
        assert stored["config_sha256"] == config_hash(cfg.to_dict())

    @staticmethod
    def assert_field_counts(csv_bytes):
        # every row has one field per column of the header
        rows = list(csv.reader(l for l in csv_bytes.decode().splitlines()
                               if not l.startswith("#")))
        assert len(rows) > 1
        assert all(len(r) == len(rows[0]) for r in rows)

    @staticmethod
    def csv_of_two_runs(tmp_path, data):
        out = []
        for name in ("r1", "r2"):
            run(ExperimentConfig.from_dict(data), str(tmp_path / name))
            out.append((tmp_path / name / "diagnostics.csv").read_bytes())
        return out

    def test_byte_identical_outputs(self, tmp_path):
        data = {"experiment": "weights_audit",
                "params": {"rho": 0.05, "lam0": 13.5},
                "audit": {"eta_max": 500.0, "n_eta": 8, "seed": 3}}
        b1, b2 = self.csv_of_two_runs(tmp_path, data)
        assert b1 == b2

    def test_byte_identical_trajectory_outputs(self, tmp_path):
        data = {"experiment": "nonlinear_ideal",
                "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
                "evolution": {"dt": 0.02, "t_end": 5.0},
                "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3,
                            "lam1": 1.2}}
        b1, b2 = self.csv_of_two_runs(tmp_path, data)
        assert b1 == b2
        assert len(b1.decode().splitlines()) > 10
        self.assert_field_counts(b1)

    def test_byte_identical_norm_inflation_outputs(self, tmp_path):
        # covers the linear ptilde reference as well as the vb stepping
        data = {"experiment": "norm_inflation",
                "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
                "evolution": {"dt": 0.02, "t_end": 3.0},
                "monitor": {"sample_dt": 0.5},
                "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3,
                            "lam1": 1.2}}
        b1, b2 = self.csv_of_two_runs(tmp_path, data)
        assert b1 == b2
        assert len(b1.decode().splitlines()) > 6
        self.assert_field_counts(b1)

    def test_byte_identical_linear_modes_outputs(self, tmp_path):
        # the solver against the stacked DOP853 oracle, at a small size
        data = {"experiment": "linear_modes",
                "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
                "evolution": {"dt": 0.01, "t_end": 2.0},
                "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3,
                            "lam1": 1.2, "amplitude": 1e-8}}
        b1, b2 = self.csv_of_two_runs(tmp_path, data)
        assert b1 == b2
        assert len(b1.decode().splitlines()) > 10
        self.assert_field_counts(b1)
        with open(tmp_path / "r1" / "summary.json") as fh:
            summary = json.load(fh)["summary"]
        assert summary["max_rel_mode_error"] <= 1e-4

    @pytest.mark.parametrize("data", [
        {"experiment": "dissipative", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
         "evolution": {"dt": 0.02, "t_end": 5.0, "nu": 1e-3, "kappa": 2e-3},
         "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3, "lam1": 1.2}},
        {"experiment": "resonance_chain",
         "chain": {"c0": 0.5, "etas": [50.0, 200.0], "bridge": True}},
        {"experiment": "nl_partition", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
         "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3, "lam1": 1.2}},
        # some notes of the default audit hold commas
        {"experiment": "weights_audit"},
    ], ids=lambda data: data["experiment"])
    def test_byte_identical_outputs_of(self, tmp_path, data):
        b1, b2 = self.csv_of_two_runs(tmp_path, data)
        assert b1 == b2
        self.assert_field_counts(b1)

    def test_dissipative_decay_check_reads_kappa(self, tmp_path):
        # the decay check runs the config's own data, step, nu and kappa
        cfg = ExperimentConfig.from_dict({
            "experiment": "dissipative", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "evolution": {"dt": 0.02, "t_end": 1.0, "nu": 1e-3, "kappa": 2e-3},
            "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3, "lam1": 1.2},
            "monitor": {"sample_dt": 0.1}})
        check = run(cfg, str(tmp_path / "d"))["summary"]["decay_check"]
        assert (check["nu"], check["kappa"], check["dt"]) == (1e-3, 2e-3, 0.02)
        assert check["within_1pct"] and check["max_rel_mode_error"] <= 1e-4

    def test_dissipative_builds_its_data_once(self, tmp_path, monkeypatch):
        # the decay check reads the run's own initial state
        calls = []

        def counted(*args):
            calls.append(args)
            return build_initial_state(*args)

        monkeypatch.setattr(experiments, "build_initial_state", counted)
        cfg = ExperimentConfig.from_dict({
            "experiment": "dissipative", "grid": G16,
            "evolution": {"dt": 0.02, "t_end": 1.0, "nu": 1e-3},
            "monitor": {"sample_dt": 0.1}})
        assert run(cfg, str(tmp_path / "d"))["summary"]["decay_check"]["within_1pct"]
        assert len(calls) == 1

    MODE = {"kind": "single_mode", "k": 1, "eta_index": 1}

    @pytest.mark.parametrize("initial,measured", [
        ({**MODE, "component": "v"}, False), ({**MODE, "component": "b"}, False),
        ({"kind": "gevrey_random"}, True)], ids=["mode_v", "mode_b", "gevrey"])
    def test_exponent_only_for_deviations_above_roundoff(self, tmp_path, initial, measured):
        # a single Fourier mode solves the nonlinear equations: it deviates
        # from the linearized flow by 0 or by roundoff, below 1e-6 amp^2;
        # generated data deviate by about amp^2
        cfg = ExperimentConfig.from_dict({
            "experiment": "linear_modes", "grid": {"Nx": 8, "Ny": 8, "Ly": 1.0},
            "evolution": {"t_end": 1.0}, "initial": initial})
        s = run(cfg, str(tmp_path / "o"))["summary"]
        assert [d >= 1e-6 * float(a) ** 2 for a, d in s["deviations"].items()] == [measured] * 3
        if measured:
            assert s["scaling_exponents"] == [pytest.approx(2.0, abs=0.05)] * 2
            assert s["mean_exponent"] == pytest.approx(2.0, abs=0.05)
        else:
            assert s["scaling_exponents"] == [None, None] and s["mean_exponent"] is None

    @staticmethod
    def csv_rows(path):
        with open(path) as fh:
            return list(csv.DictReader(l for l in fh if not l.startswith("#")))

    def test_runs_start_at_the_snapshot_time(self, tmp_path):
        # every run and the oracle start at the data's own t: the t = 1
        # snapshot of a run, continued linearly, still matches the oracle
        g16 = {"Nx": 16, "Ny": 16, "Ly": 1.0}
        run(ExperimentConfig.from_dict({
            "experiment": "nonlinear_ideal", "grid": g16,
            "evolution": {"dt": 0.02, "t_end": 5.0},
            "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3, "lam1": 1.2},
            "output": {"snapshots": 2}}), str(tmp_path / "src"))
        snap = {"kind": "file", "path": str(tmp_path / "src" / "snapshot_00002.txt")}
        assert read_state_snapshot(snap["path"]).t == 1.0
        lin = run(ExperimentConfig.from_dict({
            "experiment": "linear_modes", "grid": g16, "initial": snap,
            "evolution": {"dt": 0.01, "t_end": 3.0}}), str(tmp_path / "lin"))
        assert lin["summary"]["max_rel_mode_error"] <= 1e-4
        for experiment in ("nonlinear_ideal", "norm_inflation"):
            run(ExperimentConfig.from_dict({
                "experiment": experiment, "grid": g16, "initial": snap,
                "evolution": {"dt": 0.02, "t_end": 6.0}}), str(tmp_path / experiment))
            rows = self.csv_rows(tmp_path / experiment / "diagnostics.csv")
            assert float(rows[0]["t"]) == 1.0

    def test_start_at_t_end_rejected(self, tmp_path):
        g = Grid(16, 16, 1.0)
        path = str(tmp_path / "snap.txt")
        st = single_mode_state(g, 1, 0, 1e-3, "v")
        st.vb, st.t = leray_project_t(g, st.vb, 2.0), 2.0  # divergence-free at its t
        write_state_snapshot(path, st)
        for experiment in ("linear_modes", "nonlinear_ideal", "norm_inflation"):
            cfg = ExperimentConfig.from_dict({
                "experiment": experiment, "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
                "evolution": {"dt": 0.02, "t_end": 2.0},
                "initial": {"kind": "file", "path": path}})
            with pytest.raises(ConfigError, match="t_end"):
                run(cfg, str(tmp_path / experiment))
            assert not (tmp_path / experiment / "diagnostics.csv").exists()

    def test_too_few_samples_rejected_before_the_run(self, tmp_path):
        # the growth fit needs 10 samples.  Generated data start at t = 0, so
        # the 5 on [0, 2] at sample_dt 0.5 are refused when the config is
        # validated; a snapshot's t is read by run, where the t = 1 data of
        # a run to 5 give 9 and are refused before the first step
        data = {"experiment": "nonlinear_ideal", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
                "evolution": {"dt": 0.02, "t_end": 2.0},
                "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3, "lam1": 1.2}}
        with pytest.raises(ConfigError, match="10 samples"):
            ExperimentConfig.from_dict(data)
        path = str(tmp_path / "snap.txt")
        st = single_mode_state(Grid(16, 16, 1.0), 1, 0, 1e-3, "v")
        st.vb, st.t = leray_project_t(st.grid, st.vb, 1.0), 1.0  # divergence-free at its t
        write_state_snapshot(path, st)
        cfg = ExperimentConfig.from_dict({**data, "evolution": {"dt": 0.02, "t_end": 5.0},
                                          "initial": {"kind": "file", "path": path}})
        with pytest.raises(ConfigError, match="10 samples"):
            run(cfg, str(tmp_path / "t"))
        assert not (tmp_path / "t" / "diagnostics.csv").exists()

    def test_trajectory_and_inflation_share_their_samples(self, tmp_path):
        # one sampler: the same times, and the same ||(w, j)|| at each
        rows = {}
        for experiment in ("nonlinear_ideal", "norm_inflation"):
            run(ExperimentConfig.from_dict({
                "experiment": experiment, "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
                "evolution": {"dt": 0.02, "t_end": 5.0}, "monitor": {"sample_dt": 0.5},
                "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3,
                            "lam1": 1.2}}), str(tmp_path / experiment))
            rows[experiment] = self.csv_rows(tmp_path / experiment / "diagnostics.csv")
        traj, infl = rows["nonlinear_ideal"], rows["norm_inflation"]
        assert [r["t"] for r in traj] == [r["t"] for r in infl]
        assert len(traj) == 11
        for a, b in zip(traj, infl):
            wj = float(b["wj_over_t"]) * math.hypot(1.0, float(b["t"]))
            assert wj == pytest.approx(float(a["l2_wj"]), rel=1e-14)

    def test_nl_partition_runner(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "nl_partition",
            "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "params": {"rho": 0.004, "lam0": 1.1, "eps": 1e-2},
            "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-2,
                        "lam1": 1.2},
        })
        payload = run(cfg, str(tmp_path / "p"))
        assert payload["summary"]["passes"]

    def test_trajectory_runner_small(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "nonlinear_ideal",
            "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "evolution": {"dt": 0.02, "t_end": 6.0},
            "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-3,
                        "lam1": 1.2},
            "monitor": {"lam2": 1.0, "sample_dt": 0.5, "hminus1_gate_K": 0.25},
            "output": {"snapshots": 5},
        })
        payload = run(cfg, str(tmp_path / "t"))
        # time column strictly increasing
        with open(tmp_path / "t" / "diagnostics.csv") as fh:
            lines = [l for l in fh if not l.startswith("#")][1:]
        times = [float(l.split(",")[0]) for l in lines]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert any(name.startswith("snapshot_")
                   for name in os.listdir(tmp_path / "t"))
        assert payload["summary"]["growth_fit"]["r_squared"] > 0.0


class TestCLI:
    def test_validate_ok(self, tmp_path, capsys):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"experiment": "weights_audit"}))
        assert cli.main(["validate", "--config", str(cfile)]) == 0

    def test_validate_bad(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"experiment": "nope"}))
        assert cli.main(["validate", "--config", str(cfile)]) == 1

    def test_missing_file(self):
        assert cli.main(["validate", "--config", "/does/not/exist.json"]) == 1

    @pytest.mark.parametrize("data", [
        {"experiment": "resonance_chain", "chain": {"etas": 100.0}},
        {"experiment": "weights_audit", "audit": {"eta_max": "1e4"}},
        {"experiment": "resonance_chain", "chain": 5},
        {"experiment": "resonance_chain", "chain": {"bridge": "no"}},
        {"experiment": "nonlinear_ideal", "grid": {"Nx": 16.5, "Ny": 16, "Ly": 1.0}},
        {"experiment": "nonlinear_ideal", "params": {"N": 5.7}},
        {"experiment": "nonlinear_ideal", "output": {"snapshots": 2.5}},
        {"experiment": "weights_audit", "audit": {"seed": 0.5}},
    ], ids=["etas_float", "eta_max_string", "section_not_object", "bridge_string",
            "Nx_float", "N_float", "snapshots_float", "audit_seed_float"])
    def test_wrong_value_type_is_a_config_error(self, tmp_path, capsys, data):
        # the first three raised a bare TypeError from the checks before, the
        # others were coerced: bridge "no" ran the handoff, Nx 16.5 ran at 16
        with pytest.raises(ConfigError, match="wrong type"):
            ExperimentConfig.from_dict(data)
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(data))
        assert cli.main(["validate", "--config", str(cfile)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"experiment": "nonlinear_ideal", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
         "evolution": {"dt": 0.02, "t_end": 2.0}},
        {"experiment": "linear_modes", "evolution": {"t_end": 0.0}},
        {"experiment": "nonlinear_ideal", "grid": G16, "initial": {"seed": -1}},
        {"experiment": "weights_audit", "audit": {"seed": -1}},
        {"experiment": "nonlinear_ideal", "grid": G16, "initial": {"lam1": -0.5}},
        {"experiment": "nonlinear_ideal", "grid": G16, "monitor": {"lam2": -0.5}},
        {"experiment": "weights_audit", "audit": {"n_eta": -3}},
        {"experiment": "linear_modes", "grid": G16, "evolution": {"t_end": 1.0},
         "initial": {"kind": "single_mode", "k": 7, "eta_index": 0}},
        {"experiment": "nonlinear_ideal", "grid": G16, "output": {"snapshots": -2}},
        {"experiment": "linear_modes", "grid": G16, "evolution": {"t_end": 1.0},
         "initial": {"amplitude": 0.0}},
        *({"experiment": name, "grid": G16, "evolution": {"t_end": 5.0, "nu": nu},
           "initial": {"kind": "single_mode", "k": 16, "eta_index": 1}}
          for name, nu in (("linear_modes", 0.0), ("norm_inflation", 0.0),
                           ("dissipative", 1e-3))),
    ], ids=["too_few_samples", "empty_span", "initial_seed", "audit_seed", "lam1", "lam2",
            "n_eta", "mode_not_retained", "snapshots", "zero_amplitude",
            "k0_mode-linear_modes", "k0_mode-norm_inflation", "k0_mode-dissipative"])
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys, data):
        # generated data start at t = 0, so validation applies the run's
        # horizon rule: t0 < t_end and, for the growth fit, 10 samples; the
        # others ended in a traceback (a 16^2 table keeps |k| <= 5 only; a
        # zero amplitude or a k = 0 mode divided by zero in linear_modes'
        # scaling exponents, and the mode's tailored state vanished in
        # norm_inflation), ran as if positive (the snapshots) or, in
        # dissipative, compared no mode in the decay check
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(data))
        assert cli.main(["validate", "--config", str(cfile)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_run_refuses_a_chain_config_that_would_fail(self, tmp_path, capsys):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"experiment": "resonance_chain",
                                     "chain": {"c0": 1.5}}))
        assert cli.main(["run", "--config", str(cfile), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "nope\n",
        '# shearmhd-field-snapshot v1\n# {"Nx": 16, "Ny": 16, "Ly": 1.0, "t": 0.0, '
        '"components": ["v1", "v2", "b1", "b2"]}\n'
        'component,k,eta_index,re,im\nw1,1,0,1.0,0.0\n',
        '# shearmhd-field-snapshot v1\n# {"Nx": 16, "Ny": 16, "Ly": 1.0, "t": 0.0}\n'
        'component,k,eta_index,re,im\nv1,1,0,1.0,0.0\n',
        '# shearmhd-field-snapshot v1\n# {"Nx": 16, "Ny": 16, "Ly": 1.0, "t": 0.0, '
        '"components": ["v1", "v2"]}\n'
        'component,k,eta_index,re,im\nv1,1,0,1.0,0.0\n',
        SNAP16 + 'v1,17,0,1.0,0.0\n',
        SNAP16 + 'v1,1,0,1.0,0.0\nv1,1,0,2.0,0.0\n',
        SNAP16 + 'v1,1,1,1e-3,0.0\nb2,7,0,1e-3,0.0\n'],
        ids=["missing", "not_a_snapshot", "unknown_component", "no_components",
             "other_components", "k_off_the_grid", "repeated_row",
             "unpaired_and_unretained"])
    def test_unreadable_snapshot_is_a_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "snap.txt"
        if content is not None:
            path.write_text(content)
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({
            "experiment": "nonlinear_ideal", "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "initial": {"kind": "file", "path": str(path)}}))
        assert cli.main(["run", "--config", str(cfile), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_run_resonance(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({
            "experiment": "resonance_chain",
            "chain": {"c0": 0.5, "etas": [50.0, 200.0], "bridge": False}}))
        rc = cli.main(["run", "--config", str(cfile),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_seed_override_changes_hash(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({
            "experiment": "nl_partition",
            "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "params": {"rho": 0.004, "lam0": 1.1, "eps": 1e-2},
            "initial": {"kind": "gevrey_random", "seed": 2, "eps": 1e-2,
                        "lam1": 1.2}}))
        assert cli.main(["run", "--config", str(cfile), "--seed", "5",
                         "--out", str(tmp_path / "s5")]) == 0
        with open(tmp_path / "s5" / "config.json") as fh:
            stored = json.load(fh)
        assert stored["config"]["initial"]["seed"] == 5

    def test_seed_rejected_for_file_data(self, tmp_path, capsys):
        # a snapshot file fixes the data, so a seed override would be ignored
        g = Grid(16, 16, 1.0)
        path = str(tmp_path / "snap.txt")
        write_state_snapshot(path, single_mode_state(g, 1, 0, 1e-3, "v"))
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({
            "experiment": "nonlinear_ideal",
            "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
            "evolution": {"dt": 0.02, "t_end": 0.1},
            "initial": {"kind": "file", "path": path}}))
        assert cli.main(["run", "--config", str(cfile), "--seed", "5",
                         "--out", str(tmp_path / "s5")]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "s5").exists()

    @pytest.mark.parametrize("data", [
        {"experiment": "resonance_chain", "chain": {"etas": [50.0, 200.0]}},
        {"experiment": "weights_audit", "audit": {"eta_max": 500.0, "n_eta": 8}},
        *({"experiment": name, "grid": {"Nx": 16, "Ny": 16, "Ly": 1.0},
           "initial": {"kind": "single_mode"},
           "evolution": {"nu": 1e-3} if name == "dissipative" else {}}
          for name in ("linear_modes", "nonlinear_ideal", "dissipative", "norm_inflation")),
    ], ids=["resonance_chain", "weights_audit", "single_mode-linear_modes",
            "single_mode-nonlinear_ideal", "single_mode-dissipative",
            "single_mode-norm_inflation"])
    def test_seed_rejected_where_no_seed_is_read(self, tmp_path, capsys, data):
        # the run would read no initial.seed: the chain and the audit (which
        # reads audit.seed) draw none, and single_mode data are fixed
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(data))
        assert cli.main(["validate", "--config", str(cfile)]) == 0
        assert cli.main(["run", "--config", str(cfile), "--seed", "5",
                         "--out", str(tmp_path / "s5")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "--seed" in err
        assert not (tmp_path / "s5").exists()

    @pytest.mark.parametrize("data", [
        {"experiment": "nonlinear_ideal", "evolution": {"dt": 0.02, "t_end": 1.0},
         "monitor": {"sample_dt": 0.1}},
        {"experiment": "nl_partition", "params": {"rho": 0.004, "lam0": 1.1, "eps": 1e-2},
         "initial": {"eps": 1e-2}},
    ], ids=["nonlinear_ideal", "nl_partition"])
    def test_seed_override_changes_the_data(self, tmp_path, data):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"grid": {"Nx": 16, "Ny": 16, "Ly": 1.0}, **data}))
        rows = []
        for seed in ("1", "99"):
            out = tmp_path / seed
            assert cli.main(["run", "--config", str(cfile), "--seed", seed,
                             "--out", str(out)]) == 0
            text = (out / "diagnostics.csv").read_text()
            rows.append([line for line in text.splitlines() if not line.startswith("#")])
        assert rows[0][0] == rows[1][0] and rows[0][1:] != rows[1][1:]

    def test_audit_subcommand(self, tmp_path):
        rc = cli.main(["audit", "--out", str(tmp_path / "aud"),
                       "--eta-max", "500", "--samples", "8"])
        assert rc == 0
        assert (tmp_path / "aud" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_failed_hard_row_exits_2(self, tmp_path, capsys, command):
        # at rho = 0.2 the J sandwich's 2 exp(8 rho |k,eta|^(1/2)) does not
        # hold on eta <= 1e4: both commands print the summary and exit 2
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"experiment": "weights_audit",
                                     "params": {"rho": 0.2, "lam0": 60.0}}))
        assert cli.main([command, "--config", str(cfile), "--out", str(tmp_path / "o")]) == 2
        assert "J_sandwich" in json.loads(capsys.readouterr().out)["hard_failures"]

    def test_audit_overflow_exits_2(self, tmp_path, capsys):
        # exp(pi/(2 alpha)) overflows a float at alpha = 0.002: the rows whose
        # exponentials overflow fail, and the audit still writes every row
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"experiment": "weights_audit",
                                     "params": {"alpha": 0.002}}))
        assert cli.main(["audit", "--config", str(cfile), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["hard_failures"] == [
            "mtilde_bound", "Atilde_triangle_bound", "average_weight_domination"]
        assert err == ""
        assert len(TestRunner.csv_rows(tmp_path / "o" / "diagnostics.csv")) == 20

    @pytest.mark.parametrize("data", [
        {"experiment": "dissipative", "evolution": {"nu": 1e-3}},
        {"experiment": "norm_inflation", "evolution": {"symbol_variant": "mixed"}},
    ], ids=["dissipative", "norm_inflation_mixed"])
    def test_audit_reads_params_and_audit_of_any_valid_config(self, tmp_path, data):
        # the audit runs the file's params and audit sections; the rest of a
        # valid config is not the audit's to refuse
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({**data, "params": {"alpha": 2.0}}))
        assert cli.main(["audit", "--config", str(cfile), "--out", str(tmp_path / "aud"),
                         "--eta-max", "500", "--samples", "8"]) == 0
        with open(tmp_path / "aud" / "config.json") as fh:
            stored = json.load(fh)["config"]
        assert stored["experiment"] == "weights_audit"
        assert stored["params"]["alpha"] == 2.0 and stored["audit"]["n_eta"] == 8
        assert stored["evolution"] == ExperimentConfig().evolution


def test_runs_import_no_scipy(tmp_path):
    # scipy is only the DOP853 oracles' integrator, imported when one is
    # called; a fresh process that runs a trajectory, a norm-inflation run
    # and an audit never loads it (its import costs more than those runs at
    # their benchmark sizes)
    script = textwrap.dedent(f"""
        import sys
        import shearmhd
        from shearmhd import dynamics, experiments
        experiments.run(experiments.ExperimentConfig.from_dict({{
            "experiment": "nonlinear_ideal",
            "grid": {{"Nx": 16, "Ny": 16, "Ly": 1.0}},
            "evolution": {{"dt": 0.01, "t_end": 0.1}},
            "monitor": {{"sample_dt": 0.01}}}}), {str(tmp_path / "t")!r})
        experiments.run(experiments.ExperimentConfig.from_dict({{
            "experiment": "norm_inflation",
            "grid": {{"Nx": 16, "Ny": 16, "Ly": 1.0}},
            "evolution": {{"dt": 0.02, "t_end": 0.2}},
            "monitor": {{"sample_dt": 0.1}}}}), {str(tmp_path / "n")!r})
        experiments.run(experiments.ExperimentConfig.from_dict({{
            "experiment": "weights_audit",
            "audit": {{"eta_max": 500.0, "n_eta": 8, "seed": 3}}}}), {str(tmp_path / "a")!r})
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        p = dynamics.linear_mode_propagate(
            dynamics.LinearModeSystem(1, 0.0, 1.0, "p"), [1.0, 0.0], 0.0, 0.5)
        print(bool(abs(p[0]) > 0), "scipy.integrate" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(shearmhd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True True"]
