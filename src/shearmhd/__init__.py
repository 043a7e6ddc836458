"""shearmhd: pseudo-spectral simulation and verification suite for 2D MHD
perturbations of Couette flow with a constant background magnetic field."""

from .spectral import Grid, shear_symbols
from .weights import (WeightParams, a_multiplier, j_value, jtilde_value,
                      lambda_of_t, m_value, mtilde_value, q_growth_ratio,
                      q_value, MultiplierSet)
from .unknowns import (MHDState, TailoredState, curl_t, from_ptilde,
                       leray_project_t, to_p, to_ptilde, to_vtilde,
                       vorticity_current_norms)
from .dynamics import (LinearModeSystem, NumericalAbort, PtildeIntegrator,
                       VBIntegrator, linear_mode_propagate,
                       route_equivalence_run)
from .resonance import (ChainConfig, chain_step_amplification,
                        chain_total_growth, integrate_two_mode,
                        qpm_closed_form)
from .diagnostics import (DiagnosticsRecord, bootstrap_monitor,
                          energy_identity_residuals, gevrey_norm, growth_fit)
from .partition import nl_partition_check, omega_labels
from .experiments import ExperimentConfig, gevrey_random_data, run
from .weights_audit import run_weights_audit

__version__ = "0.1.0"
