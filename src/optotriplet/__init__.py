"""Quantum-noise budget of a three-mode optomechanical force sensor.

Analytic spectral densities of the two-channel variational readout with
asymmetric sideband coupling and optical loss, the optimal post-processing
combination, the standard-quantum-limit force benchmark, and an independent
time-domain Monte Carlo validation of every analytic curve.
"""

__version__ = "0.1.0"

from .params import (
    DerivedParams,
    ParameterError,
    PhysParams,
    RegimeCheck,
    RegimeReport,
    check_regime,
    derive,
    load_config,
    table1_preset,
    thermal_occupancy,
)
from .spectra import (
    CoeffSet,
    SpectrumTable,
    coeffs,
    make_grid,
    measurement_strength,
    noise_weights,
    s_qu,
    s_qu_nonsym_resonant,
    s_qu_sym_lossless,
    s_sql,
    s_thermal,
    spectrum_sweep,
)
from .optimizer import y_opt_analytic
from .sqlimit import ForceBudget, band_integral, min_force, s_fa
from .timedomain import (
    ComparisonReport,
    PsdEstimate,
    SignalPulse,
    SimConfig,
    SimulationError,
    TimeSeriesBundle,
    compare,
    default_sim_config,
    estimate_psd,
    exact_discrete_psd,
    run_comparison,
    sigma_weights,
    simulate,
)
from .scenarios import ORACLE_SCENARIOS, SWEEP_SCENARIOS, Scenario, variant

__all__ = [
    "__version__",
    "PhysParams", "DerivedParams", "RegimeCheck", "RegimeReport", "ParameterError",
    "derive", "check_regime", "table1_preset", "load_config", "thermal_occupancy",
    "CoeffSet", "SpectrumTable", "coeffs", "noise_weights", "s_qu",
    "s_thermal", "s_sql", "s_qu_sym_lossless", "s_qu_nonsym_resonant",
    "measurement_strength", "make_grid", "spectrum_sweep",
    "y_opt_analytic",
    "ForceBudget", "s_fa", "min_force", "band_integral",
    "SimConfig", "SignalPulse", "SimulationError", "TimeSeriesBundle",
    "PsdEstimate", "ComparisonReport", "simulate", "estimate_psd", "compare",
    "default_sim_config", "run_comparison", "sigma_weights", "exact_discrete_psd",
    "Scenario", "variant", "SWEEP_SCENARIOS", "ORACLE_SCENARIOS",
]
