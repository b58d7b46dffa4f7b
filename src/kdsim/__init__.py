"""Standing-wave (Kapitza-Dirac) diffraction of a charge with structure.

Analytic thin-grating patterns, split-operator time-dependent propagation,
and chi-square inference of the effective grating amplitude with its
multipole-moment band.
"""
from .version import __version__
from .model import (
    E_CHARGE, M_ELECTRON, HBAR, C_LIGHT,
    ElectronConstants, LaserSetup, DimensionlessSetup, MomentSet,
    PotentialSpec, RegimeReport,
    derive_scales, moments_from_si, build_potential, evaluate_potential,
    check_regime,
)
from .bessel import BesselRow, bessel_row, bessel_rows
from .analytic import (
    DiffractionPattern, default_order_cutoff,
    pointlike_pattern, distribution_pattern, closed_form_pattern,
    effective_amplitude, grating_oracle,
)
from .tdse import (
    Grid1D, WaveState, PropagationConfig,
    init_plane_wave, init_gaussian, plan_propagation, propagate,
    exact_route, propagate_exact, order_probabilities,
)
from .fit import (
    ObservedPattern, FitResult, MomentRegion,
    chi_square, fit_effective_amplitude, joint_fit, moment_region,
    band_radius, synthesize_gaussian, synthesize_counts,
)
from .emit import ResultEnvelope, emit, structured_text, float_text
from .cli import ConfigError, RunConfig, parse_config, run

__all__ = [
    "__version__",
    "E_CHARGE", "M_ELECTRON", "HBAR", "C_LIGHT",
    "ElectronConstants", "LaserSetup", "DimensionlessSetup", "MomentSet",
    "PotentialSpec", "RegimeReport",
    "derive_scales", "moments_from_si", "build_potential", "evaluate_potential",
    "check_regime",
    "BesselRow", "bessel_row", "bessel_rows",
    "DiffractionPattern", "default_order_cutoff",
    "pointlike_pattern", "distribution_pattern", "closed_form_pattern",
    "effective_amplitude", "grating_oracle",
    "Grid1D", "WaveState", "PropagationConfig",
    "init_plane_wave", "init_gaussian", "plan_propagation", "propagate",
    "exact_route", "propagate_exact", "order_probabilities",
    "ObservedPattern", "FitResult", "MomentRegion",
    "chi_square", "fit_effective_amplitude", "joint_fit", "moment_region",
    "band_radius", "synthesize_gaussian", "synthesize_counts",
    "ResultEnvelope", "emit", "structured_text", "float_text",
    "ConfigError", "RunConfig", "parse_config", "run",
]
