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
from .bessel import bessel_row, bessel_rows, bessel_values
from .analytic import (
    DiffractionPattern, default_order_cutoff, closed_form_pattern, grating_oracle,
)
from .tdse import Grid1D, WaveState, init_plane_wave, init_gaussian, order_probabilities
from .fit import (
    ObservedPattern, FitResult, MomentRegion,
    chi_square, joint_fit, moment_region, band_radius,
    synthesize_gaussian, synthesize_counts,
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
    "bessel_row", "bessel_rows", "bessel_values",
    "DiffractionPattern", "default_order_cutoff", "closed_form_pattern", "grating_oracle",
    "Grid1D", "WaveState", "init_plane_wave", "init_gaussian", "order_probabilities",
    "ObservedPattern", "FitResult", "MomentRegion",
    "chi_square", "joint_fit", "moment_region", "band_radius",
    "synthesize_gaussian", "synthesize_counts",
    "ResultEnvelope", "emit", "structured_text", "float_text",
    "ConfigError", "RunConfig", "parse_config", "run",
]
