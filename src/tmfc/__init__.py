"""Temporal-mode-selective frequency conversion by three-wave mixing.

Simulation and analysis of pulsed frequency conversion between two signal
channels coupled by a strong pump in a uniform second-order nonlinear
waveguide: coupled-mode propagation, Green function assembly, closed-form
kernels for the solvable regimes, Schmidt-mode analysis, and a
reproduction/sweep harness with a command line interface.

Importing the package loads numpy alone: each scipy module is imported
inside the functions that call it, so a process that evaluates no
analytic kernel, such as a numeric sweep or ``tmfc decompose``, never
imports scipy.
"""

from .errors import (
    ConfigurationError,
    CoverageError,
    DataError,
    NumericalError,
    RegimeError,
    ResolutionError,
    TmfcError,
    TruncationError,
    UnsupportedConfigurationError,
)
from .model import (
    EPS_BETA,
    FieldState,
    PumpShape,
    PumpSpec,
    QuadraticChirp,
    RegimeClass,
    RegimeParams,
    TemporalGrid,
    classify_regime,
    conversion_support,
    eval_pump,
    hermite_gauss_basis,
    interaction_support,
    pump_cumulative_amplitude,
    pump_cumulative_intensity,
    pump_spectrum,
)
from .solver import Propagator, energy, propagate
from .gf_numeric import (
    BasisSpec,
    DeltaLine,
    GreenFunction,
    apply_block,
    assemble_gf,
    composite_matrix,
    default_basis_layout,
    grid_for_basis,
    leakage_report,
    to_grid_form,
    unitarity_defect,
)
from .gf_analytic import (
    SSVMKernelParams,
    band_mask,
    dechirp_transform,
    default_ssvm_grids,
    ecop_bessel_identity_error,
    ecop_mixing_angle,
    ecop_output,
    low_ce_gf,
    low_ce_gf_freq,
    ridge_slope,
    sample_low_ce,
    short_pump_limit,
    short_pump_limit_peak,
    ssvm_gf,
    ssvm_kernel_variables,
    ssvm_to_ecop_limit_check,
)
from .schmidt import (
    FrequencyKernel,
    SchmidtResult,
    beamsplitter_apply,
    decompose,
    gf_fourier,
    selectivity,
    separability,
    shape_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_BETA",
    "BasisSpec",
    "ConfigurationError",
    "CoverageError",
    "DataError",
    "DeltaLine",
    "FieldState",
    "FrequencyKernel",
    "GreenFunction",
    "NumericalError",
    "Propagator",
    "PumpShape",
    "PumpSpec",
    "QuadraticChirp",
    "RegimeClass",
    "RegimeError",
    "RegimeParams",
    "ResolutionError",
    "SSVMKernelParams",
    "SchmidtResult",
    "TemporalGrid",
    "TmfcError",
    "TruncationError",
    "UnsupportedConfigurationError",
    "apply_block",
    "assemble_gf",
    "band_mask",
    "beamsplitter_apply",
    "classify_regime",
    "composite_matrix",
    "conversion_support",
    "dechirp_transform",
    "decompose",
    "default_basis_layout",
    "default_ssvm_grids",
    "ecop_bessel_identity_error",
    "ecop_mixing_angle",
    "ecop_output",
    "energy",
    "eval_pump",
    "gf_fourier",
    "grid_for_basis",
    "hermite_gauss_basis",
    "interaction_support",
    "leakage_report",
    "low_ce_gf",
    "low_ce_gf_freq",
    "propagate",
    "pump_cumulative_amplitude",
    "pump_cumulative_intensity",
    "pump_spectrum",
    "ridge_slope",
    "sample_low_ce",
    "selectivity",
    "separability",
    "shape_fidelity",
    "short_pump_limit",
    "short_pump_limit_peak",
    "ssvm_gf",
    "ssvm_kernel_variables",
    "ssvm_to_ecop_limit_check",
    "to_grid_form",
    "unitarity_defect",
    "__version__",
]
