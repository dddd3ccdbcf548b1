"""rabi-spectra: spectra of the two-level system coupled to a squeezed
bosonic mode, via closed forms, Heun-class spectral determinants, and a
truncated-Fock diagonalization oracle."""

from .params import (
    ModelParams,
    NormalizedParams,
    RegimeTag,
    classify_regime,
    normalize_params,
    validate_params,
)
from .operators import Ode4Coeffs, operator_compose
from .series import PolyOde, RecurrenceSpec, ode_residual, ode_to_recurrence
from .special import bch_series, kummer_1f1
from .closed_form import (
    BranchSpectrum,
    WeberParams,
    uncoupled_spectrum,
    weber_params,
    weber_solutions,
)
from .fock import TruncatedHamiltonian, OracleResult, build_hamiltonian, oracle_spectrum
from .rootscan import (
    GFunctionSample,
    RootReport,
    RootScanConfig,
    SpectrumResult,
    scan_and_refine,
)
from .heun import (
    CheParams,
    che_params,
    g_function_heun,
    g_function_heun_batch,
    heun_spectrum,
)
from .bcf import (
    BcfParams,
    bcf_reduce,
    bcf_spectrum,
    g_function_bcf,
    g_function_bcf_batch,
)
from .canonical import (
    BchParams,
    CanonicalCoeffs,
    NormalFormCoeffs,
    bch_params_g0,
    canonical_coeffs,
    normal_form_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "NormalizedParams", "RegimeTag",
    "classify_regime", "normalize_params", "validate_params",
    "Ode4Coeffs", "operator_compose",
    "PolyOde", "RecurrenceSpec", "ode_residual", "ode_to_recurrence",
    "bch_series", "kummer_1f1",
    "BranchSpectrum", "WeberParams", "uncoupled_spectrum", "weber_params",
    "weber_solutions",
    "TruncatedHamiltonian", "OracleResult", "build_hamiltonian",
    "oracle_spectrum",
    "GFunctionSample", "RootReport", "RootScanConfig", "SpectrumResult",
    "scan_and_refine",
    "CheParams", "che_params", "g_function_heun", "g_function_heun_batch",
    "heun_spectrum",
    "BcfParams", "bcf_reduce", "bcf_spectrum", "g_function_bcf",
    "g_function_bcf_batch",
    "BchParams", "CanonicalCoeffs", "NormalFormCoeffs", "bch_params_g0",
    "canonical_coeffs", "normal_form_coeffs",
    "__version__",
]
