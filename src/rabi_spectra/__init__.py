"""rabi-spectra: spectra of the two-level system coupled to a squeezed
bosonic mode, via closed forms, Heun-class spectral determinants, and a
truncated-Fock diagonalization oracle.

Importing the package loads the solver only.  The printed-vs-derived audit
of the paper's displays (:mod:`rabi_spectra.audit`) and its validation-grade
derivations (:mod:`rabi_spectra.canonical`, with the Kummer and
biconfluent-Heun series) are imported from their modules.
"""

from .params import ModelParams, RegimeTag, classify_regime, validate_params
from .closed_form import BranchSpectrum, uncoupled_spectrum
from .fock import TruncatedHamiltonian, OracleResult, build_hamiltonian, oracle_spectrum
from .rootscan import (
    GFunctionSample,
    RootReport,
    RootScanConfig,
    SpectrumResult,
    scan_and_refine,
)
from .heun import (
    g_function_heun,
    g_function_heun_batch,
    heun_spectrum,
)
from .bcf import (
    bcf_spectrum,
    g_function_bcf,
    g_function_bcf_batch,
)
from .twopoint import window_spectrum

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "RegimeTag", "classify_regime", "validate_params",
    "BranchSpectrum", "uncoupled_spectrum",
    "TruncatedHamiltonian", "OracleResult", "build_hamiltonian",
    "oracle_spectrum",
    "GFunctionSample", "RootReport", "RootScanConfig", "SpectrumResult",
    "scan_and_refine", "window_spectrum",
    "g_function_heun", "g_function_heun_batch", "heun_spectrum",
    "bcf_spectrum", "g_function_bcf", "g_function_bcf_batch",
    "__version__",
]
