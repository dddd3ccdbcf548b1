"""Spectrum of the general model at small couplings: the ``bcf`` row of
:data:`twopoint.ROUTES`, the parent that drops every O(lam^2, lam g) term of
the fourth-order equation, whose local series obey four-term recurrences.
:func:`bcf_spectrum` is ``twopoint.window_spectrum("bcf", ...)``, grid_step
0.05 omega by default.
"""

from __future__ import annotations

from .params import ModelParams
from .rootscan import GFunctionSample, SpectrumResult
from .twopoint import ROUTES, g_function_batch, window_spectrum


def g_function_bcf_batch(p: ModelParams, energies,
                         zeta_star: float = 0.5) -> list:
    """:func:`g_function_bcf` for an array of energies, one sample each.
    Raises ValidationError unless |2*lambda| < omega and at q = 0, and
    NumericalError where the reduction breaks down."""
    return g_function_batch(ROUTES["bcf"], p, energies, zeta_star)


def g_function_bcf(p: ModelParams, energy: float,
                   zeta_star: float = 0.5) -> GFunctionSample:
    """Angle-normalized Wronskian of the two four-term local series."""
    return g_function_bcf_batch(p, [energy], zeta_star)[0]


def bcf_spectrum(p: ModelParams, e_min: float, e_max: float,
                 grid_step: float | None = None,
                 zeta_star: float = 0.5) -> SpectrumResult:
    """Grid scan + rational-step refinement of the reduced-equation G-function.

    Ladder points are knots of the grid.  Where delta vanishes the exact
    ladders of :func:`closed_window` are returned instead.  Where
    |2*lambda| >= omega, or at q = 0 (g = lambda = 0), this raises
    ValidationError, and where the reduction itself breaks down (q^2 < 0,
    for every energy alike) NumericalError, as :func:`twopoint.map_to_zeta`
    does, the message naming the rule or the breakdown.
    """
    return window_spectrum("bcf", p, e_min, e_max, grid_step, zeta_star)
