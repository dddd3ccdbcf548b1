"""Spectrum of the general model at small couplings via the second-order
reduction with two regular singularities, a two-point route of
:mod:`rabi_spectra.twopoint` whose local series obey four-term recurrences.

The parent drops every O(lam^2, lam g) term of the fourth-order equation,
which leaves singularities at z = +-q, where p2 = p2[2] (z^2 - q^2);
:func:`twopoint.map_to_zeta` maps them to zeta = 1, 0 with no gauge
(k = 0).  The zeta-form coefficients, and so the series' recurrence
weights, are quadratics in E: the weights are fitted once per parameter set
from three probes of :func:`bcf_zeta_form`, and a whole vector of trial
energies is reduced at once, in units of omega.  At lam = 0 the parent is
the heun route's, and the two equations differ only by the gauge.  Where
delta vanishes the route returns the closed form.  The reduction of a
parameter set is kept, and so are the last few :func:`bcf_zeta_form`
results.
"""

from __future__ import annotations

import functools

from .operators import bcf_truncated_parent
from .params import ModelParams, require_weak_squeeze
from .rootscan import GFunctionSample, SpectrumResult
from .twopoint import Reduction, g_function_batch, map_to_zeta, route_spectrum


@functools.lru_cache(maxsize=4)
def bcf_zeta_form(p: ModelParams, energy: float) -> tuple:
    """The reduced equation of p at one energy: the truncated parent mapped
    to zeta with no gauge, as the coefficient tuples (P0, P1, P2) of
    :func:`twopoint.map_to_zeta`, which raises NumericalError where q = 0
    or q^2 < 0."""
    return map_to_zeta(bcf_truncated_parent(p, energy), 0.0)


@functools.lru_cache(maxsize=64)
def bcf_reduction(p: ModelParams) -> Reduction:
    """The reduced zeta-form equation of p, in units of omega, as a two-point
    reduction with no gauge.  p2 of the truncated parent does not depend on E,
    so q does not either and :func:`bcf_zeta_form` is polynomial in E
    (degree <= 2).  Needs |2*lambda| < omega, which each entry point checks
    in the caller's units before dividing by omega."""
    return Reduction.from_probes("bcf", lambda e: bcf_zeta_form(p, e))


def g_function_bcf_batch(p: ModelParams, energies,
                         zeta_star: float = 0.5) -> list:
    """:func:`g_function_bcf` for an array of energies, one sample each.
    Raises ValidationError unless |2*lambda| < omega, and NumericalError
    where the reduction breaks down."""
    require_weak_squeeze(p)
    return g_function_batch(bcf_reduction, p, energies, zeta_star)


def g_function_bcf(p: ModelParams, energy: float,
                   zeta_star: float = 0.5) -> GFunctionSample:
    """Angle-normalized Wronskian of the two four-term local series."""
    return g_function_bcf_batch(p, [energy], zeta_star)[0]


def bcf_spectrum(p: ModelParams, e_min: float, e_max: float,
                 grid_step: float = 0.05,
                 zeta_star: float = 0.5) -> SpectrumResult:
    """Grid scan + rational-step refinement of the reduced-equation G-function.

    Ladder points are knots of the grid.  Where delta vanishes the exact
    ladders of :func:`closed_window` are returned instead.  Where
    |2*lambda| >= omega this raises ValidationError, and where the reduction
    itself breaks down (q^2 < 0 or q = 0, for every energy alike)
    NumericalError, as :func:`bcf_reduction` does, the message naming the
    rule or the breakdown.
    """
    require_weak_squeeze(p)
    return route_spectrum("bcf", bcf_reduction, p, e_min, e_max, grid_step, zeta_star)
