"""Spectrum of the linear-coupling model (lam = 0): the ``heun`` row of
:data:`twopoint.ROUTES`, the truncated parent read at lam = 0, where it is
exact, gauged into the confluent Heun equation, whose local series obey
three-term recurrences.  :func:`heun_spectrum` is
``twopoint.window_spectrum("heun", ...)``, grid_step 0.05 omega by default.
"""

from __future__ import annotations

from .params import ModelParams
from .rootscan import GFunctionSample, SpectrumResult
from .twopoint import ROUTES, g_function_batch, window_spectrum


def g_function_heun_batch(p: ModelParams, energies, zeta_star: float = 0.5) -> list:
    """:func:`g_function_heun` for an array of energies, one sample each."""
    return g_function_batch(ROUTES["heun"], p, energies, zeta_star)


def g_function_heun(p: ModelParams, energy: float,
                    zeta_star: float = 0.5) -> GFunctionSample:
    """Wronskian of the two local Heun series, angle-normalized, at zeta_star."""
    return g_function_heun_batch(p, [energy], zeta_star)[0]


def heun_spectrum(p: ModelParams, e_min: float, e_max: float,
                  grid_step: float | None = None,
                  zeta_star: float = 0.5) -> SpectrumResult:
    """Scan the spectral determinant on [e_min, e_max].

    The determinant is scanned with its ladder points as knots; a root is
    'regular' or, at a ladder point, 'exceptional:<side>:<m>'.  Where delta
    vanishes too, :func:`closed_window` is returned instead.  lam != 0, g = 0
    (where the two singularities collide) and a bad window raise
    ValidationError, quoting the caller's numbers.
    """
    return window_spectrum("heun", p, e_min, e_max, grid_step, zeta_star)
