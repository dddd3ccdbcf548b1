"""Spectrum of the linear-coupling model (lam = 0) through the confluent
Heun reduction, a two-point route of :mod:`rabi_spectra.twopoint`.

The parent is the exact second-order reduction, whose singularities sit at
z = +-q, q = |g| / omega.  :func:`twopoint.map_to_zeta` maps them to
zeta = 0 and zeta = 1 and gauges the equation by exp(k zeta) with
k = -2 g^2 / omega^2, the root that cancels the zeta^2 term of its
zero-order coefficient and so leaves the confluent Heun equation.  The
root does not depend on E, so the equation's coefficients and its series'
recurrence weights are quadratics in E: the weights are fitted once per
parameter set from three probes of :func:`heun_zeta_form`, and a whole
vector of trial energies is reduced at once, in units of omega.  The gauge
factor multiplies both local solutions alike, so the Wronskian's zeros do
not depend on k; where delta vanishes too is the closed form.  The
reduction of a parameter set is kept, and so are the last few
:func:`heun_zeta_form` results.
"""

from __future__ import annotations

import functools

from .errors import ValidationError
from .operators import asymmetric_second_order
from .params import ModelParams, vanishes
from .rootscan import GFunctionSample, SpectrumResult
from .twopoint import Reduction, g_function_batch, map_to_zeta, route_spectrum


def require_no_squeeze(p: ModelParams) -> None:
    """ValidationError unless lambda vanishes next to omega: the route's rule."""
    if not vanishes(p, p.lam):
        raise ValidationError(f"heun route needs lambda = 0, got {p.lam}")


@functools.lru_cache(maxsize=4)
def heun_zeta_form(p: ModelParams, energy: float) -> tuple:
    """The confluent Heun equation of p at one energy: the exact parent
    mapped to zeta and gauged by k = -2 (g / omega)^2, as the coefficient
    tuples (P0, P1, P2) of :func:`twopoint.map_to_zeta`."""
    require_no_squeeze(p)
    if p.g == 0.0:
        raise ValidationError("the two regular singularities collide at g = 0")
    p0, p1, p2 = map_to_zeta(asymmetric_second_order(p, energy),
                             -2.0 * (p.g / p.omega) ** 2)
    # P0's zeta^2 coefficient is -4 q^4 + k^2, zero up to rounding: dropping
    # it leaves the three-term recurrence of the confluent Heun equation
    return p0[:2], p1, p2


@functools.lru_cache(maxsize=64)
def heun_reduction(p: ModelParams) -> Reduction:
    """The confluent Heun equation of p, in units of omega, as a two-point
    reduction.  p2 of the parent and the gauge do not depend on E, so
    :func:`heun_zeta_form` is polynomial in it (degree <= 2)."""
    return Reduction.from_probes("heun", lambda e: heun_zeta_form(p, e))


def g_function_heun_batch(p: ModelParams, energies, zeta_star: float = 0.5) -> list:
    """:func:`g_function_heun` for an array of energies, one sample each."""
    require_no_squeeze(p)
    return g_function_batch(heun_reduction, p, energies, zeta_star)


def g_function_heun(p: ModelParams, energy: float,
                    zeta_star: float = 0.5) -> GFunctionSample:
    """Wronskian of the two local Heun series, angle-normalized, at zeta_star."""
    return g_function_heun_batch(p, [energy], zeta_star)[0]


def heun_spectrum(p: ModelParams, e_min: float, e_max: float,
                  grid_step: float = 0.05,
                  zeta_star: float = 0.5) -> SpectrumResult:
    """Scan the spectral determinant on [e_min, e_max].

    The determinant is scanned with its ladder points as knots; a root is
    'regular' or, at a ladder point, 'exceptional:<side>:<m>'.  Where delta
    vanishes too, :func:`closed_window` is returned instead.  lam != 0 and a
    bad window raise ValidationError, quoting the caller's numbers.
    """
    require_no_squeeze(p)
    return route_spectrum("heun", heun_reduction, p, e_min, e_max, grid_step, zeta_star)
