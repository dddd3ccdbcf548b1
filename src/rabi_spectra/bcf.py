"""Spectrum of the general model at small couplings via the second-order
reduction with two regular singularities, a two-point route of
:mod:`rabi_spectra.twopoint` whose local series obey four-term recurrences.

Dropping every O(lam^2, lam g) term leaves singularities at z = +-q, mapped
to zeta = 1, 0.  The zeta-form coefficients, and so the series' recurrence
weights, are quadratics in E: the weights are fitted once per parameter set
from three probes of :func:`bcf_reduce`, and a whole vector of trial
energies is reduced at once, in units of omega.  The route has no gauge;
where delta vanishes it returns the closed form.  The reduction of a
parameter set is kept, and so are the last few :func:`bcf_reduce` results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .closed_form import closed_window
from .errors import NumericalError
from .operators import bcf_truncated_parent
from .params import (ModelParams, in_units_of_omega, memoized, require_weak_squeeze,
                     times_omega, vanishes)
from .polyops import poly, split_two_poles
from .rootscan import GFunctionSample, SpectrumResult
from .series import PolyOde
from .twopoint import Reduction, g_function_batch, spectrum


@dataclass(frozen=True)
class BcfParams:
    """Reduced-equation data at one trial energy.

    q locates the regular singularities at z = +-q (zeta = 1, 0); the second
    block holds the partial-fraction table of the z-form; alpha/beta/gamma
    are the zeta-form coefficients feeding the four-term recurrences, and
    mu, nu, gamma_c (origin) plus delta, eta, kappa (at one) are the derived
    recurrence combinations.
    """

    q: float
    a_table: MappingProxyType
    b_table: MappingProxyType
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float
    gamma3: float
    mu: float
    nu: float
    gamma_c: float
    delta: float
    eta: float
    kappa: float


@memoized(4)
def bcf_reduce(p: ModelParams, energy: float) -> BcfParams:
    """Partial fractions and zeta-form coefficients of the truncated ODE.
    The result is shared: its tables are read-only."""
    if p.lam == 0.0 and p.g == 0.0:
        raise NumericalError("q = 0: both couplings vanish")
    p0, p1, p2 = bcf_truncated_parent(p, energy)
    if not all(np.all(np.isfinite(c)) for c in (p0, p1, p2)):
        raise NumericalError("non-finite ODE coefficient")
    om2 = -p2[-1]
    q2 = float(p2[0] / om2)
    if q2 <= 0.0:
        raise NumericalError(f"q^2 = {q2}: singularities leave the real axis")
    q = math.sqrt(q2)
    if q < 1e-10:
        raise NumericalError(f"q = {q} too small; singularities collide")

    quot1, bp, bm = split_two_poles(p1, p2, q)
    quot0, gp, gm = split_two_poles(p0, p2, q)
    # z-form tables in the (z^2-q^2) phi'' = (A...) phi' + (B...) phi shape
    a_poly = poly(p1) / om2
    b_poly = poly(p0) / om2
    a_table = MappingProxyType({f"A{i + 1}": float(a_poly[i]) if i < a_poly.size
                                else 0.0 for i in range(4)})
    b_table = MappingProxyType({f"B{i + 1}": float(b_poly[i]) if i < b_poly.size
                                else 0.0 for i in range(3)})
    # zeta form: phi'' = (al1 z + al2 + be1/(z-1) + be2/z) phi' + ...
    c1 = float(quot1[1]) if quot1.size > 1 else 0.0
    c0 = float(quot1[0]) if quot1.size else 0.0
    d0 = float(quot0[0]) if quot0.size else 0.0
    al1 = -4 * q2 * c1
    al2 = -(2 * q * c0 - 2 * q2 * c1)
    be1 = -bp
    be2 = -bm
    ga1 = -4 * q2 * d0
    ga2 = -2 * q * gp
    ga3 = -2 * q * gm
    return BcfParams(
        q=q, a_table=a_table, b_table=b_table,
        alpha1=al1, alpha2=al2, beta1=be1, beta2=be2,
        gamma1=ga1, gamma2=ga2, gamma3=ga3,
        mu=be1 + be2 - al2, nu=al2 - al1, gamma_c=ga2 + ga3 - ga1,
        delta=al1 + al2 + be1 + be2, eta=2 * al1 + al2,
        kappa=ga1 + ga2 + ga3)


def bcf_ode(b: BcfParams, z0: float) -> PolyOde:
    """zeta(zeta-1) times the reduced zeta-form equation, expanded at z0."""
    return PolyOde(((b.gamma3, -(b.gamma2 + b.gamma3 - b.gamma1), -b.gamma1),
                    (b.beta2, -(b.beta1 + b.beta2 - b.alpha2), -(b.alpha2 - b.alpha1),
                     -b.alpha1),
                    (0.0, -1.0, 1.0)), z0=z0)


@memoized(64)
def bcf_reduction(p: ModelParams) -> Reduction:
    """The reduced zeta-form equation of p, in units of omega, as a two-point
    reduction with no gauge.  p2 of the truncated parent does not depend on E,
    so q does not either and :func:`bcf_ode` is polynomial in E (degree <= 2).
    Needs |2*lambda| < omega, which each entry point checks in the caller's
    units before dividing by omega."""
    return Reduction.from_probes(
        "bcf", lambda e: bcf_ode(bcf_reduce(p, e), 0.0).polys)


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
    itself breaks down (q^2 <= 0 or q ~ 0, for every energy alike)
    NumericalError, as :func:`bcf_reduction` does, the message naming the
    rule or the breakdown.
    """
    require_weak_squeeze(p)
    if vanishes(p, p.delta):
        return closed_window(p, "bcf", e_min, e_max, grid_step)
    q, *window = in_units_of_omega(p, e_min, e_max, grid_step)
    return times_omega(spectrum(bcf_reduction(q), *window, zeta_star), p.omega)
