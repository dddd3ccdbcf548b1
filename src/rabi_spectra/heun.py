"""Spectrum of the linear-coupling model (lam = 0) through the confluent
Heun reduction, a two-point route of :mod:`rabi_spectra.twopoint`.

The partial fractions of the second-order reduction map the two regular
singularities to zeta = 0 and zeta = 1, and a gauge exp(k zeta) with either
root k of its quadratic gives the confluent Heun equation.  The root,
k = -+2 g^2 / omega^2, does not depend on E, so the equation's coefficients
and its series' recurrence weights are quadratics in E: the weights are
fitted once per parameter set and gauge from three probes of
:func:`che_params`, and a whole vector of trial energies is reduced at
once, in units of omega.  The gauge factor multiplies both local solutions
alike, so the Wronskian's zeros do not depend on the root k: the spectrum
scans the minus branch alone, and where delta vanishes too is the closed
form.  The plus branch stays reachable through ``k_branch``.  The
reduction of a parameter set and gauge is kept, and so are the last few
:func:`che_params` results, whichever way the branch is passed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

from .closed_form import closed_window
from .errors import ValidationError
from .operators import asymmetric_second_order
from .params import ModelParams, in_units_of_omega, memoized, times_omega, vanishes
from .polyops import split_two_poles
from .rootscan import GFunctionSample, SpectrumResult
from .series import PolyOde
from .twopoint import Reduction, g_function_batch, spectrum


@dataclass(frozen=True)
class CheParams:
    """Confluent-Heun data for the lam = 0 model at one trial energy."""

    alpha: float
    beta: float
    gamma: float
    mu: float
    nu: float
    k: float
    k_branch: str
    q: float
    a_table: MappingProxyType
    quad_residual: float


@memoized(4)
def che_params(p: ModelParams, energy: float, k_branch: str = "minus") -> CheParams:
    """Partial fractions of the (corrected) second-order reduction, mapped to
    zeta in [0, 1] and gauged by exp(k zeta).  The result is shared: its
    partial-fraction table is read-only."""
    if not vanishes(p, p.lam):
        raise ValidationError(f"heun route needs lambda = 0, got {p.lam}")
    if p.g == 0.0:
        raise ValidationError("the two regular singularities collide at g = 0")
    p0, p1, p2 = asymmetric_second_order(p, energy)
    q = abs(p.g / p.omega)
    quot1, a2, a3 = split_two_poles(p1, p2, q)
    quot0, b2, b3 = split_two_poles(p0, p2, q)
    a1 = float(quot1[0]) if quot1.size else 0.0
    b1 = float(quot0[0]) if quot0.size else 0.0
    a_table = MappingProxyType({"A1": a1, "A2": a2, "A3": a3,
                                "B1": b1, "B2": b2, "B3": b3})
    al1 = 2 * q * a1
    al2, al3 = a2, a3
    be1 = 4 * q * q * b1
    be2 = 2 * q * b2
    be3 = 2 * q * b3
    if k_branch not in ("minus", "plus"):
        raise ValidationError("k_branch must be 'minus' or 'plus'")
    # A1 = 0 and B1 = -q^2, so the discriminant is 16 q^4 >= 0
    root = math.sqrt(al1 * al1 - 4 * be1)
    k = (-al1 + root) / 2 if k_branch == "plus" else (-al1 - root) / 2
    quad = k * k + al1 * k + be1
    return CheParams(alpha=al1 + 2 * k, beta=al3 - 1.0, gamma=al2,
                     mu=k * al3 + be3, nu=k * al2 + be2,
                     k=k, k_branch=k_branch, q=q,
                     a_table=a_table, quad_residual=quad)


def che_ode(che: CheParams, z0: float) -> PolyOde:
    """The confluent Heun equation times zeta(zeta-1), expanded at z0."""
    a, b, mu, nu = che.alpha, che.beta, che.mu, che.nu
    return PolyOde(((-mu, mu + nu), (-(b + 1.0), b + 1.0 + che.gamma - a, a),
                    (0.0, -1.0, 1.0)), z0=z0)


@memoized(64)
def heun_reduction(p: ModelParams, k_branch: str = "minus") -> Reduction:
    """The confluent Heun equation of p, in units of omega, gauged by the
    ``k_branch`` root, as a two-point reduction.  p2 of the parent and the
    gauge root do not depend on E, so :func:`che_ode` is polynomial in it
    (degree <= 2)."""
    return Reduction.from_probes(
        "heun", lambda e: che_ode(che_params(p, e, k_branch), 0.0).polys)


def g_function_heun_batch(p: ModelParams, energies, zeta_star: float = 0.5,
                          k_branch: str = "minus") -> list:
    """:func:`g_function_heun` for an array of energies, one sample each."""
    return g_function_batch(functools.partial(heun_reduction, k_branch=k_branch),
                            p, energies, zeta_star)


def g_function_heun(p: ModelParams, energy: float, zeta_star: float = 0.5,
                    k_branch: str = "minus") -> GFunctionSample:
    """Wronskian of the two local Heun series, angle-normalized, at zeta_star."""
    return g_function_heun_batch(p, [energy], zeta_star, k_branch)[0]


def heun_spectrum(p: ModelParams, e_min: float, e_max: float,
                  grid_step: float = 0.05,
                  zeta_star: float = 0.5) -> SpectrumResult:
    """Scan the spectral determinant on [e_min, e_max].

    The minus gauge branch is scanned, its ladder points as knots; a root is
    'regular' or, at a ladder point, 'exceptional:<side>:<m>'.  Where delta
    vanishes too, :func:`closed_window` is returned instead (the reduction
    refuses lam != 0 either way).
    """
    if vanishes(p, p.delta) and vanishes(p, p.lam):
        return closed_window(p, "heun", e_min, e_max, grid_step)
    q, *window = in_units_of_omega(p, e_min, e_max, grid_step)
    return times_omega(spectrum(heun_reduction(q), *window, zeta_star), p.omega)
