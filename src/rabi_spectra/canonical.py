"""The derivations :mod:`rabi_spectra.audit` compares with the paper's
printed displays; none of them feeds a spectrum, and no printed display is
transcribed here.

- The compositions of the two coupled first-order operators: the
  fourth-order operator with the full product rule and its monic
  coefficient table, and the exact lam = 0 second-order operator, the
  reference the truncated parent of the routes is checked against.  The
  displays the derivation chapters print drop two product-rule terms.  The
  fourth-order composition is kept for the last few (parameters, energy)
  pairs, so the audits of one report share it, the lam = 0 operator
  included; it reads its energy as a Python float before its cache forms
  the key, so a 0-d array shares the entry of its value.
- The second-canonical-form pipeline in lam-normalized variables:
  approximate second-order reduction, partial fractions, normal-form
  coefficients and the first normal form of the g = 0 biconfluent-Heun
  equation, whose series the residual gate sums.
- The parabolic-cylinder (Weber) route of the uncoupled (delta = 0) model,
  whose quantization a_1 = n + 1/2 and even/odd Kummer solutions reproduce
  the closed-form ladder of :mod:`rabi_spectra.closed_form`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import (FLAG_NONCONVERGED, FLAG_RESONANT_COMPATIBLE,
                       FLAG_RESONANT_INCOMPATIBLE)
from .closed_form import require_uncoupled
from .errors import NumericalError, ValidationError
from .params import ModelParams, real
from .polyops import compose_operators, padd, pder, pmul, poly, ptrim, split_two_poles
from .series import PolyOde, ode_to_recurrence, series_sums_lanes


def coupled_operator_polys(p: ModelParams, energy: float):
    """(c1, c2, c1bar, c2bar) coefficient arrays of the coupled system."""
    c1 = poly([p.g, p.omega])
    c2 = poly([p.epsilon - energy, p.g, p.lam])
    c1b = poly([p.g, -p.omega])
    c2b = poly([p.epsilon + energy, p.g, p.lam])
    return c1, c2, c1b, c2b


def compose_fourth_order(p: ModelParams, energy: float) -> tuple:
    """Fourth-order operator annihilating phi_1: Dbar o D + delta^2, as a
    shared tuple of read-only coefficient arrays; the energy is read by
    :func:`params.real` first."""
    return _compose_fourth_order(p, real("energy", energy))


@functools.lru_cache(maxsize=4)
def _compose_fourth_order(p: ModelParams, energy: float) -> tuple:
    c1, c2, c1b, c2b = coupled_operator_polys(p, energy)
    d_op = [c2, c1, poly([p.lam])]
    dbar_op = [c2b, c1b, poly([p.lam])]
    out = compose_operators(dbar_op, d_op)
    out[0] = padd(out[0], poly([p.delta ** 2]))
    for c in out:
        c.setflags(write=False)
    return tuple(out)


def general_table(p: ModelParams, energy: float) -> dict:
    """Named entries A1 .. D4 of the monic general form: the composed
    fourth-order operator divided by lam^2."""
    if p.lam == 0.0:
        raise ValidationError("the fourth-order normal form divides by lambda^2")
    norm = [poly(c) / p.lam ** 2 for c in compose_fourth_order(p, energy)]

    def entry(k, i):
        c = norm[k]
        return float(c[i]) if i < c.size else 0.0

    return {
        "A1": entry(3, 0),
        "B1": entry(2, 0), "B2": entry(2, 1), "B3": entry(2, 2),
        "C1": entry(1, 0), "C2": entry(1, 1), "C3": entry(1, 2), "C4": entry(1, 3),
        "D1": entry(0, 0), "D2": entry(0, 1), "D3": entry(0, 2), "D4": entry(0, 3),
    }


def asymmetric_second_order(p: ModelParams, energy: float) -> tuple:
    """Second-order operator for phi_1 at lam = 0 (first-order elimination),
    as a shared tuple of read-only coefficient arrays; the energy is read by
    :func:`params.real` first.

    Composition of the two first-order operators plus delta^2; exact, unlike
    the printed reduction which loses the (g - omega z)(eps - E + g z) term.
    It is the fourth-order composition at lam = 0, whose two top
    coefficients vanish.
    """
    return compose_fourth_order(replace(p, lam=0.0), energy)[:3]


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless parameters, each physical quantity divided by lam;
    the map is invertible for lam != 0."""

    omega_bar: float
    delta_bar: float
    epsilon_bar: float
    g_bar: float
    e_bar: float

def normalize_params(p: ModelParams, energy: float) -> NormalizedParams:
    """Divide (omega, delta, epsilon, g, E) by lam.  Requires lam != 0."""
    if p.lam == 0.0:
        raise ValidationError("normalization divides by lambda")
    return NormalizedParams(p.omega / p.lam, p.delta / p.lam,
                            p.epsilon / p.lam, p.g / p.lam, energy / p.lam)


def q1_q2_polys(nb: NormalizedParams):
    """Canonical-form potentials of the two transformed components."""
    om, ep, g, e = nb.omega_bar, nb.epsilon_bar, nb.g_bar, nb.e_bar
    q1 = poly([ep - e - om / 2 - g * g / 4,
               -0.5 * g * (om - 2.0),
               -0.25 * (om * om - 4.0)])
    q2 = poly([ep + e + om / 2 - g * g / 4,
               0.5 * g * (om + 2.0),
               -0.25 * (om * om - 4.0)])
    return q1, q2


def exact_c_polys(nb: NormalizedParams):
    """Exact fourth-order coefficients c2, c3, c4 of the eliminated system."""
    om, de = nb.omega_bar, nb.delta_bar
    q1, q2 = q1_q2_polys(nb)
    aux = padd(q2, poly([-om, 0.0, om * om]))  # Q2 + om^2 z^2 - om
    c2 = padd(q1, aux)
    c3 = padd(2.0 * pder(q1), pmul(poly([0.0, -2.0 * om]), q1))
    c4 = padd(padd(poly([-de * de]), pder(q1, 2)),
              padd(pmul(poly([0.0, -2.0 * om]), pder(q1)), pmul(aux, q1)))
    return ptrim(c2), ptrim(c3), ptrim(c4)


def approx_c_polys(nb: NormalizedParams):
    """c2, c3, c4 with every term of order lam^{-1} or weaker dropped.

    The retained monomials are selected symbolically (each barred quantity
    counts as one inverse power); tests confirm the discarded remainder
    shrinks quadratically under joint (lam, g) scaling.
    """
    om, de, ep, g, e = (nb.omega_bar, nb.delta_bar, nb.epsilon_bar,
                        nb.g_bar, nb.e_bar)
    s = ep - om / 2 - g * g / 4
    c2 = poly([-g * g / 2, 0.0, om * om / 2])
    c3 = poly([-om * g,
               om * (2 * e - 2 * ep) + om * g * g / 2,
               g * om * (om - 2.0),
               om ** 3 / 2])
    c4 = poly([-om * om / 2 + s * s - e * e - de * de,
               g * (om * om - (3.0 + e) * om + 2 * ep - g * g / 2),
               0.75 * om ** 3 + 0.5 * ep * om * om - 0.375 * g * g * om * om
               - e * om * om + 0.5 * g * g,
               -0.5 * g * om * om * (om - 1.0),
               -(om * om / 16.0) * (3 * om * om - 8.0)])
    return c2, c3, c4


@dataclass(frozen=True)
class CanonicalCoeffs:
    """Partial fractions of c3/c2 and c4/c2 of the approximate reduction,
    whose two poles sit at z = +-q."""

    q: float
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float
    gamma3: float
    delta1: float
    delta2: float


def canonical_coeffs(nb: NormalizedParams) -> CanonicalCoeffs:
    """The partial fractions of c3/c2 and c4/c2 of the approximated
    c-polynomials."""
    if nb.g_bar == 0.0:
        raise ValidationError("poles collide at 0; use the g = 0 route")
    c2, c3, c4 = approx_c_polys(nb)
    q = abs(nb.g_bar / nb.omega_bar)
    quot1, b1, b2 = split_two_poles(c3, c2, q)
    quot0, d1, d2 = split_two_poles(c4, c2, q)
    al1 = float(quot1[1]) if quot1.size > 1 else 0.0
    al2 = float(quot1[0]) if quot1.size else 0.0
    ga1 = float(quot0[2]) if quot0.size > 2 else 0.0
    ga2 = float(quot0[1]) if quot0.size > 1 else 0.0
    ga3 = float(quot0[0]) if quot0.size else 0.0
    return CanonicalCoeffs(q, al1, al2, b1, b2, ga1, ga2, ga3, d1, d2)


@dataclass(frozen=True)
class NormalFormCoeffs:
    """Coefficients of U'' = -(l1 z^2 + l2 z + l3 + m1/(z-q) + m2/(z+q)
    + n1/(z-q)^2 + n2/(z+q)^2) U, derived by the Liouville transformation."""

    lambda1: float
    lambda2: float
    lambda3: float
    mu1: float
    mu2: float
    nu1: float
    nu2: float
    q: float


def normal_form_coeffs(cc: CanonicalCoeffs) -> NormalFormCoeffs:
    """Liouville transform u = U exp(-1/2 int p1): Q = q1 - p1'/2 - p1^2/4."""
    a1, a2 = cc.alpha1, cc.alpha2
    b1, b2 = cc.beta1, cc.beta2
    q = cc.q
    l1 = cc.gamma1 - a1 * a1 / 4.0
    l2 = cc.gamma2 - 0.5 * a1 * a2
    l3 = cc.gamma3 - 0.5 * a1 * (1.0 + b1 + b2) - a2 * a2 / 4.0
    m1 = cc.delta1 - 0.5 * (a1 * q + a2 + b2 / (2 * q)) * b1
    m2 = cc.delta2 + 0.5 * (a1 * q - a2 + b1 / (2 * q)) * b2
    n1 = 0.5 * b1 * (1.0 - 0.5 * b1)
    n2 = 0.5 * b2 * (1.0 - 0.5 * b2)
    return NormalFormCoeffs(l1, l2, l3, m1, m2, n1, n2, q)


def bch_first_normal_ode(alpha: float, beta: float, gamma: float,
                         delta: float) -> PolyOde:
    """zeta V'' - (gamma + delta zeta + zeta^2) V' + (alpha zeta - beta) V = 0."""
    return PolyOde((poly([-beta, alpha]), poly([-gamma, -delta, -1.0]),
                    poly([0.0, 1.0])), z0=0.0)


def weber_params(p: ModelParams, energy: float) -> float:
    """The Weber parameter a_1 of the positive branch, in the variable
    zeta_1 = (omega^2/lam^2 - 4)^(1/4) (z + g/(omega + 2 lam)); the negative
    branch's is that of ``p.mirrored()``."""
    require_uncoupled(p)
    if p.lam == 0.0:
        raise ValidationError("the zeta_1 stretch degenerates at lambda = 0")
    return (1.0 / p.lam) * (p.omega ** 2 / p.lam ** 2 - 4.0) ** -0.5 \
        * (energy + p.g ** 2 / (p.omega + 2 * p.lam) + p.omega / 2 - p.epsilon)


def _kummer_lanes(ab, x: float) -> np.ndarray:
    """Rows (M, M', M'') of M = 1F1(a; b; x), one per (a, b) of ab.

    M is the regular series at 0 of x M'' + (b - x) M' - a M = 0, and the
    rows are lanes of one kernel call; :func:`weber_residual_exact` sums
    them at x = zeta^2/2 >= 0, where no terms cancel.  A nonpositive
    integer b makes the recurrence resonant at the index 1 - b, and the
    kernel's resonance flag raises ValidationError wherever a lane reaches
    that index: at every x for b >= -9, as a lane rolls at least ten
    terms.  Where x^2 is below the normal range (x = 0 included), the
    derivative sums would lose their digits, and the rows are the series'
    leading coefficients 1, a/b and a(a+1)/(b(b+1)), which are the values
    to rounding there; the lanes then roll at unit offset for their flags.
    """
    weights = np.stack([ode_to_recurrence(PolyOde(((-a,), (b, -1.0), (0.0, 1.0)))).weights
                        for a, b in ab])
    tiny = x * x < np.finfo(float).tiny
    sums, scale_log, flags = series_sums_lanes(
        weights, [1.0 if tiny else x] * len(ab), [0] * len(ab))
    if np.any(flags & (FLAG_RESONANT_COMPATIBLE | FLAG_RESONANT_INCOMPATIBLE)):
        raise ValidationError(f"1F1 pole: b among {[b for _a, b in ab]} is a "
                              "nonpositive integer")
    if np.any(flags & FLAG_NONCONVERGED) or not np.isfinite(sums).all():
        raise NumericalError(f"1F1 at x = {x} did not converge for (a, b) in {ab}")
    if tiny:
        return np.array([(1.0, a / b, a * (a + 1) / (b * (b + 1))) for a, b in ab])
    return sums * np.exp(scale_log)[:, None] / x ** np.arange(3)


def weber_residual_exact(a1: float, zeta1: float) -> tuple:
    """|u'' - (zeta^2/4 + a1) u| for (U_e, U_o), with exact derivatives.

    Differentiates exp(-z^2/4) 1F1(A; b; z^2/2) in closed form from the
    Kummer lanes' (M, M', M''), so the residual is limited only by the
    series tolerance, not by finite differences.
    """
    z = zeta1
    pot = z * z / 4.0 + a1
    e = math.exp(-z * z / 4.0)
    out = []
    lanes = _kummer_lanes(((a1 / 2 + 0.25, 0.5), (a1 / 2 + 0.75, 1.5)), z * z / 2.0)
    for which, (m0, m1, m2) in zip(("even", "odd"), lanes):
        # f = e(z) M(z^2/2): assemble f, f', f''
        f = m0
        fp = -z / 2 * m0 + z * m1
        fpp = (z * z / 4 - 0.5) * m0 + (-z * z + 1.0) * m1 + z * z * m2
        if which == "even":
            u, upp = e * f, e * fpp
        else:
            u = z * e * f
            upp = e * (z * fpp + 2 * fp)
        out.append(float(abs(upp - pot * u) / max(1.0, abs(u))))
    return tuple(out)
