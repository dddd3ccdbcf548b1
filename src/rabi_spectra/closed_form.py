"""Exact spectrum of the uncoupled (delta = 0) model.

The two spin sectors decouple into displaced squeezed oscillators; each
branch is an equally spaced ladder with spacing omega sqrt(1 - 4 (lam/omega)^2).
The parabolic-cylinder (Weber) route provides the same quantization through
a_1 = n + 1/2 and the even/odd Kummer solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DeltaNotZeroError, LambdaZeroError, ValidationError
from .params import ModelParams, in_units_of_omega, vanishes, whole
from .rootscan import MAX_GRID_POINTS, RootReport, RootScanConfig, SpectrumResult
from .special import kummer_1f1, kummer_1f1_d012


@dataclass(frozen=True)
class BranchSpectrum:
    """One sigma_z branch: E_n = spacing (n + 1/2) + coupling_term + offset_term."""

    sigma: int
    energies: np.ndarray
    spacing: float
    coupling_term: float  # -g^2/(omega + sigma*2*lambda)
    offset_term: float    # -omega/2 + sigma*epsilon


@dataclass(frozen=True)
class WeberParams:
    """Affine map zeta_1 = stretch (z + shift) and the Weber parameter a_1."""

    stretch: float
    shift: float
    a1: float
    branch: int


def _require_uncoupled(p: ModelParams) -> None:
    if not vanishes(p, p.delta):
        raise DeltaNotZeroError(
            f"closed-form route needs delta = 0, got {p.delta}")


def uncoupled_spectrum(p: ModelParams, n_max: int) -> tuple:
    """(positive branch, negative branch) ladders for n = 0..n_max.

    The one level cap: n_max must be a whole number in [0, MAX_GRID_POINTS],
    else ValidationError.
    """
    _require_uncoupled(p)
    if not 0 <= n_max <= MAX_GRID_POINTS:
        raise ValidationError(f"n_max must lie in [0, {MAX_GRID_POINTS}] levels per "
                              f"branch above the lowest, got {n_max}")
    n_max = whole("n_max", n_max)
    (q,) = in_units_of_omega(p)
    spacing = p.omega * math.sqrt(1.0 - 4 * (q.lam * q.lam))
    n = np.arange(n_max + 1)
    out = []
    for sigma in (+1, -1):
        coupling = -p.omega * (q.g * q.g) / (1.0 + sigma * 2 * q.lam)
        offset = p.omega * (-0.5 + sigma * q.epsilon)
        energies = spacing * (n + 0.5) + coupling + offset
        out.append(BranchSpectrum(sigma, energies, spacing, coupling, offset))
    return tuple(out)


def closed_window(p: ModelParams, method: str, e_min: float, e_max: float,
                  grid_step: float) -> SpectrumResult:
    """The levels of :func:`uncoupled_spectrum` on [e_min, e_max], as the
    determinant route ``method`` returns them where delta vanishes.

    A doublet appears once per branch, as 'closed:+:<n>' and 'closed:-:<n>'.
    The window is checked by :class:`RootScanConfig` and the level count by
    :func:`uncoupled_spectrum`, both raising ValidationError; the report
    holds no scan.
    """
    RootScanConfig(e_min, e_max, grid_step)
    lowest = uncoupled_spectrum(p, 0)
    top = (e_max - min(b.energies[0] for b in lowest)) / lowest[0].spacing
    levels = sorted((e, f"closed:{'+' if b.sigma > 0 else '-'}:{n}")
                    for b in uncoupled_spectrum(p, np.ceil(max(top, 0.0)))
                    for n, e in enumerate(b.energies.tolist()) if e_min <= e <= e_max)
    return SpectrumResult(method, np.array([e for e, _lab in levels]),
                          tuple(lab for _e, lab in levels),
                          RootReport(np.array([])), {"route": "closed"})


def weber_params(p: ModelParams, energy: float, branch: int = +1) -> WeberParams:
    """Weber-equation data for one branch; branch -1 mirrors (eps, g, lam)."""
    _require_uncoupled(p)
    if p.lam == 0.0:
        raise LambdaZeroError("the zeta_1 stretch degenerates at lambda = 0")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    q = p if branch == +1 else p.mirrored()
    stretch = (q.omega ** 2 / q.lam ** 2 - 4.0) ** 0.25
    shift = q.g / (q.omega + 2 * q.lam)
    a1 = (1.0 / q.lam) * (q.omega ** 2 / q.lam ** 2 - 4.0) ** -0.5 \
        * (energy + q.g ** 2 / (q.omega + 2 * q.lam) + q.omega / 2 - q.epsilon)
    return WeberParams(stretch, shift, a1, branch)


def weber_solutions(a1: float, zeta1: float) -> tuple:
    """Even and odd solutions of u'' = (zeta^2/4 + a1) u."""
    x = zeta1 ** 2 / 2.0
    pref = math.exp(-zeta1 ** 2 / 4.0)
    ue = pref * kummer_1f1(a1 / 2 + 0.25, 0.5, x)
    uo = zeta1 * pref * kummer_1f1(a1 / 2 + 0.75, 1.5, x)
    return ue, uo


def weber_residual_exact(a1: float, zeta1: float) -> tuple:
    """|u'' - (zeta^2/4 + a1) u| for (U_e, U_o), with exact derivatives.

    Differentiates exp(-z^2/4) 1F1(A; b; z^2/2) in closed form through the
    contiguous-parameter identities, so the residual is limited only by the
    series tolerance, not by finite differences.
    """
    z = zeta1
    pot = z * z / 4.0 + a1
    out = []
    for which in ("even", "odd"):
        if which == "even":
            A, b = a1 / 2 + 0.25, 0.5
        else:
            A, b = a1 / 2 + 0.75, 1.5
        m0, m1, m2 = kummer_1f1_d012(A, b, z * z / 2.0)
        e = math.exp(-z * z / 4.0)
        # f = e(z) M(z^2/2): assemble f, f', f''
        f = m0
        fp = -z / 2 * m0 + z * m1
        fpp = (z * z / 4 - 0.5) * m0 + (-z * z + 1.0) * m1 + z * z * m2
        if which == "even":
            u, upp = e * f, e * fpp
        else:
            u = z * e * f
            upp = e * (z * fpp + 2 * fp)
        out.append(abs(upp - pot * u) / max(1.0, abs(u)))
    return tuple(out)


def weber_residual_fd(a1: float, zeta1: float, h: float = 4e-3) -> tuple:
    """Central finite-difference residual of (U_e, U_o), Richardson refined."""
    out = []
    for idx in (0, 1):
        def u(z, idx=idx):
            return weber_solutions(a1, z)[idx]

        def second(hh):
            return (u(zeta1 + hh) - 2 * u(zeta1) + u(zeta1 - hh)) / hh ** 2

        upp = (4.0 * second(h / 2) - second(h)) / 3.0
        out.append(abs(upp - (zeta1 ** 2 / 4 + a1) * u(zeta1))
                   / max(1.0, abs(u(zeta1))))
    return tuple(out)
