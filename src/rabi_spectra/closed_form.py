"""Exact spectrum of the uncoupled (delta = 0) model.

The two spin sectors decouple into displaced squeezed oscillators; each
branch is an equally spaced ladder with spacing omega sqrt(1 - 4 (lam/omega)^2).
The parabolic-cylinder (Weber) route that cross-checks this quantization
lives with the other validation-grade derivations, in
:mod:`rabi_spectra.canonical`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import ModelParams, in_units_of_omega, real, require_weak_squeeze, vanishes, whole
from .rootscan import MAX_GRID_POINTS, RootReport, RootScanConfig, SpectrumResult


@dataclass(frozen=True)
class BranchSpectrum:
    """One sigma_z branch: E_n = spacing (n + 1/2) + coupling_term + offset_term."""

    sigma: int
    energies: np.ndarray
    spacing: float
    coupling_term: float  # -g^2/(omega + sigma*2*lambda)
    offset_term: float    # -omega/2 + sigma*epsilon


def require_uncoupled(p: ModelParams) -> None:
    """ValidationError unless delta vanishes next to omega and
    |2*lambda| < omega, the closed form's two conditions."""
    if not vanishes(p, p.delta):
        raise ValidationError(f"closed-form route needs delta = 0, got {p.delta}")
    require_weak_squeeze(p)


def uncoupled_spectrum(p: ModelParams, n_max: int) -> tuple:
    """(positive branch, negative branch) ladders for n = 0..n_max.

    The one level cap: n_max must be a whole number in [0, MAX_GRID_POINTS],
    else ValidationError.
    """
    require_uncoupled(p)
    if not 0 <= real("n_max", n_max) <= MAX_GRID_POINTS:
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
    The window is checked by :class:`RootScanConfig`, and a window that
    reaches more than MAX_GRID_POINTS levels per branch above the lowest is
    refused here, both raising ValidationError; the report holds no scan.
    """
    RootScanConfig(e_min, e_max, grid_step)
    lowest = uncoupled_spectrum(p, 0)
    top = np.ceil(max((e_max - min(b.energies[0] for b in lowest)) / lowest[0].spacing, 0.0))
    if not top <= MAX_GRID_POINTS:
        raise ValidationError(
            f"the window [e_min, e_max] = [{e_min}, {e_max}] reaches {top:.0f} levels "
            f"per branch above the lowest, and the closed form lists at most "
            f"{MAX_GRID_POINTS}: lower e_max")
    levels = sorted((e, f"closed:{'+' if b.sigma > 0 else '-'}:{n}")
                    for b in uncoupled_spectrum(p, top)
                    for n, e in enumerate(b.energies.tolist()) if e_min <= e <= e_max)
    return SpectrumResult(method, np.array([e for e, _lab in levels]),
                          tuple(lab for _e, lab in levels),
                          RootReport(np.array([])), {"route": "closed"})
