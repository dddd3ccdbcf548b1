"""The two-point Wronskian route shared by the ``heun`` and ``bcf`` spectra.

A reduction supplies a second-order equation with regular singularities at
zeta = 0 and zeta = 1; its spectral determinant is the Wronskian, at a
gluing point zeta_star, of the two local Frobenius series (Braak, PRL 107,
100401, 2011).  Everything past the reduction lives here: the batched
Wronskian, the resonance ladder, the exceptional-point test and the spectrum
assembly (second-gauge check, mirror-sector merge, dedup).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EvalPointOutOfDiskError
from .polyops import poly
from .rootscan import (
    GFunctionSample,
    RootScanConfig,
    SpectrumResult,
    scan_and_refine,
)
from .series import (
    PolyOde,
    ScaledValue,
    default_seeds,
    exponent_seeds,
    ode_to_recurrence,
    series_eval,
    series_sums_lanes,
)

#: half-width of the exclusion zone planted around each resonance energy
RESONANCE_HALF_WIDTH = 1e-9
#: |angle Wronskian| below which a ladder point is accepted as exceptional
EXCEPTIONAL_TOL = 1e-8


@dataclass(frozen=True)
class Reduction:
    """One sector's equation in zeta form, as quadratics in the energy.

    ``fields`` holds rows c0, c1, c2 of the reduction's zeta-form quantities
    (a quantity's value at E is c0 + E (c1 + E c2)), and ``to_polys(values,
    gauge)`` maps their lane values to the coefficients (p0, p1, p2) of
    zeta(zeta-1) times the equation, so p2 = zeta^2 - zeta.  ``gauges`` are
    the gauge branches a spectrum scans; the first one also serves the
    ladder and the exceptional tests.
    """

    method: str
    omega: float
    fields: np.ndarray
    to_polys: Callable
    gauges: tuple = (None,)

    @classmethod
    def from_probes(cls, method: str, omega: float, values_at, to_polys,
                    gauges: tuple = (None,)) -> "Reduction":
        """Fit ``fields`` to ``values_at`` (energy -> sequence of quantities
        of degree <= 2 in E) at E = -omega, 0, omega."""
        fm, f0, fp = (np.array(values_at(e), dtype=float)
                      for e in (-omega, 0.0, omega))
        fields = np.array([f0, (fp - fm) / (2 * omega),
                           ((fp + fm) / 2 - f0) / omega ** 2])
        fields.setflags(write=False)
        return cls(method, omega, fields, to_polys, gauges)

    def polys(self, energies: np.ndarray, gauge=None):
        """(p0, p1, p2) with one lane per energy; floats are shared."""
        e = energies[None, :]
        return self.to_polys(self.fields[0][:, None] + e * (
            self.fields[1][:, None] + e * self.fields[2][:, None]), gauge)


def _wronskian_sample(energy: float, v0: ScaledValue, d0: ScaledValue,
                      v1: ScaledValue, d1: ScaledValue,
                      flags: frozenset) -> GFunctionSample:
    a = v0 * d1
    b = v1 * d0
    la, lb = a.log_abs(), b.log_abs()
    m = max(la, lb)
    if m == -math.inf:
        return GFunctionSample(energy, 0.0, -math.inf, flags)
    # assemble G = A - B on the common scale m
    ga = math.copysign(math.exp(la - m), a.mantissa) if la > -math.inf else 0.0
    gb = math.copysign(math.exp(lb - m), b.mantissa) if lb > -math.inf else 0.0
    g_m = ga - gb
    log_g = (math.log(abs(g_m)) + m) if g_m != 0.0 else -math.inf
    n0 = max(v0.log_abs(), d0.log_abs())
    n1 = max(v1.log_abs(), d1.log_abs())
    if n0 == -math.inf or n1 == -math.inf:
        return GFunctionSample(energy, 0.0, -math.inf, flags | {"degenerate_series"})
    h0 = math.hypot(math.exp(v0.log_abs() - n0), math.exp(d0.log_abs() - n0))
    h1 = math.hypot(math.exp(v1.log_abs() - n1), math.exp(d1.log_abs() - n1))
    log_norm = n0 + math.log(h0) + n1 + math.log(h1)
    if g_m == 0.0:
        return GFunctionSample(energy, 0.0, -math.inf, flags)
    val = math.copysign(math.exp(min(log_g - log_norm, 50.0)), g_m)
    return GFunctionSample(energy, val, log_g, flags)


def _series_flags(kernel_flags: int) -> set:
    flags = set()
    if kernel_flags & _kernels.FLAG_NONCONVERGED:
        flags.add("series_nonconverged")
    if kernel_flags & (_kernels.FLAG_RESONANT_INCOMPATIBLE
                       | _kernels.FLAG_RESONANT_COMPATIBLE):
        flags.add("near_resonance")
    return flags


def g_function_batch(reduction: Reduction, energies, zeta_star: float = 0.5,
                     gauge=None, max_n: int = 2000,
                     tail_tol: float = 1e-14) -> list:
    """Angle-normalized Wronskian at zeta_star of the local series at zeta = 0
    and zeta = 1, one sample per energy; both series of every energy are
    rolled in one batch."""
    if not (0.0 < zeta_star < 1.0):
        raise EvalPointOutOfDiskError(f"zeta_star must lie in (0, 1), got {zeta_star}")
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    n = energies.size
    polys = [np.column_stack([np.broadcast_to(v, (n,)) for v in c])
             for c in reduction.polys(energies, gauge)]
    val, der, slog, kflags = series_sums_lanes(
        [np.concatenate([c, c]) for c in polys], np.repeat([0.0, 1.0], n),
        np.full(2 * n, zeta_star), max_n, tail_tol)
    base = {"near_singular_eval_point"} if min(zeta_star, 1.0 - zeta_star) < 0.02 \
        else set()
    out = []
    for i in range(n):
        j = i + n
        flags = base | _series_flags(int(kflags[i])) | _series_flags(int(kflags[j]))
        out.append(_wronskian_sample(
            float(energies[i]),
            ScaledValue(float(val[i]), float(slog[i])),
            ScaledValue(float(der[i]), float(slog[i])),
            ScaledValue(float(val[j]), float(slog[j])),
            ScaledValue(float(der[j]), float(slog[j])), frozenset(flags)))
    return out


def resonance_ladder(reduction: Reduction, e_min: float, e_max: float,
                     n_cap: int = 200) -> list:
    """(energy, side, m) for every series resonance in (e_min, e_max).

    With p2 = zeta^2 - zeta the second Frobenius exponent minus one is p1(0)
    at zeta = 0 (side 'origin') and -p1(1) at zeta = 1 (side 'one'); where it
    equals an integer m >= 0 the leading weight of that series vanishes at
    index m.  Both are affine in E, so two probes pin each line (robust under
    g < 0, where the two singularities swap roles).
    """
    p1 = [np.broadcast_to(c, (2,)) for c in reduction.polys(
        np.array([0.0, reduction.omega]), reduction.gauges[0])[1]]
    out = []
    for side, index in (("origin", p1[0]), ("one", -sum(p1))):
        slope = (index[1] - index[0]) / reduction.omega
        if abs(slope) < 1e-300:
            continue
        for m in range(0, n_cap + 1):
            e_m = (m - index[0]) / slope
            if e_min < e_m < e_max:
                out.append((float(e_m), side, m))
    out.sort(key=lambda t: t[0])
    return out


def exceptional_sample(reduction: Reduction, energy: float, side: str,
                       resonant_index: int, zeta_star: float = 0.5,
                       max_n: int = 2000, tail_tol: float = 1e-14) -> GFunctionSample:
    """Second-kind Wronskian: replace the resonant-side series by the
    high-exponent Frobenius branch.  Its vanishing certifies that the ladder
    point is an exceptional eigenvalue (both-point holomorphic solution)."""
    lanes = reduction.polys(np.array([float(energy)]), reduction.gauges[0])
    polys = tuple(poly([np.ravel(v)[0] for v in c]) for c in lanes)
    sums = []
    for z0, z_side in ((0.0, "origin"), (1.0, "one")):
        rec = ode_to_recurrence(PolyOde(polys, z0=z0), f"{reduction.method}@{z0:g}")
        seeds = exponent_seeds(rec, resonant_index + 1) if side == z_side \
            else default_seeds(rec)
        sums.append(series_eval(rec, zeta_star, max_n, tail_tol, seeds=seeds))
    (v0, d0, s0), (v1, d1, s1) = sums
    flags = _series_flags(s0.flags) | _series_flags(s1.flags)
    flags.discard("near_resonance")  # seeding past the resonance is the point
    return _wronskian_sample(energy, v0, d0, v1, d1, frozenset(flags))


def spectrum(reduction: Reduction, mirror: Reduction | None, e_min: float,
             e_max: float, grid_step: float = 0.05, zeta_star: float = 0.5,
             max_n: int = 2000, tail_tol: float = 1e-14,
             refine_tol: float = 1e-10) -> SpectrumResult:
    """Spectrum on [e_min, e_max].

    The first gauge of ``reduction`` is scanned, with exclusion zones around
    its ladder points, and each ladder point gets the exceptional test.  A
    second gauge is evaluated once, at r +- 1e-8 omega for every refined
    root r: a sign change there labels the root 'regular:both', else it is
    'regular:<first>-only'.  ``mirror`` (the other spin sector, given where
    the sectors decouple) is scanned the same way and merged with a
    'mirror:' prefix.  Levels closer than max(refine_tol, 1e-9 omega) are
    merged, and the unprefixed sector's level wins.
    """
    levels, scans = [], []
    for red, prefix in ((reduction, ""), (mirror, "mirror:")):
        if red is None:
            continue
        ladder = resonance_ladder(red, e_min, e_max)
        zones = tuple((e, RESONANCE_HALF_WIDTH * red.omega, "resonance")
                      for e, _s, _n in ladder)
        cfg = RootScanConfig(e_min, e_max, grid_step, refine_tol=refine_tol,
                             split_zones=zones)
        report = scan_and_refine(
            lambda es: g_function_batch(red, es, zeta_star, red.gauges[0],
                                        max_n, tail_tol), cfg)
        n = report.roots.size
        labels = ["regular"] * n
        if len(red.gauges) > 1 and not prefix and n:
            h = 1e-8 * red.omega
            near = g_function_batch(red, np.concatenate([report.roots - h,
                                                         report.roots + h]),
                                    zeta_star, red.gauges[1], max_n, tail_tol)
            labels = ["regular:both" if lo.ok and hi.ok
                      and lo.g_value * hi.g_value <= 0.0
                      else f"regular:{red.gauges[0]}-only"
                      for lo, hi in zip(near[:n], near[n:])]
        found = list(zip(report.roots, labels))
        for e_r, side, n_res in ladder:
            s = exceptional_sample(red, e_r, side, n_res, zeta_star, max_n,
                                   tail_tol)
            if s.ok and abs(s.g_value) < EXCEPTIONAL_TOL:
                found.append((e_r, f"exceptional:{side}:{n_res}"))
        levels += [(e, prefix + lab) for e, lab in found]
        scans.append((report, ladder))

    keep = []
    for e, lab in sorted(levels, key=lambda t: (t[1].startswith("mirror:"), t[0])):
        if all(abs(e - k) > max(refine_tol, 1e-9 * reduction.omega) for k, _ in keep):
            keep.append((float(e), lab))
    keep.sort(key=lambda t: t[0])
    report, ladder = scans[0]
    return SpectrumResult(reduction.method, np.array([e for e, _lab in keep]),
                          tuple(lab for _e, lab in keep), report, None,
                          {"ladder": ladder, "zeta_star": zeta_star})
