"""The two-point Wronskian route shared by the ``heun`` and ``bcf`` spectra.

A reduction supplies a second-order equation with regular singularities at
zeta = 0 and zeta = 1; its spectral determinant is the Wronskian, at a
gluing point zeta_star, of the two local Frobenius series (Braak, PRL 107,
100401, 2011).  Everything past the reduction lives here, in units of omega
(the public entry points divide by it once): the batched Wronskian, the
resonance ladder and the spectrum assembly.  The equation's coefficients
are quadratics in E, and so are its series' recurrence weights:
:class:`Reduction` fits them once from three probes, and a determinant call
evaluates them at its energies.  The determinant has a simple pole at each ladder point E_m, so the spectrum scans g *
prod_m sign(E - E_m), which is continuous there.  Every determinant, the
ladder points' second-kind Wronskians included, is a lane of
:func:`_wronskian`: one batched call, and so one kernel roll, per scan round
or second-gauge check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EvalPointOutOfDiskError
from .params import ModelParams, in_units_of_omega
from .rootscan import (FLAG_DEGENERATE, FLAG_NEAR_SINGULAR, FLAG_SETS, REFINE_TOL,
                       GFunctionSample, RootScanConfig, SpectrumResult,
                       same_energy, scan_and_refine, usable)
from .series import recurrence_weights, series_sums_lanes

#: highest resonant index m put on the ladder
LADDER_MAX_M = 200
#: flag bits of a lane that the kernel's resonance guard caught
_GUARDED = _kernels.FLAG_RESONANT_COMPATIBLE | _kernels.FLAG_RESONANT_INCOMPATIBLE


@dataclass(frozen=True)
class Reduction:
    """One sector's equation in zeta form, in units of omega, with its
    recurrence weights as quadratics in the energy.

    ``ode_at(energy, gauge)`` gives the coefficients (p0, p1, p2) of
    zeta(zeta-1) times the equation, so p2 = zeta^2 - zeta.  ``weights[gauge]``
    holds rows c0, c1, c2 of the recurrence weights at zeta = 0 and at
    zeta = 1, as [3, side, lag, degree]: the weights at E are
    c0 + E (c1 + E c2).  ``ladder_lines`` holds (side, index at E = 0, index
    at E = 1) of each side's second Frobenius exponent minus one.
    ``gauges`` are the gauge branches of a spectrum: it scans the first and
    checks its roots in the second.
    """

    method: str
    ode_at: Callable
    weights: dict
    ladder_lines: tuple
    gauges: tuple = (None,)

    @classmethod
    def from_probes(cls, method: str, ode_at, gauges: tuple = (None,)) -> "Reduction":
        """Fit the weights of each gauge and side to their derivation at
        E = -1, 0, 1; the equation's coefficients are of degree <= 2
        in E, and so are the weights.  A coefficient that vanishes at all
        three probes is dropped, as the derivation drops it at one energy
        (the probes must agree on which coefficients vanish)."""
        probes = {gauge: [ode_at(e, gauge) for e in (-1.0, 0.0, 1.0)]
                  for gauge in gauges}
        weights = {}
        for gauge, odes in probes.items():
            wm, w0, wp = np.array([[recurrence_weights(polys, z0) for z0 in (0.0, 1.0)]
                                   for polys in odes])
            fit = np.array([w0, (wp - wm) / 2, (wp + wm) / 2 - w0])
            fit.setflags(write=False)
            weights[gauge] = fit
        # with p2 = zeta^2 - zeta the index is p1(0) at zeta = 0 and -p1(1)
        # at zeta = 1, affine in E
        _, at_zero, at_one = (np.asarray(polys[1], dtype=float)
                              for polys in probes[gauges[0]])
        lines = (("origin", at_zero[0], at_one[0]),
                 ("one", -at_zero.sum(), -at_one.sum()))
        return cls(method, ode_at, weights, lines, gauges)

    def lane_weights(self, energies: np.ndarray, gauge) -> np.ndarray:
        """Recurrence weights at ``energies``, the zeta = 0 lanes and then
        the zeta = 1 lanes, as [2 * energies, lag, degree]."""
        if gauge not in self.weights:
            raise ValueError(f"gauge {gauge!r} is not one of {self.gauges}")
        c0, c1, c2 = self.weights[gauge]
        e = energies[None, :, None, None]
        w = c0[:, None] + e * (c1[:, None] + e * c2[:, None])
        return w.reshape(2 * energies.size, *c0.shape[1:])


def g_function_batch(reduction_of: Callable, p: ModelParams, energies,
                     zeta_star: float = 0.5, gauge=None, pole_free: bool = False) -> list:
    """Angle-normalized Wronskian at zeta_star of the local series at zeta = 0
    and zeta = 1 of ``reduction_of`` (p in units of omega), one sample per
    energy; both series of every energy are rolled in one batch, and signed
    as the spectrum scans them (:func:`_pole_free`) with ``pole_free``.  The
    public sample boundary: it divides by omega once, and the spectrum itself
    works on :func:`_wronskian`'s arrays."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    q, unit = in_units_of_omega(p, energies)
    reduction = reduction_of(q)
    g, log_g, bits = _wronskian(reduction, unit, np.zeros((2, unit.size), int),
                                zeta_star, gauge)
    if pole_free and unit.size:
        ladder = resonance_ladder(reduction, unit.min(), unit.max())
        g = _pole_free(g, unit, np.array([e for e, _s, _m in ladder]))
    return [GFunctionSample(e, gv, lg, FLAG_SETS[b]) for e, gv, lg, b in
            zip(energies.tolist(), g.tolist(), log_g.tolist(), bits.tolist())]


def _wronskian(reduction: Reduction, energies: np.ndarray, exponents: np.ndarray,
               zeta_star: float, gauge):
    """(g, log_g, flags) arrays of the Wronskian at ``energies``: the
    angle-normalized value, the log of the raw magnitude and the flag bits
    (named by :data:`rootscan.FLAG_SETS`).  The series of energy i at
    zeta = 0 and at zeta = 1 are seeded on the Frobenius branches
    exponents[0, i] and exponents[1, i] (0: the regular branch).  A lane
    with both series on the regular branch gets FLAG_NEAR_SINGULAR when
    zeta_star lies within 0.02 of 0 or 1."""
    if not (0.0 < zeta_star < 1.0):
        raise EvalPointOutOfDiskError(f"zeta_star must lie in (0, 1), got {zeta_star}")
    n = energies.size
    x = np.repeat([zeta_star, zeta_star - 1.0], n)
    sums, slog, kflags = series_sums_lanes(reduction.lane_weights(energies, gauge),
                                           x, np.concatenate(exponents))
    val, der = sums[:, 0], sums[:, 1] / x
    # v0 d1 and v1 d0 share the scale exp(s0 + s1), so the angle-normalized
    # G is the cross product of the two unit (value, derivative) vectors
    v0, v1 = val[:n], val[n:]
    d0, d1 = der[:n], der[n:]
    n0, n1 = np.hypot(v0, d0), np.hypot(v1, d1)
    degenerate = (n0 == 0.0) | (n1 == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(degenerate, 0.0, (v0 / n0) * (d1 / n1) - (v1 / n1) * (d0 / n0))
        log_g = np.log(np.abs(g)) + np.log(n0) + np.log(n1) + slog[:n] + slog[n:]
    bits = kflags[:n] | kflags[n:] | np.where(degenerate, FLAG_DEGENERATE, 0)
    if min(zeta_star, 1.0 - zeta_star) < 0.02:
        bits = bits | np.where(exponents.any(axis=0), 0, FLAG_NEAR_SINGULAR)
    return g, log_g, bits


def resonance_ladder(reduction: Reduction, e_min: float, e_max: float) -> list:
    """(energy, side, m) for every series resonance in [e_min, e_max] with
    m <= LADDER_MAX_M.

    Where a side's second Frobenius exponent minus one equals an integer
    m >= 0, the leading weight of that series vanishes at index m.  The
    exponent is affine in E, so the two probes of ``ladder_lines`` pin it
    (robust under g < 0, where the two singularities swap roles).
    """
    out = []
    for side, at_zero, at_one in reduction.ladder_lines:
        slope = at_one - at_zero
        if abs(slope) < 1e-300:
            continue
        e_m = (np.arange(LADDER_MAX_M + 1) - at_zero) / slope
        out += [(e, side, m) for m, e in enumerate(e_m.tolist()) if e_min <= e <= e_max]
    return sorted(out, key=lambda t: t[0])


def _pole_free(g: np.ndarray, energies: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """g * prod_m sign(E - E_m) over the sorted ladder energies ``poles``."""
    above = poles.size - np.searchsorted(poles, energies, side="right")
    return np.where(above % 2 == 1, -g, g)


def spectrum(reduction: Reduction, e_min: float, e_max: float,
             grid_step: float = 0.05, zeta_star: float = 0.5) -> SpectrumResult:
    """Spectrum on [e_min, e_max].

    The first gauge of ``reduction`` is scanned as :func:`_pole_free` g, with
    its ladder points as knots of the grid.  A knot's sample, which every
    lane the kernel's resonance guard catches takes too, is the second-kind
    Wronskian, each resonant side (both, at a double pole) seeded on branch
    m + 1, signed by a first-kind lane 1e-9 above the knot.  A root within
    REFINE_TOL of a ladder point is an exceptional eigenvalue,
    'exceptional:<side>:<m>'.  A second gauge is evaluated at r +- 1e-8 for
    every root r: a sign change labels r 'regular:both', else it is
    'regular:<first>-only'.  Energies are in units of omega.
    """
    ladder = resonance_ladder(reduction, e_min, e_max)
    poles = np.array([e for e, _s, _m in ladder])
    first = np.concatenate([[True], ~same_energy(poles[1:], poles[:-1])])[:poles.size]
    knots = poles[first]
    seeded = np.zeros((2, knots.size), int)
    for (_e, side, m), k in zip(ladder, np.cumsum(first) - 1):
        seeded[int(side == "one"), k] = m + 1
    cfg = RootScanConfig(e_min, e_max, grid_step, knots=tuple(knots.tolist()))
    knot_samples = []  # g and flags at the knots, from the grid call

    def scan(es):
        n, grid_call, at = es.size, not knot_samples, np.searchsorted(es, knots)
        lanes = np.concatenate([es, knots + 1e-9]) if grid_call else es
        exponents = np.zeros((2, lanes.size), int)
        if grid_call:
            exponents[:, at] = seeded
        g, _log_g, bits = _wronskian(reduction, lanes, exponents, zeta_star,
                                     reduction.gauges[0])
        g = _pole_free(g, lanes, poles)
        take = (bits[:n] & _GUARDED) != 0
        if grid_call:
            # a knot lane the guard caught too (a double pole the merge
            # missed) gives way to the first-kind lane above it
            mag = np.abs(np.where(take[at], g[n:], g[at]))
            knot_samples.extend([mag * np.sign(g[n:]), bits[at] & ~_GUARDED | bits[n:]])
            take[at] = True
        g, bits = g[:n], bits[:n]
        if take.any() and knots.size:
            k = np.abs(es[take, None] - knots).argmin(axis=1)
            g[take], bits[take] = knot_samples[0][k], knot_samples[1][k]
        return g, bits

    report = scan_and_refine(scan, cfg)
    roots, n = report.roots, report.roots.size
    labels = ["regular"] * n
    if len(reduction.gauges) > 1 and n:
        around = np.concatenate([roots - 1e-8, roots + 1e-8])
        g, _log_g, bits = _wronskian(reduction, around, np.zeros((2, 2 * n), int), zeta_star,
                                     reduction.gauges[1])
        ok = usable(g, bits)
        both = ok[:n] & ok[n:] & (g[:n] * g[n:] <= 0.0)
        labels = np.where(both, "regular:both",
                          f"regular:{reduction.gauges[0]}-only").tolist()
    for i, r in enumerate(roots.tolist()):
        labels[i] = next((f"exceptional:{side}:{m}" for e, side, m in ladder
                          if abs(r - e) <= REFINE_TOL), labels[i])
    return SpectrumResult(reduction.method, roots, tuple(labels), report,
                          {"ladder": ladder, "zeta_star": zeta_star})
