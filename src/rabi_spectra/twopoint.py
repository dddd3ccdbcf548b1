"""The two-point Wronskian route, whose rows ``heun`` and ``bcf`` are
:data:`ROUTES`.

Both rows map one parent, :func:`bcf_truncated_parent`: the small-coupling
equation in z, second order, whose leading coefficient is a multiple of
z^2 - q^2.  A :class:`Route` holds only what differs between them, an input
rule and a gauge k(p): heun's rule reads lam as 0, where the parent is
exact, and its k leaves the confluent Heun equation; bcf's rule hands lam
over as given, with k = 0.  :func:`map_to_zeta` moves the parent's two
regular singularities to zeta = 0 and zeta = 1 and gauges it by
exp(k zeta); the spectral determinant is the Wronskian, at a gluing point
zeta_star, of the two local Frobenius series (Braak, PRL 107, 100401,
2011).  The gauge multiplies both local solutions alike, so the
Wronskian's zeros do not depend on k.  Everything past the parent lives
here, in units of omega: a window's two entries, :func:`window_spectrum`
(its levels) and :func:`window_samples` (its scanned determinant), divide
by it once, with grid_step 0.05 omega by default.  The equation's coefficients are quadratics in E, and so are its series'
recurrence weights: :func:`reduction` fits them once from three probes,
and a determinant call evaluates them at its energies.  The determinant
has a simple pole at each ladder point E_m, so the spectrum scans
g * prod_m sign(E - E_m), which is continuous there.  Every determinant,
the ladder points' second-kind Wronskians included, is a lane of
:func:`_wronskian`: one batched call, and so one kernel roll, per scan
round.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .closed_form import closed_window
from .errors import NumericalError, ValidationError
from .fock import every_level
from .params import (ModelParams, in_units_of_omega, real, require_no_squeeze,
                     require_weak_squeeze, vanishes)
from .polyops import padd, poly, pshift
from .rootscan import (FLAG_DEGENERATE, FLAG_NEAR_SINGULAR, FLAG_SETS, REFINE_TOL,
                       GFunctionSample, RootReport, RootScanConfig, SpectrumResult,
                       _build_grid, same_energy, scan_and_refine)
from .series import PolyOde, recurrence_weights, series_sums_lanes

#: highest resonant index m put on the ladder
LADDER_MAX_M = 200
#: flag bits of a lane that the kernel's resonance guard caught
_GUARDED = _kernels.FLAG_RESONANT_COMPATIBLE | _kernels.FLAG_RESONANT_INCOMPATIBLE
#: a caught lane within GUARD_REACH max(1, |E_m|) of a ladder point E_m
#: takes that point's sample; one caught farther off keeps its own flags
GUARD_REACH = 1e-6


def map_to_zeta(parent, k: float) -> tuple:
    """Coefficients (P0, P1, P2) of zeta (zeta - 1) times the equation
    p2 y'' + p1 y' + p0 y = 0 of ``parent`` = (p0, p1, p2) in z, where p2 is
    a multiple of z^2 - q^2: z = q (2 zeta - 1) puts the singularities z = -q
    and q at zeta = 0 and 1, so P2 = zeta^2 - zeta, and y = exp(k zeta) w
    gauges the equation for w to (P0 + k P1 + k^2 P2, P1 + 2 k P2, P2).
    Raises ValidationError at q = 0, where the singularities collide (on
    either route where g = lam = 0), and NumericalError where a coefficient
    is not finite or q^2 < 0: the one breakdown rule of both routes."""
    p0, p1, p2 = (poly(c) for c in parent)
    if not all(np.all(np.isfinite(c)) for c in (p0, p1, p2)):
        raise NumericalError("non-finite ODE coefficient")
    lead = p2[-1]
    q2 = float(-p2[0] / lead)
    if q2 == 0.0:
        raise ValidationError("q = 0: the two regular singularities collide")
    if q2 < 0.0:
        raise NumericalError(f"q^2 = {q2}: singularities leave the real axis")
    s = 2.0 * math.sqrt(q2)
    # c(z) s^-j / lead at z = s (zeta - 1/2): scale, then shift by -1/2
    at0, at1 = (pshift(c * s ** (np.arange(c.size) - j) / lead, -0.5)
                for j, c in enumerate((p0, p1)))
    at2 = poly([0.0, -1.0, 1.0])
    return PolyOde((padd(padd(at0, k * at1), k * k * at2), padd(at1, 2.0 * k * at2),
                    at2)).polys


def bcf_truncated_parent(p: ModelParams, energy: float) -> list:
    """Second-order operator after dropping every O(lam^2), O(lam*g) monomial
    from the composed fourth-order equation (small-coupling reduction): the
    one parent of both rows of :data:`ROUTES`.

    Validity is checked in tests by scaling (g, lam) jointly and verifying the
    discarded part shrinks quadratically.
    """
    om, de, ep, g, lam = p.omega, p.delta, p.epsilon, p.g, p.lam
    E = energy
    p2 = poly([g * g + 2 * lam * (om + ep), 0.0, -om * om])
    p1 = poly([g * (om + 2 * ep), 2 * g * g + 2 * om * E - om * om])
    p0 = poly([g * g + ep * ep - E * E + de * de,
               g * (2 * ep - om),
               g * g + 2 * ep * lam - 2 * lam * om])
    return [p0, p1, p2]


@dataclass(frozen=True)
class Route:
    """A row of :data:`ROUTES`, a rule and a gauge: ``rule(p)`` raises
    ValidationError outside the route's regime and returns the parameters
    :func:`bcf_truncated_parent` reads, and ``gauge(p)`` is its k, which,
    where not 0, cancels P0's zeta^2 coefficient."""

    name: str
    rule: Callable
    gauge: Callable


ROUTES = {"heun": Route("heun", require_no_squeeze, lambda p: -2.0 * (p.g / p.omega) ** 2),
          "bcf": Route("bcf", require_weak_squeeze, lambda p: 0.0)}


def zeta_form(route: Route, p: ModelParams, energy: float) -> tuple:
    """The equation of ``route`` for p at one energy, as the coefficient
    tuples (P0, P1, P2) of :func:`map_to_zeta`, P0's zeta^2 coefficient
    dropped where k != 0; the energy is read by :func:`params.real` first."""
    return _zeta_form(route, p, real("energy", energy))


@functools.lru_cache(maxsize=8)
def _zeta_form(route: Route, p: ModelParams, energy: float) -> tuple:
    k = route.gauge(p)
    p0, p1, p2 = map_to_zeta(bcf_truncated_parent(route.rule(p), energy), k)
    # P0's zeta^2 coefficient, -4 q^4 + k^2 on heun, is zero up to rounding
    # where k != 0: dropping it leaves a three-term recurrence
    return (p0[:2] if k else p0), p1, p2


@dataclass(frozen=True)
class Reduction:
    """One sector's equation in zeta form, in units of omega, as the
    recurrence weights of its series, quadratics in the energy.

    ``weights`` holds rows c0, c1, c2 of the recurrence weights at zeta = 0
    and at zeta = 1, as [3, side, lag, degree]: the weights at E are
    c0 + E (c1 + E c2).  ``ladder_lines`` holds (side, index at E = 0, index
    at E = 1) of each side's second Frobenius exponent minus one.
    """

    method: str
    weights: np.ndarray
    ladder_lines: tuple

    def lane_weights(self, energies: np.ndarray) -> np.ndarray:
        """Recurrence weights at ``energies``, the zeta = 0 lanes and then
        the zeta = 1 lanes, as [2 * energies, lag, degree]."""
        c = self.weights[:, :, None]
        e = energies[None, :, None, None]
        w = c[0] + e * (c[1] + e * c[2])
        return w.reshape(2 * energies.size, *c.shape[3:])


@functools.lru_cache(maxsize=128)
def reduction(route: Route, p: ModelParams) -> Reduction:
    """The :class:`Reduction` of ``route`` for p, in units of omega: each
    side's weights fitted to their derivation at E = -1, 0, 1, exact since
    the parent's p2 and k do not depend on E, so that the weights are of
    degree <= 2 in it.  A coefficient that vanishes at all three probes is
    dropped, as the derivation drops it at one energy (the probes must
    agree on which coefficients vanish, and so on the recurrence's shape:
    its last lag is set by a coefficient whose length does not depend on
    E, P0's top one on bcf and P1's on heun)."""
    odes = [zeta_form(route, p, e) for e in (-1.0, 0.0, 1.0)]
    wm, w0, wp = np.array([[recurrence_weights(polys, z0) for z0 in (0.0, 1.0)]
                           for polys in odes])
    weights = np.array([w0, (wp - wm) / 2, (wp + wm) / 2 - w0])
    weights.setflags(write=False)
    # with p2 = zeta^2 - zeta the index is p1(0) at zeta = 0 and -p1(1)
    # at zeta = 1, affine in E
    _, at_zero, at_one = (np.asarray(polys[1], dtype=float) for polys in odes)
    lines = (("origin", at_zero[0], at_one[0]), ("one", -at_zero.sum(), -at_one.sum()))
    return Reduction(route.name, weights, lines)


def g_function_batch(route: Route, p: ModelParams, energies,
                     zeta_star: float = 0.5) -> list:
    """Angle-normalized Wronskian at zeta_star of the local series at zeta = 0
    and zeta = 1 of ``route``'s reduction, one sample per energy, once
    ``route.rule`` passes p; both series of every energy are rolled in one
    batch.  The public sample boundary: it divides by omega once, and the
    spectrum itself works on :func:`_wronskian`'s arrays.  Energies that
    are not real numbers, a str among them, raise ValidationError."""
    route.rule(p)
    zeta_star = gluing_point(zeta_star)
    energies = np.atleast_1d(energies)
    if energies.dtype.kind not in "biuf":
        raise ValidationError(f"energies must be real numbers, got {energies!r}")
    energies = energies.astype(float)
    q, unit = in_units_of_omega(p, energies)
    red = reduction(route, q)
    g, log_g, bits = _wronskian(red, unit, np.zeros((2, unit.size), int), zeta_star)
    return [GFunctionSample(e, gv, lg, FLAG_SETS[b]) for e, gv, lg, b in
            zip(energies.tolist(), g.tolist(), log_g.tolist(), bits.tolist())]


def _wronskian(reduction: Reduction, energies: np.ndarray, exponents: np.ndarray,
               zeta_star: float):
    """(g, log_g, flags) arrays of the Wronskian at ``energies``: the
    angle-normalized value, the log of the raw magnitude and the flag bits
    (named by :data:`rootscan.FLAG_SETS`).  The series of energy i at
    zeta = 0 and at zeta = 1 are seeded on the Frobenius branches
    exponents[0, i] and exponents[1, i] (0: the regular branch).  A lane
    with both series on the regular branch gets FLAG_NEAR_SINGULAR when
    zeta_star, a float in (0, 1) read by :func:`gluing_point`, lies within
    0.02 of 0 or 1."""
    n = energies.size
    x = np.repeat([zeta_star, zeta_star - 1.0], n)
    sums, slog, kflags = series_sums_lanes(reduction.lane_weights(energies),
                                           x, np.concatenate(exponents), 1)
    val, der = sums[:, 0], sums[:, 1] / x
    # v0 d1 and v1 d0 share the scale exp(s0 + s1), so the angle-normalized
    # G is the cross product of the two unit (value, derivative) vectors
    norm = np.hypot(val, der)
    zero = norm == 0.0
    degenerate = zero[:n] | zero[n:]
    with np.errstate(divide="ignore", invalid="ignore"):
        u, w = val / norm, der / norm
        g = np.where(degenerate, 0.0, u[:n] * w[n:] - u[n:] * w[:n])
        log_norm = np.log(norm)
        log_g = np.log(np.abs(g)) + log_norm[:n] + log_norm[n:] + slog[:n] + slog[n:]
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


def gluing_point(zeta_star) -> float:
    """zeta_star as a float in (0, 1), read by :func:`params.real`, else
    ValidationError: the rule each entry point reads its gluing point by,
    before it returns a closed-form or empty answer."""
    zeta_star = real("zeta_star", zeta_star)
    if not 0.0 < zeta_star < 1.0:
        raise ValidationError(f"zeta_star must lie in (0, 1), got {zeta_star}")
    return zeta_star


def _grid_step(p: ModelParams, grid_step: float | None) -> float:
    """grid_step, or where it is None every window's default, 0.05 omega."""
    return 0.05 * p.omega if grid_step is None else grid_step


def window_in_units_of_omega(p: ModelParams, e_min: float, e_max: float,
                             grid_step: float) -> tuple:
    """(p, e_min, e_max, grid_step) in units of omega, the window checked by
    :class:`RootScanConfig` in the caller's units first."""
    RootScanConfig(e_min, e_max, grid_step)
    q, *window = in_units_of_omega(p, e_min, e_max, grid_step)
    if not (all(map(math.isfinite, window)) and window[2] > 0):
        raise ValidationError(f"the window [{e_min}, {e_max}] with grid_step {grid_step} "
                              f"leaves the float range in units of omega = {p.omega}")
    return (q, *window)


def window_spectrum(method: str, p: ModelParams, e_min: float, e_max: float,
                    grid_step: float | None = None, zeta_star: float = 0.5,
                    fock_cutoff: int = 120) -> SpectrumResult:
    """The levels of ``method`` on [e_min, e_max], in the caller's units:
    the one entry of every method, each of which checks the window by
    :class:`RootScanConfig` (grid_step 0.05 omega by default).  ``closed``
    is :func:`closed_window`, which refuses delta != 0; ``oracle`` is the
    levels of :func:`fock.every_level` at ``fock_cutoff`` inside the window,
    labelled 'cutoff=<cutoff>', with the cutoff in its metadata and an empty
    report.  ``heun`` and ``bcf``, once the route's rule passes p and
    :func:`gluing_point` reads zeta_star, are :func:`closed_window` where
    delta vanishes, else the :func:`spectrum` of the route's reduction on
    the window in units of omega, its energies, report and ladder
    multiplied back.  Any other method raises ValidationError."""
    grid_step = _grid_step(p, grid_step)
    if method == "closed":
        return closed_window(p, method, e_min, e_max, grid_step)
    if method == "oracle":
        RootScanConfig(e_min, e_max, grid_step)
        ev, cutoff = every_level(p, fock_cutoff), int(fock_cutoff)
        ev = ev[(e_min <= ev) & (ev <= e_max)]
        return SpectrumResult(method, ev, (f"cutoff={cutoff}",) * ev.size,
                              RootReport(np.array([])), {"cutoff": cutoff})
    if method not in ROUTES:
        raise ValidationError(f"method must be closed, heun, bcf or oracle, got {method!r}")
    route = ROUTES[method]
    route.rule(p)
    zeta_star = gluing_point(zeta_star)
    if vanishes(p, p.delta):
        return closed_window(p, method, e_min, e_max, grid_step)
    q, *window = window_in_units_of_omega(p, e_min, e_max, grid_step)
    res, w = spectrum(reduction(route, q), *window, zeta_star), p.omega
    rep, ladder = res.report, res.metadata["ladder"]
    return replace(res, energies=res.energies * w, report=replace(
        rep, roots=rep.roots * w, suspects=tuple(s * w for s in rep.suspects),
        excluded=tuple(replace(iv, lo=iv.lo * w, hi=iv.hi * w) for iv in rep.excluded),
        brackets=tuple((a * w, b * w) for a, b in rep.brackets)),
        metadata={**res.metadata, "ladder": [(e * w, s, m) for e, s, m in ladder]})


def window_samples(method: str, p: ModelParams, e_min: float, e_max: float,
                   grid_step: float | None = None, zeta_star: float = 0.5) -> list:
    """Route ``method``'s determinant as :func:`window_spectrum` scans it,
    read as that reads its settings: one :class:`GFunctionSample` per point
    of the knot-free grid of [e_min, e_max], in the caller's units, with g
    signed by :func:`_pole_free`, so that a sign change is a root and not a
    pole.  e_min == e_max gives no samples, and a method but heun and bcf
    raises ValidationError."""
    if method not in ROUTES:
        raise ValidationError(f"method must be heun or bcf, got {method!r}")
    route = ROUTES[method]
    route.rule(p)
    zeta_star = gluing_point(zeta_star)
    q, *window = window_in_units_of_omega(p, e_min, e_max, _grid_step(p, grid_step))
    if e_min == e_max:
        return []
    unit = _build_grid(RootScanConfig(*window))
    red = reduction(route, q)
    g, log_g, bits = _wronskian(red, unit, np.zeros((2, unit.size), int), zeta_star)
    ladder = resonance_ladder(red, unit[0], unit[-1])
    g = _pole_free(g, unit, np.array([e for e, _s, _m in ladder]))
    return [GFunctionSample(e, gv, lg, FLAG_SETS[b]) for e, gv, lg, b in
            zip((p.omega * unit).tolist(), g.tolist(), log_g.tolist(), bits.tolist())]


def spectrum(reduction: Reduction, e_min: float, e_max: float,
             grid_step: float = 0.05, zeta_star: float = 0.5) -> SpectrumResult:
    """Spectrum on [e_min, e_max].

    The reduction is scanned as :func:`_pole_free` g, with its ladder points
    as knots of the grid.  A knot's sample, which a lane the kernel's
    resonance guard catches within GUARD_REACH of it takes too, is the
    second-kind Wronskian, each resonant side (both, at a double pole)
    seeded on branch m + 1, signed by a first-kind lane 1e-9 above the
    knot.  A root within REFINE_TOL of a
    ladder point is an exceptional eigenvalue, 'exceptional:<side>:<m>';
    every other root is 'regular'.  metadata holds the ladder, zeta_star and
    ``determinant_calls``, the number of :func:`_wronskian` calls.  Energies
    are in units of omega, and zeta_star is a float in (0, 1), as
    :func:`gluing_point` reads it.
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
    calls = 0

    def scan(es):
        nonlocal calls
        calls += 1
        n, grid_call, at = es.size, not knot_samples, np.searchsorted(es, knots)
        # the grid call's trailing lanes sign the knots
        lanes = np.concatenate([es, knots + 1e-9]) if grid_call else es
        exponents = np.zeros((2, lanes.size), int)
        if grid_call:
            exponents[:, at] = seeded
        g, _log_g, bits = _wronskian(reduction, lanes, exponents, zeta_star)
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
            lane = np.flatnonzero(take)
            k = np.abs(es[lane, None] - knots).argmin(axis=1)
            reach = GUARD_REACH * np.maximum(1.0, np.abs(knots[k]))
            near = np.abs(es[lane] - knots[k]) <= reach
            lane, k = lane[near], k[near]
            g[lane], bits[lane] = knot_samples[0][k], knot_samples[1][k]
        return g, bits

    report = scan_and_refine(scan, cfg)
    roots = report.roots
    labels = tuple(next((f"exceptional:{side}:{m}" for e, side, m in ladder
                         if abs(r - e) <= REFINE_TOL), "regular") for r in roots.tolist())
    return SpectrumResult(reduction.method, roots, labels, report,
                          {"ladder": ladder, "zeta_star": zeta_star,
                           "determinant_calls": calls})
