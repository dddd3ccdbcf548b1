"""Root location for spectral determinants: grid scan, bracketing, rational step.

The scanned function returns :class:`GFunctionSample` objects rather than
bare floats so that resonances, non-convergence and breakdown regions can be
excluded and reported instead of polluting the root list.  Sign changes whose
refinement does not actually shrink |G| are classified as poles, not roots.

The scanned function maps an array of energies to one sample per energy, so
a batched determinant sees the whole grid in one call; all brackets are then
refined in lockstep, one call per round of a few energies per bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REFINE_TOL = 1e-10
MAX_BISECT = 200
#: accept a refined root only if |G| dropped this far below the bracket ends
POLE_RATIO = 1e-3
#: secant points that move less than this share of the starting bracket
#: count as settled
_SETTLED = 1e-3
#: most grid points a scan may hold: the grid is one batched call, and a
#: heun scan holds about 3 kB per point
MAX_GRID_POINTS = 10 ** 5


@dataclass(frozen=True)
class GFunctionSample:
    """One sample of the spectral determinant at trial energy E.

    g_value is the Wronskian normalized by the product of the two local
    solution-vector norms, so it is bounded, has the sign of the raw
    Wronskian, and vanishes exactly at its zeros. scale_log records the raw
    magnitude.  A nonempty flag set marks the sample unusable for bracketing.
    """

    energy: float
    g_value: float
    scale_log: float = 0.0
    flags: frozenset = frozenset()

    @property
    def ok(self) -> bool:
        return not self.flags and math.isfinite(self.g_value)


@dataclass(frozen=True)
class RootScanConfig:
    e_min: float
    e_max: float
    grid_step: float
    #: (center, half_width, reason) zones to pre-exclude, with grid points
    #: injected at both edges (used for analytically known resonances)
    split_zones: tuple = ()

    def __post_init__(self):
        if not (self.e_min <= self.e_max):
            raise ValueError("e_min must be <= e_max")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be > 0")
        if (self.e_max - self.e_min) / self.grid_step > MAX_GRID_POINTS:
            raise ValueError(f"grid_step {self.grid_step} puts more than "
                             f"{MAX_GRID_POINTS} points on [e_min, e_max]")


@dataclass(frozen=True)
class ExcludedInterval:
    lo: float
    hi: float
    reason: str

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class RootReport:
    """Refined roots plus everything that was deliberately not called a root."""

    roots: np.ndarray
    excluded: tuple = ()
    suspects: tuple = ()
    brackets: tuple = ()
    n_evaluations: int = 0


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues from one method, with their labels and scan report."""

    method: str
    energies: np.ndarray
    labels: tuple = ()
    report: RootReport | None = None
    metadata: dict = field(default_factory=dict)


def _build_grid(cfg: RootScanConfig):
    n = int(math.floor((cfg.e_max - cfg.e_min) / cfg.grid_step + 1e-9)) + 1
    pts = [cfg.e_min + i * cfg.grid_step for i in range(n)]
    if pts[-1] < cfg.e_max - 1e-15 * max(1.0, abs(cfg.e_max)):
        pts.append(cfg.e_max)
    zones = [(c, hw) for (c, hw, _r) in cfg.split_zones]
    for c, hw, _reason in cfg.split_zones:
        for edge in (c - hw, c + hw):
            if cfg.e_min < edge < cfg.e_max:
                pts.append(edge)
    pts = sorted(set(pts))
    # drop points strictly inside a pre-excluded zone
    out = []
    for x in pts:
        inside = any(c - hw < x < c + hw for c, hw in zones)
        if not inside:
            out.append(x)
    return out


def scan_and_refine(f, cfg: RootScanConfig) -> RootReport:
    """Locate zeros of the sampled determinant on [e_min, e_max].

    f maps an array of energies -> a sequence of GFunctionSample, one per
    energy.  Sign changes between consecutive valid samples are refined to
    REFINE_TOL by :func:`_refine`; flagged samples open excluded intervals
    and adjacent sign changes, or a flag met while refining, become suspects;
    sign changes whose |G| does not collapse are excluded as poles.  f is
    called once for the grid and then once per lockstep round (at most
    MAX_BISECT rounds); n_evaluations counts energies.
    """
    grid = _build_grid(cfg)
    if len(grid) == 0:
        return RootReport(np.array([]))
    samples = f(np.array(grid))
    n_evals = len(samples)

    excluded = [ExcludedInterval(c - hw, c + hw, reason)
                for (c, hw, reason) in cfg.split_zones
                if c + hw >= cfg.e_min and c - hw <= cfg.e_max]

    # contiguous runs of flagged samples -> excluded intervals
    flagged_idx = [i for i, s in enumerate(samples) if not s.ok]
    runs = []
    for i in flagged_idx:
        if runs and i == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    flag_neighbor = set()
    for lo, hi in runs:
        span_lo = grid[lo - 1] if lo > 0 else cfg.e_min
        span_hi = grid[hi + 1] if hi + 1 < len(grid) else cfg.e_max
        reasons = sorted(set().union(*[samples[i].flags for i in range(lo, hi + 1)]))
        excluded.append(ExcludedInterval(span_lo, span_hi, ",".join(reasons) or "flagged"))
        if lo > 0:
            flag_neighbor.add(lo - 1)
        if hi + 1 < len(samples):
            flag_neighbor.add(hi + 1)

    roots = []
    suspects = []
    brackets = []

    tasks = []
    for i in range(len(samples) - 1):
        s0, s1 = samples[i], samples[i + 1]
        if not (s0.ok and s1.ok):
            continue
        # do not bracket across a pre-excluded zone
        between = any(c - hw >= grid[i] - 1e-15 and c + hw <= grid[i + 1] + 1e-15
                      for c, hw, _r in cfg.split_zones)
        if between:
            continue
        if s0.g_value == 0.0:
            roots.append((grid[i], s0))
            continue
        if s0.g_value * s1.g_value >= 0.0:
            continue
        if i in flag_neighbor or (i + 1) in flag_neighbor:
            suspects.append(0.5 * (grid[i] + grid[i + 1]))
            continue
        tasks.append(_refine(grid[i], grid[i + 1], s0, s1))
        brackets.append((grid[i], grid[i + 1]))

    for kind, r, s_r, n in _lockstep(f, tasks):
        n_evals += n
        if kind == "root":
            roots.append((r, s_r))
        elif kind == "pole":
            excluded.append(ExcludedInterval(r - REFINE_TOL,
                                             r + REFINE_TOL, "pole"))
        else:
            suspects.append(r)

    # dedup and sort
    roots.sort(key=lambda t: t[0])
    merged = []
    for r, s in roots:
        if merged and abs(r - merged[-1]) <= REFINE_TOL:
            continue
        merged.append(r)
    return RootReport(np.array(merged), tuple(excluded), tuple(suspects),
                      tuple(brackets), n_evals)


def _lockstep(f, tasks: list) -> list:
    """Drive refinement generators together: each round evaluates every
    pending energy of every task in one call of f.  Returns the tasks'
    results in order."""
    results = [None] * len(tasks)
    pending = [(i, task, next(task)) for i, task in enumerate(tasks)]
    while pending:
        samples = f(np.array([x for _i, _t, xs in pending for x in xs]))
        still, k = [], 0
        for i, task, xs in pending:
            try:
                still.append((i, task, task.send(samples[k:k + len(xs)])))
            except StopIteration as stop:
                results[i] = stop.value
            k += len(xs)
        pending = still
    return results


def _refine(a: float, b: float, sa: GFunctionSample, sb: GFunctionSample):
    """Generator: yields the energies of one round and is sent their samples.
    Returns (kind, x, sample, n_evals) with kind in root|pole|suspect.

    A safeguarded rational step: each round evaluates the bracket midpoint
    and the root of the linear-fractional f ~ (u + v x)/(1 + w x) through
    the three samples with the smallest |G| seen so far (Jarratt & Nudds,
    Comput. J. 8, 62, 1965), or where that root is degenerate or outside the
    bracket the secant point of the best two; once these estimates settle
    also the estimate +- REFINE_TOL/2.  A flagged sample makes a suspect.
    The new bracket is the smallest sub-interval that keeps a sign change,
    so it at least halves every round and never needs more rounds than
    bisection.  The end of the final bracket with the smaller |G| is a root
    if |G| there fell below POLE_RATIO times the bracket-end magnitude, else
    a pole.
    """
    end_mag = max(abs(sa.g_value), abs(sb.g_value))
    best = sorted([(a, sa.g_value), (b, sb.g_value)], key=lambda t: abs(t[1]))
    settled = _SETTLED * (b - a)
    last, n_evals = math.inf, 0
    for _ in range(MAX_BISECT):
        (x2, f2), (x0, f0) = best[:2]
        s = x2 - f2 * (x2 - x0) / (f2 - f0) if f2 != f0 else math.nan
        if len(best) == 3 and best[2][1] != f0:
            # the root of the linear-fractional interpolant through all three
            x1, f1 = best[2]
            d0, d1 = (f0 - f2) / (x0 - x2), (f1 - f2) / (x1 - x2)
            den = d0 + (d0 - d1) / (f1 - f0) * f0
            if den and a < x2 - f2 / den < b:
                s = x2 - f2 / den
        xs = {0.5 * (a + b)}
        if a < s < b:
            xs.add(s)
            if abs(s - last) < settled:
                xs |= {s - 0.5 * REFINE_TOL, s + 0.5 * REFINE_TOL}
            last = s
        xs = sorted(x for x in xs if a < x < b)
        if not xs:
            break
        got = yield xs
        n_evals += len(xs)
        for x, sx in zip(xs, got):
            if not sx.ok:
                return "suspect", x, sx, n_evals
            if sx.g_value == 0.0:
                return "root", x, sx, n_evals
        best = sorted(best + [(x, sx.g_value) for x, sx in zip(xs, got)],
                      key=lambda t: abs(t[1]))[:3]
        pts = [(a, sa), *zip(xs, got), (b, sb)]
        j = min((k for k in range(len(pts) - 1)
                 if pts[k][1].g_value * pts[k + 1][1].g_value < 0.0),
                key=lambda k: pts[k + 1][0] - pts[k][0])
        (a, sa), (b, sb) = pts[j], pts[j + 1]
        if b - a <= REFINE_TOL:
            break
    r, sr = min((a, sa), (b, sb), key=lambda t: abs(t[1].g_value))
    if abs(sr.g_value) <= POLE_RATIO * end_mag:
        return "root", r, sr, n_evals
    return "pole", r, sr, n_evals
