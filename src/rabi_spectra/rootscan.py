"""Root location for spectral determinants: grid scan, bracketing, rational step.

The scanned function maps an array of energies to arrays (g, flags), one
value and one set of flag bits per energy, so a batched determinant sees the
whole grid in one call; all brackets are then refined in lockstep, one call
per round of a few energies per bracket.  A caller's knots are grid points
like the others.  Flagged samples (non-convergence, breakdown) are excluded
and reported instead of polluting the root list.  Sign changes whose
refinement does not actually shrink |G| are classified as poles, not roots.
:data:`FLAG_SETS` names the flag bits for the public :class:`GFunctionSample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ValidationError
from .params import real

REFINE_TOL = 1e-10
MAX_ROUNDS = 200
#: accept a refined root only if |G| dropped this far below the bracket ends
POLE_RATIO = 1e-3
#: secant points that move less than this share of the starting bracket
#: count as settled
_SETTLED = 1e-3
#: most grid points a scan may hold: the grid is one batched call, and a
#: heun scan holds about 3 kB per point
MAX_GRID_POINTS = 10 ** 5
#: flag bits of a lane whose value and derivative vanish together on one
#: side, and of a first-kind lane glued too close to a singularity
FLAG_DEGENERATE, FLAG_NEAR_SINGULAR = 8, 16
#: sample flags of each combination of the kernel's and the two bits above
FLAG_SETS = tuple(
    frozenset(name for bit, name in (
        (_kernels.FLAG_NONCONVERGED, "series_nonconverged"),
        (_kernels.FLAG_RESONANT_COMPATIBLE, "near_resonance"),
        (_kernels.FLAG_RESONANT_INCOMPATIBLE, "near_resonance"),
        (FLAG_DEGENERATE, "degenerate_series"),
        (FLAG_NEAR_SINGULAR, "near_singular_eval_point")) if bits & bit)
    for bits in range(2 * FLAG_NEAR_SINGULAR))


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
    """A scan window: the one rule for every window a spectrum reads.

    e_min, e_max and grid_step must be finite real numbers, e_min <= e_max,
    grid_step > 0, and the grid may hold at most MAX_GRID_POINTS points;
    anything else raises ValidationError naming the field.
    """

    e_min: float
    e_max: float
    grid_step: float
    #: energies put on the grid; a grid point at the same energy gives way
    knots: tuple = ()

    def __post_init__(self):
        for name in ("e_min", "e_max", "grid_step"):
            if not math.isfinite(real(name, getattr(self, name))):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.e_min <= self.e_max:
            raise ValidationError(f"e_min {self.e_min} exceeds e_max {self.e_max}")
        if not self.grid_step > 0:
            raise ValidationError(f"grid_step must be > 0, got {self.grid_step}")
        if not (self.e_max - self.e_min) / self.grid_step <= MAX_GRID_POINTS:
            raise ValidationError(f"grid_step {self.grid_step} puts more than "
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


def usable(g: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """No flag set and g finite: the array form of GFunctionSample.ok."""
    return (flags == 0) & np.isfinite(g)


def same_energy(a, b):
    """Whether energies a and b are one grid point: 1e-15 max(1, |b|) apart."""
    return np.abs(a - b) <= 1e-15 * np.maximum(1.0, np.abs(b))


def _build_grid(cfg: RootScanConfig) -> np.ndarray:
    """Grid points from e_min in steps of grid_step, e_max and the knots on
    [e_min, e_max]; a point at the same energy as a knot gives way to it."""
    n = int(math.floor((cfg.e_max - cfg.e_min) / cfg.grid_step + 1e-9)) + 1
    pts = cfg.e_min + np.arange(n) * cfg.grid_step
    if pts[-1] < cfg.e_max and not same_energy(pts[-1], cfg.e_max):
        pts = np.append(pts, cfg.e_max)
    knots = np.array(cfg.knots, dtype=float)
    knots = knots[(cfg.e_min <= knots) & (knots <= cfg.e_max)]
    pts = pts[~same_energy(pts[:, None], knots).any(axis=1)]
    return np.sort(np.concatenate([pts, knots]))


def scan_and_refine(f, cfg: RootScanConfig) -> RootReport:
    """Locate zeros of the sampled determinant on [e_min, e_max].

    f maps an array of energies -> (g, flags), two arrays with one entry per
    energy (see :func:`usable`).  Sign changes between consecutive usable
    samples are refined to REFINE_TOL by :func:`_refine`; runs of unusable
    samples open excluded intervals named after their flags ('flagged' if
    they carry none), and adjacent sign changes, or an unusable sample met
    while refining, become suspects; sign changes whose |G| does not
    collapse are excluded as poles.  f is called once for the sorted grid,
    which holds the knots exactly, and then once per lockstep round (at
    most MAX_ROUNDS rounds, strictly inside grid cells); n_evaluations
    counts the energies f is asked for.
    """
    grid = _build_grid(cfg)
    g, flags = f(grid)
    n_evals = g.size
    x = grid.tolist()

    # bad[i + 1]: sample i is unusable; its runs [lo, stop) -> excluded intervals
    bad = np.concatenate([[False], ~usable(g, flags), [False]])
    step = np.diff(bad.astype(int))
    excluded = [ExcludedInterval(
        x[lo - 1] if lo > 0 else cfg.e_min, x[stop] if stop < len(x) else cfg.e_max,
        ",".join(sorted(FLAG_SETS[np.bitwise_or.reduce(flags[lo:stop])])) or "flagged")
        for lo, stop in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1))]

    # cells [i, i + 1] between usable samples
    cell = ~bad[1:-2] & ~bad[2:-1]
    # an exact zero is a root at any usable sample, the window's ends included
    zero = ~bad[1:-1] & (g == 0.0)
    change = cell & (g[:-1] * g[1:] < 0.0)
    # a sign change next to an unusable sample (i - 1 or i + 2) is a suspect
    near_bad = bad[:-3] | bad[3:]
    roots = grid[zero].tolist()
    suspects = (0.5 * (grid[:-1] + grid[1:]))[change & near_bad].tolist()
    cells = np.flatnonzero(change & ~near_bad).tolist()
    brackets = [(x[i], x[i + 1]) for i in cells]
    gs = g.tolist()
    tasks = [_refine(x[i], x[i + 1], gs[i], gs[i + 1]) for i in cells]

    for kind, r, n in _lockstep(f, tasks):
        n_evals += n
        if kind == "root":
            roots.append(r)
        elif kind == "pole":
            excluded.append(ExcludedInterval(r - REFINE_TOL,
                                             r + REFINE_TOL, "pole"))
        else:
            suspects.append(r)

    # dedup and sort
    merged = []
    for r in sorted(roots):
        if merged and abs(r - merged[-1]) <= REFINE_TOL:
            continue
        merged.append(r)
    return RootReport(np.array(merged), tuple(excluded), tuple(suspects),
                      tuple(brackets), n_evals)


def _lockstep(f, tasks: list) -> list:
    """Drive refinement generators together: each round evaluates every
    pending energy of every task in one call of f and sends each task the
    values and usable bits of the energies it yielded.  Returns the tasks'
    results in order; a task may return before its first round."""
    results = [None] * len(tasks)
    replies = [None] * len(tasks)  # what each task is sent next
    pending = list(range(len(tasks)))
    while pending:
        asked = []
        for i in pending:
            try:
                asked.append((i, tasks[i].send(replies[i])))
            except StopIteration as stop:
                results[i] = stop.value
        if not asked:
            break
        g, flags = f(np.array([x for _i, xs in asked for x in xs]))
        gs, ok = g.tolist(), usable(g, flags).tolist()
        k = 0
        for i, xs in asked:
            replies[i] = (gs[k:k + len(xs)], ok[k:k + len(xs)])
            k += len(xs)
        pending = [i for i, _xs in asked]
    return results


def _refine(a: float, b: float, ga: float, gb: float):
    """Generator: yields the energies of one round and is sent their values
    and usable bits.  Returns (kind, x, n_evals) with kind in
    root|pole|suspect; ga and gb are the values at the bracket ends a, b.

    A safeguarded rational step: each round evaluates the bracket midpoint
    and the estimate s, the root of the linear-fractional
    f ~ (u + v x)/(1 + w x) through the three samples with the smallest |G|
    seen so far (Jarratt & Nudds, Comput. J. 8, 62, 1965), or where that
    root is degenerate or outside the bracket the secant point of the best
    two.  Beside s it evaluates s +- max(1e-2 |s - previous s|,
    REFINE_TOL/2), so a good estimate is bracketed at once; once s moves
    less than _SETTLED of the starting bracket it has settled, and the pair
    sits at s +- REFINE_TOL/2.  Where s falls outside the bracket, or the
    last round cut the bracket less than 4 times, the quarter points join
    the midpoint.  An unusable sample makes a suspect.  The new bracket is
    the smallest sub-interval that keeps a sign change, so it at least
    halves every round and never needs more rounds than bisection.  The end
    of the final bracket with the smaller |G| is a root if |G| there fell
    below POLE_RATIO times the bracket-end magnitude, else a pole.
    """
    end_mag = max(abs(ga), abs(gb))
    best = sorted([(a, ga), (b, gb)], key=lambda t: abs(t[1]))
    settle_step = _SETTLED * (b - a)
    last, shrunk, n_evals = math.inf, True, 0
    for _ in range(MAX_ROUNDS):
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
        if not (a < s < b and shrunk):
            xs |= {0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b}
        if a < s < b:
            step = abs(s - last)  # inf in the first round: no pair yet
            done = step < settle_step
            d = 0.5 * REFINE_TOL if done else max(1e-2 * step, 0.5 * REFINE_TOL)
            xs |= {s - d, s, s + d}
            last = s
        xs = sorted(x for x in xs if a < x < b)
        if not xs:
            break
        gs, ok = yield xs
        n_evals += len(xs)
        for x, gx, okx in zip(xs, gs, ok):
            if not okx:
                return "suspect", x, n_evals
            if gx == 0.0:
                return "root", x, n_evals
        best = sorted(best + list(zip(xs, gs)), key=lambda t: abs(t[1]))[:3]
        pts = [(a, ga), *zip(xs, gs), (b, gb)]
        j = min((k for k in range(len(pts) - 1)
                 if pts[k][1] * pts[k + 1][1] < 0.0),
                key=lambda k: pts[k + 1][0] - pts[k][0])
        width = b - a
        (a, ga), (b, gb) = pts[j], pts[j + 1]
        if b - a <= REFINE_TOL:
            break
        shrunk = b - a <= 0.25 * width
    r, gr = min((a, ga), (b, gb), key=lambda t: abs(t[1]))
    return ("root" if abs(gr) <= POLE_RATIO * end_mag else "pole"), r, n_evals
