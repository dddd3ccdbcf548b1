"""Local power-series machinery for polynomial-coefficient ODEs.

Given an ODE  sum_k p_k(z) y^(k)(z) = 0  with polynomial p_k, substituting
y = sum a_n (z - z0)^n and collecting powers yields one finite-span linear
recurrence whose weights are polynomials in the index.  This module derives
that recurrence mechanically, rolls it with overflow-safe scaling, and checks
truncated solutions by direct residual insertion.

Two entry points sum series.  :func:`series_eval` takes one recurrence and
keeps its coefficients (residual checks).
:func:`series_sums_lanes` takes a batch of ODEs of one polynomial shape, one
lane per trial energy and expansion point: the weights are linear in the ODE
coefficients, so they come from a basis derived once per (shape, z0), and
the lanes are rolled by ``_kernels.roll_lanes``, one call per leading lag
whatever Frobenius branches the lanes are seeded on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import IrregularPointError, NumericalError
from .polyops import falling_factorial_poly, poly, pshift, ptrim, pval

DEFAULT_TAIL_TOL = 1e-14
DEFAULT_MAX_N = 2000


@dataclass(frozen=True)
class PolyOde:
    """ODE sum_k p_k(z) y^(k) = 0 with polynomial coefficients.

    ``polys[k]`` is the ascending coefficient array multiplying y^(k);
    ``z0`` is the expansion point for series work.
    """

    polys: tuple
    z0: float = 0.0

    def __post_init__(self):
        ps = tuple(tuple(float(c) for c in poly(p)) for p in self.polys)
        object.__setattr__(self, "polys", ps)
        if not any(abs(c) > 0 for c in ps[-1]):
            raise ValueError("leading-derivative polynomial must not vanish identically")
        for p in ps:
            if not all(math.isfinite(c) for c in p):
                raise NumericalError("non-finite ODE coefficient")

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    def recentered(self) -> list:
        """Coefficient arrays rewritten in t = z - z0."""
        return [c.copy() for c in self._recentered]

    @functools.cached_property
    def _recentered(self) -> tuple:
        """recentered(), computed once per ODE and read-only, as
        ode_to_recurrence and ode_residual share it."""
        out = tuple(ptrim(pshift(p, self.z0), 1e-300) for p in self.polys)
        for c in out:
            c.setflags(write=False)
        return out


@dataclass(frozen=True)
class RecurrenceSpec:
    """Finite-span recurrence  sum_j W_j(m) a_{m+order-j} = 0.

    ``weights[j, d]`` is the d-th power coefficient of the polynomial weight
    W_j(m) attached to lag j (j = 0 is the formal newest term).  ``j_lead``
    is the first lag with a nonzero weight; equation m then determines
    a_{m + order - j_lead}, and ``order - j_lead`` seed coefficients are free.
    """

    weights: np.ndarray
    order: int
    j_lead: int
    z0: float = 0.0
    provenance: str = ""

    @property
    def span(self) -> int:
        """Number of coefficients coupled by one equation (k-term recurrence)."""
        used = [j for j in range(self.weights.shape[0])
                if np.any(np.abs(self.weights[j]) > 0)]
        return used[-1] - used[0] + 1 if used else 0

    @property
    def n_free(self) -> int:
        return self.order - self.j_lead

    def leading_at(self, n: int) -> float:
        """Weight multiplying the newest coefficient when computing a_n."""
        return float(pval(self.weights[self.j_lead], n - self.n_free))


@dataclass(frozen=True)
class ScaledValue:
    """Real number stored as mantissa * exp(log_scale)."""

    mantissa: float
    log_scale: float = 0.0

    @property
    def sign(self) -> float:
        return math.copysign(1.0, self.mantissa) if self.mantissa != 0 else 0.0

    def log_abs(self) -> float:
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def to_float(self) -> float:
        if self.mantissa == 0.0:
            return 0.0
        la = self.log_abs()
        if la > 700.0:
            return math.inf * self.sign
        if la < -700.0:
            return 0.0
        return self.mantissa * math.exp(self.log_scale)


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated local series with per-coefficient scale bookkeeping."""

    z0: float
    coeff_mantissa: np.ndarray
    coeff_log: np.ndarray
    n_used: int
    tail_rel: float
    flags: int
    provenance: str = ""
    recurrence: RecurrenceSpec | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return not (self.flags & _kernels.FLAG_NONCONVERGED)

    def coefficient(self, n: int) -> float:
        """a_n as a plain float (may over/underflow for extreme scales)."""
        return ScaledValue(float(self.coeff_mantissa[n]),
                           float(self.coeff_log[n])).to_float()

    def coefficients(self) -> np.ndarray:
        return np.array([self.coefficient(n) for n in range(self.n_used + 1)])


def _collect_weights(polys, K: int) -> np.ndarray:
    """Recurrence weights [K + 1, order + 1] of coefficient arrays already
    centred at the expansion point; linear in those coefficients."""
    s = len(polys) - 1
    weights = np.zeros((K + 1, s + 1))
    for k, c in enumerate(polys):
        for i, cki in enumerate(c):
            if cki == 0.0:
                continue
            j = s - k + i  # lag: this term couples a_{m+k-i} = a_{m+s-j}
            ff = falling_factorial_poly(float(s - j), k)
            w = poly(cki) if ff.size == 0 else cki * ff
            weights[j, :w.size] += w
    return weights


def ode_to_recurrence(ode: PolyOde, provenance: str = "") -> RecurrenceSpec:
    """Derive the exact recurrence at ode.z0 by substitution and collection.

    Raises IrregularPointError unless z0 is an ordinary or regular singular
    point (Frobenius condition: ord(p_k) >= ord(p_s) - (s - k) at z0).
    """
    polys = ode._recentered
    s = ode.order

    def vanish_order(c):
        nz = np.nonzero(np.abs(c) > 0)[0]
        return int(nz[0]) if nz.size else None

    lead_ord = vanish_order(polys[s])
    for k in range(s):
        ok = vanish_order(polys[k])
        if ok is None:
            continue
        if ok < lead_ord - (s - k):
            raise IrregularPointError(
                f"expansion point {ode.z0} is an irregular singularity "
                f"(p_{k} vanishes to order {ok} < {lead_ord - (s - k)})")

    K = s + max(len(c) - 1 for c in polys)
    weights = _collect_weights(polys, K)
    j_lead = 0
    while j_lead <= K and not np.any(np.abs(weights[j_lead]) > 0):
        j_lead += 1
    if j_lead > K:
        raise ValueError("empty recurrence")
    return RecurrenceSpec(weights=weights, order=s, j_lead=j_lead,
                          z0=ode.z0, provenance=provenance)


def default_seeds(rec: RecurrenceSpec) -> np.ndarray:
    seeds = np.zeros(max(rec.n_free, 1))
    seeds[0] = 1.0
    return seeds


def _roll(rec: RecurrenceSpec, x_rel: float, max_n: int, tail_tol: float,
          seeds: np.ndarray):
    return _kernels.roll(np.ascontiguousarray(rec.weights, dtype=np.float64),
                         rec.j_lead, rec.order,
                         np.ascontiguousarray(seeds, dtype=np.float64),
                         float(x_rel), int(max_n), float(tail_tol))


@functools.lru_cache(maxsize=None)
def _weight_basis(shape: tuple, z0: float) -> np.ndarray:
    """basis[c] = recurrence weights at z0 of the ODE whose only nonzero
    coefficient is the c-th of its polynomials (lengths ``shape``) laid end
    to end.  An ODE of that shape with coefficients C has the weights
    sum_c C[c] * basis[c]."""
    K = len(shape) - 1 + max(shape) - 1
    basis = []
    for k, n_k in enumerate(shape):
        for i in range(n_k):
            polys = [np.zeros(n) for n in shape]
            polys[k][i] = 1.0
            basis.append(_collect_weights([pshift(c, z0) for c in polys], K))
    out = np.array(basis)
    out.setflags(write=False)
    return out


def _trim_columns(c: np.ndarray) -> np.ndarray:
    """Drop trailing columns that vanish in every lane (keep at least one)."""
    live = np.flatnonzero(np.any(c != 0.0, axis=0))
    return c[:, :live[-1] + 1] if live.size else c[:, :1]


def series_sums_lanes(polys, z0, x, exponent):
    """:func:`series_eval` for a batch of ODEs.

    ``polys[k]`` is a [lanes, len_k] array whose row i holds lane i's
    coefficients of y^(k); lane i expands about z0[i] and sums at x[i],
    strictly inside the convergence disk and x[i] != z0[i].  Each z0 must be
    a regular singular or ordinary point: the Frobenius test of
    :func:`ode_to_recurrence` is not repeated here.  Trailing coefficients
    that vanish in every lane are dropped, as ode_to_recurrence drops them.
    Lane i is seeded on the Frobenius branch (z - z0)^exponent[i]: a_e = 1
    and every coefficient below it 0.  Exponent 0 is series_eval's default
    seed; a higher one is meaningful only at a resonant index, where the
    skipped equations hold by themselves.  Lanes of one leading lag, mixed
    branches included, are rolled in one kernel call.

    Returns (value, derivative, scale_log, flags) arrays; the value of lane i
    is value[i] * exp(scale_log[i]), its derivative likewise.
    """
    polys = [_trim_columns(np.asarray(c, dtype=np.float64)) for c in polys]
    coeffs = np.concatenate(polys, axis=1)
    shape = tuple(c.shape[1] for c in polys)
    order = len(shape) - 1
    z0 = np.asarray(z0, dtype=np.float64)
    x_rel = np.asarray(x, dtype=np.float64) - z0
    exponent = np.asarray(exponent, dtype=np.int64)
    weights = np.empty((coeffs.shape[0], len(shape) + max(shape) - 1, order + 1))
    for z in np.unique(z0):
        sel = z0 == z
        basis = _weight_basis(shape, float(z))
        w = coeffs[sel, 0, None, None] * basis[0]
        for c in range(1, basis.shape[0]):  # fixed order: lanes do not interact
            w = w + coeffs[sel, c, None, None] * basis[c]
        weights[sel] = w
    j_lead = np.argmax(np.any(weights != 0.0, axis=2), axis=1)

    value = np.empty(x_rel.shape)
    deriv = np.empty(x_rel.shape)
    scale_log = np.empty(x_rel.shape)
    flags = np.empty(x_rel.shape, dtype=np.int64)
    for j in np.unique(j_lead).tolist():
        sel = j_lead == j
        n_seed = np.maximum(order - j, exponent[sel] + 1)
        seeds = np.zeros((n_seed.size, n_seed.max()))
        seeds[np.arange(n_seed.size), exponent[sel]] = 1.0
        ds, scale_log[sel], _n, flags[sel], _tail = _kernels.roll_lanes(
            weights[sel], j, order, seeds, n_seed, x_rel[sel], DEFAULT_MAX_N,
            DEFAULT_TAIL_TOL)
        value[sel] = ds[:, 0]
        deriv[sel] = ds[:, 1] / x_rel[sel]
    return value, deriv, scale_log, flags


def series_eval(rec: RecurrenceSpec, x: float,
                max_n: int = DEFAULT_MAX_N, tail_tol: float = DEFAULT_TAIL_TOL,
                seeds: np.ndarray | None = None):
    """Sum the local series and its first derivative at x.

    Returns (value, derivative, SeriesSolution) with value/derivative as
    :class:`ScaledValue`; non-convergence and resonances are flagged in the
    solution.  The caller is responsible for x lying strictly inside the
    convergence disk.
    """
    if seeds is None:
        seeds = default_seeds(rec)
    x_rel = x - rec.z0
    if x_rel == 0.0:
        # expansion point: value a0, derivative a1; generate the coefficients
        # in plain a-form (x=1 rollout, no convergence gate)
        n_min = max(len(seeds) + rec.span + 2, max_n)
        ds, slog, n_used, flags, cm, cl, tail = _roll(rec, 1.0, n_min, 0.0, seeds)
        sol = SeriesSolution(rec.z0, cm, cl, n_used, tail, flags,
                             rec.provenance, rec)
        val = ScaledValue(float(cm[0]), float(cl[0]))
        der = (ScaledValue(float(cm[1]), float(cl[1]))
               if n_used >= 1 else ScaledValue(0.0))
        return val, der, sol
    ds, slog, n_used, flags, cm, cl, tail = _roll(rec, x_rel, max_n, tail_tol, seeds)
    val = ScaledValue(float(ds[0]), slog)
    der = ScaledValue(float(ds[1]) / x_rel, slog)
    sol = SeriesSolution(rec.z0, cm[:n_used + 1], cl[:n_used + 1], n_used,
                         tail, flags, rec.provenance, rec)
    return val, der, sol


def solution_derivatives(sol: SeriesSolution, x: float, order: int):
    """ScaledValue list of s^(k)(x), k = 0..order, from stored coefficients."""
    n = np.arange(sol.n_used + 1, dtype=float)
    cm = sol.coeff_mantissa[:sol.n_used + 1]
    cl = sol.coeff_log[:sol.n_used + 1].copy()
    x_rel = x - sol.z0
    out = []
    if x_rel == 0.0:
        for k in range(order + 1):
            if k <= sol.n_used:
                out.append(ScaledValue(float(cm[k]) * math.factorial(k),
                                       float(cl[k])))
            else:
                out.append(ScaledValue(0.0))
        return out
    lx = math.log(abs(x_rel))
    term_log = cl + n * lx
    base = float(np.max(term_log[np.abs(cm) > 0], initial=-745.0))
    scaled = cm * np.exp(term_log - base) * np.sign(x_rel) ** n
    ff = np.ones_like(n)
    for k in range(order + 1):
        acc = float(np.sum(ff * scaled))
        out.append(ScaledValue(acc / x_rel ** k, base))
        ff = ff * (n - k)
    return out


def ode_residual(ode: PolyOde, sol: SeriesSolution, x: float) -> float:
    """|sum_k p_k(x) s^(k)(x)| / max(1, |s(x)|) from the truncated series."""
    x_rel = x - ode.z0
    derivs = solution_derivatives(sol, x, ode.order)
    polys = ode._recentered
    base = max(d.log_scale for d in derivs)
    num = 0.0
    for k, d in enumerate(derivs):
        num += pval(polys[k], x_rel) * d.mantissa * math.exp(d.log_scale - base)
    s0 = abs(derivs[0].mantissa) * math.exp(derivs[0].log_scale - base)
    denom = max(math.exp(-base), s0)
    return abs(num) / denom
