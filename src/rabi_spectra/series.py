"""Local power-series machinery for polynomial-coefficient ODEs.

Given an ODE  sum_k p_k(z) y^(k)(z) = 0  with polynomial p_k, substituting
y = sum a_n (z - z0)^n and collecting powers yields one finite-span linear
recurrence whose weights are polynomials in the index.  This module derives
that recurrence mechanically, rolls it with overflow-safe scaling, and checks
truncated solutions by direct residual insertion.

One collection of powers gives every recurrence's weights:
:func:`ode_to_recurrence` adds the Frobenius test, and
:func:`recurrence_weights` is what the two-point reductions fit in the
energy.  :func:`series_eval` sums one recurrence at one point, a batch of
one lane, and keeps the kernel's derivative sums up to the ODE's order,
which :func:`ode_residual` inserts into the ODE.  :func:`series_sums_lanes`
sums a batch of recurrences of one shape, one lane per trial energy and
expansion point, one call per leading lag whatever Frobenius branches the
lanes are seeded on.  Both run the one kernel, ``_kernels.roll_lanes``,
and a lane's sums do not depend on the batch it is rolled in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    """Truncated local series summed at x: ``sums[k] * exp(scale_log)`` is
    sum_n n(n-1)..(n-k+1) a_n (x - z0)^n for k = 0..order."""

    z0: float
    x: float
    sums: np.ndarray
    scale_log: float
    n_used: int
    flags: int

    @property
    def converged(self) -> bool:
        return not (self.flags & _kernels.FLAG_NONCONVERGED)

    def derivatives(self) -> list:
        """s^(k)(x), k = 0..order, as :class:`ScaledValue` of one scale."""
        x_rel = self.x - self.z0
        return [ScaledValue(float(d) / x_rel ** k, self.scale_log)
                for k, d in enumerate(self.sums)]


def _collect_weights(polys) -> np.ndarray:
    """Recurrence weights [K + 1, order + 1] of coefficient arrays already
    centred at the expansion point, K = order + longest length - 1; linear in
    those coefficients."""
    s = len(polys) - 1
    K = s + max(len(c) for c in polys) - 1
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


def recurrence_weights(polys, z0: float) -> np.ndarray:
    """The weights :func:`ode_to_recurrence` derives at z0 for the ODE with
    coefficient arrays ``polys`` (trailing zeros dropped), without its
    Frobenius test."""
    return _collect_weights([pshift(c, z0) for c in polys])


def ode_to_recurrence(ode: PolyOde) -> RecurrenceSpec:
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

    weights = _collect_weights(polys)
    j_lead = 0
    while j_lead < weights.shape[0] and not np.any(np.abs(weights[j_lead]) > 0):
        j_lead += 1
    if j_lead == weights.shape[0]:
        raise ValueError("empty recurrence")
    return RecurrenceSpec(weights=weights, order=s, j_lead=j_lead, z0=ode.z0)


def default_seeds(rec: RecurrenceSpec) -> np.ndarray:
    seeds = np.zeros(max(rec.n_free, 1))
    seeds[0] = 1.0
    return seeds


def series_sums_lanes(weights, x, exponent):
    """:func:`series_eval` for a batch of recurrences of one shape.

    ``weights[i]`` holds lane i's recurrence weights, laid out as
    :attr:`RecurrenceSpec.weights` of an ODE of order weights.shape[2] - 1;
    lane i sums at x[i] from its expansion point, strictly inside the
    convergence disk and x[i] != 0.  Each expansion point must be a regular
    singular or ordinary point: the Frobenius test of
    :func:`ode_to_recurrence` is not repeated here.  Lane i is seeded on the
    Frobenius branch (z - z0)^exponent[i]: a_e = 1 and every coefficient
    below it 0.  Exponent 0 is series_eval's default seed; a higher one is
    meaningful only at a resonant index, where the skipped equations hold by
    themselves.  Lanes of one leading lag, mixed branches included, are
    rolled in one kernel call.

    Returns (value, derivative, scale_log, flags) arrays; the value of lane i
    is value[i] * exp(scale_log[i]), its derivative likewise.
    """
    order = weights.shape[2] - 1
    x = np.asarray(x, dtype=np.float64)
    exponent = np.asarray(exponent, dtype=np.int64)
    j_lead = np.argmax(np.any(weights != 0.0, axis=2), axis=1)

    value = np.empty(x.shape)
    deriv = np.empty(x.shape)
    scale_log = np.empty(x.shape)
    flags = np.empty(x.shape, dtype=np.int64)
    for j in np.unique(j_lead).tolist():
        sel = j_lead == j
        n_seed = np.maximum(order - j, exponent[sel] + 1)
        seeds = np.zeros((n_seed.size, n_seed.max()))
        seeds[np.arange(n_seed.size), exponent[sel]] = 1.0
        ds, scale_log[sel], _n, flags[sel], _tail = _kernels.roll_lanes(
            weights[sel], j, order, seeds, n_seed, x[sel], DEFAULT_MAX_N,
            DEFAULT_TAIL_TOL)
        value[sel] = ds[:, 0]
        deriv[sel] = ds[:, 1] / x[sel]
    return value, deriv, scale_log, flags


def series_eval(rec: RecurrenceSpec, x: float,
                max_n: int = DEFAULT_MAX_N, tail_tol: float = DEFAULT_TAIL_TOL,
                seeds: np.ndarray | None = None):
    """Sum the local series and its first derivative at x != rec.z0.

    Returns (value, derivative, SeriesSolution) with value/derivative as
    :class:`ScaledValue`; the solution keeps every derivative sum up to the
    recurrence's order, and flags non-convergence and resonances.  The
    caller is responsible for x lying strictly inside the convergence disk.
    """
    if seeds is None:
        seeds = default_seeds(rec)
    x_rel = x - rec.z0
    if x_rel == 0.0:
        raise ValueError(f"series_eval sums away from the expansion point, "
                         f"got x = z0 = {rec.z0}")
    ds, slog, n_used, flags, _tail = _kernels.roll(
        rec.weights, rec.j_lead, rec.order, seeds, x_rel, max_n, tail_tol)
    val = ScaledValue(float(ds[0]), slog)
    der = ScaledValue(float(ds[1]) / x_rel, slog)
    sol = SeriesSolution(rec.z0, x, ds, slog, n_used, flags)
    return val, der, sol


def ode_residual(ode: PolyOde, sol: SeriesSolution) -> float:
    """|sum_k p_k(x) s^(k)(x)| / max(1, |s(x)|) at the solution's x, from
    the kernel's derivative sums."""
    x_rel = sol.x - ode.z0
    derivs = [d.mantissa for d in sol.derivatives()]
    num = 0.0
    for c, d in zip(ode._recentered, derivs):
        num += pval(c, x_rel) * d
    return abs(num) / max(math.exp(-sol.scale_log), abs(derivs[0]))
