"""Local power-series machinery for polynomial-coefficient ODEs.

Given an ODE  sum_k p_k(z) y^(k)(z) = 0  with polynomial p_k, substituting
y = sum a_n (z - z0)^n and collecting powers yields one finite-span linear
recurrence whose weights are polynomials in the index.  This module derives
that recurrence mechanically, rolls it with overflow-safe scaling, and checks
truncated solutions by direct residual insertion.

One collection of powers gives every recurrence's weights:
:func:`ode_to_recurrence` adds the Frobenius test, and
:func:`recurrence_weights` is what the two-point reductions fit in the
energy.  :func:`series_sums_lanes` is the one entry to the kernel,
``_kernels.roll_lanes``: it sums a batch of recurrences of one shape, one
lane per trial energy and expansion point, one call per leading lag whatever
Frobenius branches the lanes are seeded on, and returns the kernel's
derivative sums up to a derivative count, by default the ODE's order.  The
two-point routes read only the value and first derivative, so they ask for
one, and the convergence gate weighs each term by the growth of the first
derivative's sum only; :func:`ode_residual` inserts every derivative up to
the order into the ODE, so the audit keeps the default.  A lane's sums do not
depend on the batch it is rolled in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalError, ValidationError
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
            raise NumericalError("leading-derivative polynomial must not vanish identically")
        for p in ps:
            if not all(math.isfinite(c) for c in p):
                raise NumericalError("non-finite ODE coefficient")

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    @functools.cached_property
    def _recentered(self) -> tuple:
        """Coefficient arrays rewritten in t = z - z0, computed once per ODE
        and read-only, as ode_to_recurrence and ode_residual share them."""
        out = tuple(ptrim(pshift(p, self.z0)) for p in self.polys)
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

    Raises ValidationError unless z0 is an ordinary or regular singular
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
            raise ValidationError(
                f"expansion point {ode.z0} is an irregular singularity "
                f"(p_{k} vanishes to order {ok} < {lead_ord - (s - k)})")

    weights = _collect_weights(polys)
    j_lead = 0
    while j_lead < weights.shape[0] and not np.any(np.abs(weights[j_lead]) > 0):
        j_lead += 1
    if j_lead == weights.shape[0]:
        raise ValueError("empty recurrence")
    return RecurrenceSpec(weights=weights, order=s, j_lead=j_lead, z0=ode.z0)


def series_sums_lanes(weights, x, exponent, derivs=None):
    """Sum a batch of recurrences of one shape, one lane per trial energy and
    expansion point.

    ``weights[i]`` holds lane i's recurrence weights, laid out as
    :attr:`RecurrenceSpec.weights` of an ODE of order weights.shape[2] - 1;
    lane i sums at the offset x[i] from its expansion point, strictly inside
    the convergence disk, and a ValueError refuses x[i] = 0.  Each expansion
    point must be a regular singular or ordinary point: the Frobenius test
    of :func:`ode_to_recurrence` is not repeated here.  Lane i is seeded on
    the Frobenius branch (z - z0)^exponent[i]: a_e = 1 and every coefficient
    below it 0.  Exponent 0 is the regular seed; a higher one is meaningful
    only at a resonant index, where the skipped equations hold by
    themselves.  Lanes of one leading lag, mixed branches included, are
    rolled in one kernel call.

    ``derivs`` (default: the order) is the highest derivative summed; the
    kernel's convergence gate weighs each term by the growth of that sum,
    so a caller that reads fewer derivatives asks for fewer and rolls fewer
    terms.

    Returns (sums, scale_log, flags): sums[i, k] * exp(scale_log[i]) is
    sum_n n(n-1)..(n-k+1) a_n x[i]^n for k = 0..derivs, so the k-th
    derivative of lane i is sums[i, k] / x[i]^k on that scale.
    """
    order = weights.shape[2] - 1
    derivs = order if derivs is None else derivs
    x = np.asarray(x, dtype=np.float64)
    if np.any(x == 0.0):
        raise ValueError("a series is summed away from its expansion point, "
                         "got an offset of 0")
    exponent = np.asarray(exponent, dtype=np.int64)
    # the first lag with a nonzero weight: the first nonzero of the lane's
    # flattened [lag, degree] weights, divided by the degrees per lag
    n_lanes, n_lags, n_deg = weights.shape
    j_lead = np.argmax((weights != 0.0).reshape(n_lanes, n_lags * n_deg), axis=1) // n_deg

    def roll(j, weights, x, exponent):
        n_seed = np.maximum(order - j, exponent + 1)
        seeds = np.zeros((n_seed.size, n_seed.max(initial=0)))
        seeds[np.arange(n_seed.size), exponent] = 1.0
        sums, scale_log, _n, flags, _tail = _kernels.roll_lanes(
            weights, j, order, seeds, n_seed, x, DEFAULT_MAX_N, DEFAULT_TAIL_TOL,
            derivs)
        return sums, scale_log, flags

    if np.all(j_lead == j_lead[:1]):  # one leading lag, or no lane: no masks
        return roll(int(j_lead.max(initial=0)), weights, x, exponent)
    sums = np.empty((x.size, derivs + 1))
    scale_log = np.empty(x.shape)
    flags = np.empty(x.shape, dtype=np.int64)
    for j in np.unique(j_lead).tolist():
        sel = j_lead == j
        sums[sel], scale_log[sel], flags[sel] = roll(j, weights[sel], x[sel],
                                                     exponent[sel])
    return sums, scale_log, flags


def ode_residual(ode: PolyOde, x: float, sums, scale_log: float) -> float:
    """|sum_k p_k(x) s^(k)(x)| / max(1, |s(x)|) at the point x, from one
    lane's derivative sums as :func:`series_sums_lanes` returns them for the
    offset x - ode.z0."""
    x_rel = x - ode.z0
    derivs = [float(d) / x_rel ** k for k, d in enumerate(sums)]
    num = 0.0
    for c, d in zip(ode._recentered, derivs):
        num += pval(c, x_rel) * d
    return abs(num) / max(math.exp(-scale_log), abs(derivs[0]))
