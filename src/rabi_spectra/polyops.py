"""Small helpers for real polynomials and polynomial-coefficient ODE operators.

Polynomials are 1-D float arrays of ascending coefficients.  A differential
operator is a list ``ops[k]`` = polynomial multiplying d^k/dz^k.

The arithmetic helpers are bit-identical to their counterparts in NumPy's
polynomial package (``polyadd``, ``polymul``, ``polyder``, ``polyval`` and
``polydiv``): the same floating-point operations in the same order, and the
same trimming of trailing exact zeros from the inputs and the result, so
every table, recurrence and residual the audit prints is unchanged to the
last bit.  ``tests/test_polyops.py`` holds that equality.  The library does
not call that package because the operands here have one to seven
coefficients, and its per-call conversion and type checks (``as_series``,
``common_type``) then cost several times the arithmetic.  For the same
reason :func:`ptrim`, :func:`polys_equal` and the audit trim and compare
on Python floats, by one rule that equals the array forms bit for bit.
"""

from __future__ import annotations

import functools
import math
from itertools import zip_longest

import numpy as np


_FLOAT = np.dtype(float)


def poly(coeffs) -> np.ndarray:
    """coeffs as a 1-D float array; such an array is returned unchanged."""
    if type(coeffs) is np.ndarray and coeffs.dtype is _FLOAT and coeffs.ndim == 1:
        return coeffs
    c = np.asarray(coeffs, dtype=float)
    return c if c.ndim else c.reshape(1)


def _trimseq(c: np.ndarray) -> np.ndarray:
    """Drop trailing exact zeros; keep at least the first coefficient."""
    n = c.size
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _series(a) -> np.ndarray:
    """A float coefficient array without trailing zeros; empty is an error."""
    c = poly(a)
    if c.size == 0:
        raise ValueError("Coefficient array is empty")
    return _trimseq(c)


def _trimmed(c, tol: float) -> list:
    """c as Python floats (a list is taken as such) without the trailing
    ones of magnitude <= tol times the largest, keeping the first.  A nan
    anywhere keeps all, as np.max returns it wherever it sits (Python's max
    only from the front)."""
    if type(c) is not list:
        c = poly(c).tolist()
    n = len(c)
    bound = tol * max(map(abs, c), default=0.0)
    while n > 1 and abs(c[n - 1]) <= bound:
        n -= 1
    # the magnitudes are >= 0, so their sum is nan exactly where one is
    if n < len(c) and math.isnan(sum(map(abs, c))):
        return c
    return c[:n]


def ptrim(c: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Drop trailing (near-)zero coefficients; keep at least the constant."""
    return np.array(_trimmed(poly(c), tol))


def padd(a, b) -> np.ndarray:
    a, b = _series(a), _series(b)
    if a.size > b.size:
        a, b = b, a
    out = b.copy()
    out[:a.size] += a
    return _trimseq(out)


def pmul(a, b) -> np.ndarray:
    return _trimseq(np.convolve(_series(a), _series(b)))


def pder(a, m: int = 1) -> np.ndarray:
    if m < 0:
        raise ValueError("The order of derivation must be non-negative")
    c = poly(a)
    if c.size == 0:
        return np.zeros(1)
    if m >= c.size:
        return c[:1] * 0
    if m == 0:
        return c.copy()
    for _ in range(m):
        c = c[1:] * np.arange(1, c.size)
    return c


def pval(a, x: float) -> float:
    c = poly(a).tolist()
    # x * 0 keeps the type of x, as numpy's Horner start does: an int x adds
    # an integer zero, a negative float x a negative zero
    acc = c[-1] + x * 0
    for ci in reversed(c[:-1]):
        acc = ci + acc * x
    return float(acc)


def _pdiv(num, den):
    """(quotient, remainder) of num / den by numpy's long-division steps."""
    c1, c2 = _series(num).copy(), _series(den)
    if c2[-1] == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    lc1, lc2 = c1.size, c2.size
    if lc1 < lc2:
        return c1[:1] * 0, c1
    if lc2 == 1:
        return c1 / c2[-1], c1[:1] * 0
    scl = c2[-1]
    c2 = c2[:-1] / scl
    i, j = lc1 - lc2, lc1 - 1
    while i >= 0:
        c1[i:j] -= c2 * c1[j]
        i -= 1
        j -= 1
    return c1[j + 1:] / scl, _trimseq(c1[:j + 1])


def split_two_poles(num, p2, q: float):
    """num/p2 = quotient + res_plus/(z - q) + res_minus/(z + q) for
    p2 = p2_lead (z^2 - q^2)."""
    p2 = ptrim(p2)
    lead = p2[-1]
    quot, rem = _pdiv(num, p2)
    rem = ptrim(rem)
    res_plus = pval(rem, q) / (lead * 2 * q)
    res_minus = pval(rem, -q) / (lead * (-2 * q))
    return ptrim(quot, 1e-300), float(res_plus), float(res_minus)


def pshift(a, z0: float) -> np.ndarray:
    """Coefficients of p(t + z0) in t, i.e. recenter p at z0."""
    step = np.array([z0, 1.0])
    out = np.zeros(1)
    # Horner in (t + z0): out is trimmed and step ends in 1, so each step is
    # pmul(out, step) then padd with [c], whose sum keeps the nonzero top
    for c in poly(a)[::-1]:
        out = _trimseq(np.convolve(out, step))
        out[0] += c
    return out


def compose_operators(outer: list, inner: list) -> list:
    """Coefficients of the composition L_outer(L_inner(y)).

    General Leibniz: p(z) d^k applied to q(z) d^j y gives
    sum_i C(k,i) p q^{(k-i)} d^{i+j} y.
    """
    order = (len(outer) - 1) + (len(inner) - 1)
    out = [np.zeros(1) for _ in range(order + 1)]
    for k, p in enumerate(outer):
        p = poly(p)
        if not p.any():
            continue
        for j, q in enumerate(inner):
            q = poly(q)
            if not q.any():
                continue
            for i in range(k + 1):
                term = pmul(p, pder(q, k - i)) * math.comb(k, i)
                out[i + j] = padd(out[i + j], term)
    return [ptrim(c) for c in out]


@functools.lru_cache(maxsize=32)
def falling_factorial_poly(shift: float, k: int) -> np.ndarray:
    """(m + shift)(m + shift - 1)...(m + shift - k + 1) as a polynomial in m.

    Cached per (shift, k); the array is shared, so it is read-only."""
    out = poly([1.0])
    for i in range(k):
        out = pmul(out, [shift - i, 1.0])
    out.setflags(write=False)
    return out


def polys_equal(a, b, rtol: float = 1e-12) -> bool:
    """Coefficient-wise equality of two polynomials, relative to their scale;
    a list is read as Python floats.  A nan in either never matches."""
    a, b = _trimmed(a, 1e-300), _trimmed(b, 1e-300)
    bound = rtol * max(1e-300, *map(abs, a), *map(abs, b))
    return all(abs(x - y) <= bound for x, y in zip_longest(a, b, fillvalue=0.0))
