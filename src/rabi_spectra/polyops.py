"""Small helpers for real polynomials and polynomial-coefficient ODE operators.

Polynomials are 1-D float arrays of ascending coefficients.  A differential
operator is a list ``ops[k]`` = polynomial multiplying d^k/dz^k.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly


def poly(coeffs) -> np.ndarray:
    return np.atleast_1d(np.asarray(coeffs, dtype=float))


def ptrim(c: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Drop trailing (near-)zero coefficients; keep at least the constant."""
    c = poly(c)
    scale = np.max(np.abs(c)) if c.size else 0.0
    n = c.size
    while n > 1 and abs(c[n - 1]) <= tol * scale:
        n -= 1
    return c[:n].copy()


def padd(a, b) -> np.ndarray:
    return npoly.polyadd(poly(a), poly(b))


def pmul(a, b) -> np.ndarray:
    return npoly.polymul(poly(a), poly(b))


def pder(a, m: int = 1) -> np.ndarray:
    d = npoly.polyder(poly(a), m)
    return d if d.size else np.zeros(1)


def pval(a, x: float) -> float:
    return float(npoly.polyval(x, poly(a)))


def split_two_poles(num, p2, q: float):
    """num/p2 = quotient + res_plus/(z - q) + res_minus/(z + q) for
    p2 = p2_lead (z^2 - q^2)."""
    p2 = ptrim(p2)
    lead = p2[-1]
    quot, rem = npoly.polydiv(poly(num), poly(p2))
    rem = ptrim(rem)
    res_plus = pval(rem, q) / (lead * 2 * q)
    res_minus = pval(rem, -q) / (lead * (-2 * q))
    return ptrim(quot, 1e-300), float(res_plus), float(res_minus)


def pshift(a, z0: float) -> np.ndarray:
    """Coefficients of p(t + z0) in t, i.e. recenter p at z0."""
    a = poly(a)
    out = np.zeros(1)
    # Horner in (t + z0)
    for c in a[::-1]:
        out = padd(pmul(out, [z0, 1.0]), [c])
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
        if not np.any(p):
            continue
        for j, q in enumerate(inner):
            q = poly(q)
            if not np.any(q):
                continue
            for i in range(k + 1):
                term = pmul(p, pder(q, k - i)) * math.comb(k, i)
                out[i + j] = padd(out[i + j], term)
    return [ptrim(c, 1e-300) for c in out]


def falling_factorial_poly(shift: float, k: int) -> np.ndarray:
    """(m + shift)(m + shift - 1)...(m + shift - k + 1) as a polynomial in m."""
    out = poly([1.0])
    for i in range(k):
        out = pmul(out, [shift - i, 1.0])
    return out


def polys_equal(a, b, rtol: float = 1e-12) -> bool:
    """Coefficient-wise equality of two polynomials, relative to their scale."""
    a = ptrim(a, 1e-300)
    b = ptrim(b, 1e-300)
    n = max(a.size, b.size)
    aa = np.zeros(n)
    bb = np.zeros(n)
    aa[:a.size] = a
    bb[:b.size] = b
    scale = max(np.max(np.abs(aa)), np.max(np.abs(bb)), 1e-300)
    return bool(np.max(np.abs(aa - bb)) <= rtol * scale)
