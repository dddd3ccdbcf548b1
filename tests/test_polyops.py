"""The polynomial helpers equal NumPy's polynomial package bit for bit.

``polyops`` reimplements ``polyadd``, ``polymul``, ``polyder``, ``polyval``
and ``polydiv`` without that package's per-call overhead, keeping its
operations, their order and its trimming of trailing exact zeros.  This is
the one place the package is imported: as the reference.  The trimming and
comparison helpers, which read Python floats, equal their array forms.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from rabi_spectra.polyops import (
    _pdiv,
    falling_factorial_poly,
    padd,
    pder,
    pmul,
    poly,
    polys_equal,
    pshift,
    ptrim,
    pval,
)

# exact zeros of both signs are common, so trailing and all-zero runs occur
COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.integers(-9, 9).map(float),
                  st.floats(-1e3, 1e3, allow_nan=False, width=64))
COEFFS = st.lists(COEFF, min_size=1, max_size=8)
# the helpers take lists, arrays and bare numbers, as numpy's do
OPERAND = st.one_of(COEFFS, COEFFS.map(np.array), st.integers(-9, 9),
                    COEFF)
POINT = st.one_of(st.integers(-5, 5), COEFF)
FUZZ = settings(derandomize=True, max_examples=120, deadline=None)


def bits(a) -> np.ndarray:
    """The float64 bit patterns of a: equal bits, signed zeros included."""
    return np.ascontiguousarray(a, dtype=np.float64).reshape(-1).view(np.uint64)


def assert_same(ours, ref):
    ref = np.asarray(ref)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    np.testing.assert_array_equal(ours, ref)
    np.testing.assert_array_equal(bits(ours), bits(ref))


@FUZZ
@given(OPERAND, OPERAND)
@example([1.0, 0.0], [2.0, -0.0, 3.0])  # untrimmed, 0.0 + -0.0 would be 0.0
def test_padd_and_pmul_match_numpy(a, b):
    assert_same(padd(a, b), npoly.polyadd(poly(a), poly(b)))
    assert_same(pmul(a, b), npoly.polymul(poly(a), poly(b)))


@FUZZ
@given(OPERAND, st.integers(0, 10))
def test_pder_matches_numpy_for_every_order(a, m):
    # orders at and past the length give the (signed) zero constant
    assert_same(pder(a, m), npoly.polyder(poly(a), m))


@FUZZ
@given(OPERAND, POINT)
@example([-0.0], -2)  # an int x starts Horner from -0.0 + 0, which is 0.0
def test_pval_matches_numpy(a, x):
    ours, ref = pval(a, x), float(npoly.polyval(x, poly(a)))
    assert type(ours) is float
    assert bits(ours) == bits(ref)


@FUZZ
@given(OPERAND, COEFF)
def test_pshift_matches_the_numpy_horner_loop(a, z0):
    ref = np.zeros(1)
    for c in poly(a)[::-1]:
        ref = npoly.polyadd(npoly.polymul(ref, [z0, 1.0]), [c])
    assert_same(pshift(a, z0), ref)


@FUZZ
@given(OPERAND, OPERAND)
def test_division_matches_numpy(num, den):
    if not np.any(poly(den)):
        with pytest.raises(ZeroDivisionError):
            npoly.polydiv(poly(num), poly(den))
        with pytest.raises(ZeroDivisionError):
            _pdiv(num, den)
        return
    quot, rem = _pdiv(num, den)
    ref_quot, ref_rem = npoly.polydiv(poly(num), poly(den))
    assert_same(quot, ref_quot)
    assert_same(rem, ref_rem)


def test_falling_factorial_is_cached_and_read_only():
    ff = falling_factorial_poly(2.0, 3)
    assert ff is falling_factorial_poly(2.0, 3)
    assert not ff.flags.writeable
    ref = np.ones(1)
    for i in range(3):
        ref = npoly.polymul(ref, [2.0 - i, 1.0])
    assert_same(ff, ref)


def reference_ptrim(c, tol: float = 0.0) -> np.ndarray:
    """ptrim on arrays: the scale is np.max, a nan wherever one sits."""
    c = poly(c)
    scale = np.abs(c).max() if c.size else 0.0
    n = c.size
    while n > 1 and abs(c[n - 1]) <= tol * scale:
        n -= 1
    return c[:n].copy()


def reference_polys_equal(a, b, rtol: float = 1e-12) -> bool:
    """polys_equal on zero-padded arrays."""
    a = reference_ptrim(a, 1e-300)
    b = reference_ptrim(b, 1e-300)
    n = max(a.size, b.size)
    aa = np.zeros(n)
    bb = np.zeros(n)
    aa[:a.size] = a
    bb[:b.size] = b
    scale = max(np.max(np.abs(aa)), np.max(np.abs(bb)), 1e-300)
    return bool(np.max(np.abs(aa - bb)) <= rtol * scale)


# the values where Python floats and numpy arrays could part: signed zeros,
# the smallest subnormal, infinities and nan, at any position
EDGE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]),
                 COEFF)
EDGES = st.lists(EDGE, min_size=1, max_size=8)
TOL = st.sampled_from([0.0, 1e-300, 1e-12])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(EDGES, TOL)
# Python's max([1.0, nan]) is 1.0, np.max nan: the trailing zeros stay
@example([1.0, math.nan, 0.0], 1e-300)
@example([math.inf, 0.0, 1.0], 0.0)  # 0 * inf: the bound is nan, nothing goes
def test_ptrim_equals_the_array_rule(c, tol):
    with np.errstate(all="ignore"):
        ref = reference_ptrim(np.array(c), tol)
    assert_same(ptrim(c, tol), ref)
    assert_same(ptrim(np.array(c), tol), ref)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(EDGES, EDGES, TOL)
@example([1.0, math.nan], [1.0], 1e-12)  # a nan never matches
@example([1.0, math.inf], [1.0], 1e-12)  # the inf bound trims it away
@example([math.inf], [1.0], 1e-12)  # inf - 1 is within rtol times inf
def test_polys_equal_equals_the_array_rule(a, b, rtol):
    with np.errstate(all="ignore"):
        ref = reference_polys_equal(np.array(a), np.array(b), rtol)
    assert polys_equal(a, b, rtol) is ref
    assert polys_equal(np.array(a), np.array(b), rtol) is ref


def test_poly_passes_a_float_array_through():
    c = np.array([1.0, 2.0])
    assert poly(c) is c
    assert poly([1, 2]).dtype == np.float64 and poly(3).shape == (1,)
