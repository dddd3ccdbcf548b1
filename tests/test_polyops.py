"""The polynomial helpers equal NumPy's polynomial package bit for bit.

``polyops`` reimplements ``polyadd``, ``polymul``, ``polyder``, ``polyval``
and ``polydiv`` without that package's per-call overhead, keeping its
operations, their order and its trimming of trailing exact zeros.  This is
the one place the package is imported: as the reference.
"""

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
    pshift,
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
