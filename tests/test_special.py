import math

import numpy as np
import pytest

from rabi_spectra.errors import GammaResonanceError, PoleInBError
from rabi_spectra.special import (
    bch_a_coefficients,
    bch_coefficients,
    bch_derivatives,
    bch_series,
    kummer_1f1,
    kummer_1f1_d012,
)


def brute_1f1(a, b, x, n=30):
    total, term = 0.0, 1.0
    num = den = 1.0
    fact = 1.0
    xp = 1.0
    total = 0.0
    for k in range(n):
        total += num / den * xp / fact
        num *= a + k
        den *= b + k
        xp *= x
        fact *= k + 1
    return total


def test_kummer_trivial_values():
    assert kummer_1f1(0.7, 1.3, 0.0) == 1.0
    assert kummer_1f1(0.9, 0.9, 1.0) == pytest.approx(math.e, rel=1e-14)


def test_kummer_against_term_oracle():
    assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
    assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(brute_1f1(1, 2, 1.0), rel=1e-12)
    for (a, b, x) in [(0.3, 1.7, 2.5), (-0.4, 0.9, 1.1), (2.2, 3.3, -1.8)]:
        assert kummer_1f1(a, b, x) == pytest.approx(brute_1f1(a, b, x, 60), rel=1e-11)


def test_kummer_pole():
    with pytest.raises(PoleInBError):
        kummer_1f1(0.5, -2.0, 1.0)
    with pytest.raises(PoleInBError):
        kummer_1f1(0.5, 0.0, 1.0)


def test_kummer_derivative_identities():
    a, b, x = 0.6, 1.9, 0.8
    m0, m1, m2 = kummer_1f1_d012(a, b, x)
    h = 1e-4
    fd1 = (kummer_1f1(a, b, x + h) - kummer_1f1(a, b, x - h)) / (2 * h)
    fd2 = (kummer_1f1(a, b, x + h) - 2 * m0 + kummer_1f1(a, b, x - h)) / h ** 2
    assert m1 == pytest.approx(fd1, rel=1e-8)
    assert m2 == pytest.approx(fd2, rel=1e-6)


def test_bch_at_zero_is_one():
    assert bch_series(0.7, 0.2, 0.45, 0.1, 0.0) == 1.0


def test_bch_a2_identity():
    # one step of the recurrence: A2 = (delta + beta) beta + gamma alpha
    for (a, b, g, d) in [(0.7, 0.3, 0.45, 0.2), (1.5, -0.2, 0.9, 0.4)]:
        A = bch_a_coefficients(a, b, g, d, 3)
        assert A[2] == pytest.approx((d + b) * b + g * a, rel=1e-14)


def test_bch_even_odd_decoupling():
    # beta = delta = 0: all odd A_n vanish
    A = bch_a_coefficients(1.3, 0.0, 0.37, 0.0, 21)
    assert np.all(A[1::2] == 0.0)
    v = bch_coefficients(1.3, 0.0, 0.37, 0.0, 21)
    assert np.all(v[1::2] == 0.0)


def test_bch_a_vs_scaled_coefficients():
    a, b, g, d = 0.7, 0.3, 0.45, 0.2
    A = bch_a_coefficients(a, b, g, d, 20)
    v = bch_coefficients(a, b, g, d, 20)
    rising = np.cumprod(np.concatenate([[1.0], -g + np.arange(19)]))
    fact = np.array([math.factorial(n) for n in range(20)])
    np.testing.assert_allclose(A / (rising * fact), v, rtol=1e-12)


def test_bch_gamma_resonance():
    with pytest.raises(GammaResonanceError):
        bch_series(0.7, 0.2, 2.0, 0.1, 0.5)
    with pytest.raises(GammaResonanceError):
        bch_series(0.7, 0.2, 0.0, 0.1, 0.5)


def test_bch_satisfies_first_normal_form():
    # zeta V'' - (gamma + delta zeta + zeta^2) V' + (alpha zeta - beta) V = 0
    a, b, g, d = 0.8, 0.25, 0.6, 0.15
    for z in (0.3, 1.0, 2.0):
        v0, v1, v2 = bch_derivatives(a, b, g, d, z)
        res = z * v2 - (g + d * z + z * z) * v1 + (a * z - b) * v0
        assert abs(res) / max(1.0, abs(v0)) < 1e-11
