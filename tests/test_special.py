"""The Kummer and biconfluent-Heun (BCH) series, summed by the one series
engine: Kummer's 1F1 is a lane of ``canonical``, and the BCH series is the
regular series at 0 of ``canonical.bch_first_normal_ode`` rolled through
``series.series_sums_lanes``.  :func:`reference_bch_coefficients` is the
independent scalar loop the BCH lanes are compared with."""

import math

import numpy as np
import pytest

from rabi_spectra._kernels import FLAG_RESONANT_COMPATIBLE, FLAG_RESONANT_INCOMPATIBLE
from rabi_spectra.canonical import _kummer_lanes, bch_first_normal_ode
from rabi_spectra.errors import NumericalError, ValidationError
from rabi_spectra.series import ode_residual, ode_to_recurrence, series_sums_lanes


def kummer_1f1_d012(a: float, b: float, x: float) -> tuple:
    """(M, M', M'') of M = 1F1(a; b; x), summed as one series lane."""
    return tuple(float(m) for m in _kummer_lanes(((a, b),), x)[0])


def kummer_1f1(a: float, b: float, x: float) -> float:
    """1F1(a; b; x) = sum (a)^(n)/(b)^(n) x^n/n!."""
    return kummer_1f1_d012(a, b, x)[0]


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


def reference_bch_coefficients(alpha, beta, gamma, delta, n_terms):
    """Series coefficients v_n with BCH(zeta) = sum v_n zeta^n.

    v_n = A_n / ((-gamma)^(n) n!); rolled in the rescaled form
    (n+1)(n-gamma) v_{n+1} = (delta n + beta) v_n + (n-1-alpha) v_{n-1}
    to keep intermediates inside double range (A_n alone grows
    super-factorially).
    """
    v = np.zeros(n_terms)
    v[0] = 1.0
    v_prev = 0.0
    v_cur = 1.0
    for n in range(0, n_terms - 1):
        v_next = ((delta * n + beta) * v_cur + (n - 1 - alpha) * v_prev) \
            / ((n + 1) * (n - gamma))
        v[n + 1] = v_next
        v_prev, v_cur = v_cur, v_next
    return v


def reference_bch_derivatives(alpha, beta, gamma, delta, zeta, n_terms=400):
    """(V, V', V'') at zeta by termwise differentiation of the reference
    coefficients."""
    v = reference_bch_coefficients(alpha, beta, gamma, delta, n_terms)
    n = np.arange(n_terms, dtype=float)
    return (float(np.sum(v * np.power(zeta, n))),
            float(np.sum(v[1:] * n[1:] * np.power(zeta, n[1:] - 1))),
            float(np.sum(v[2:] * n[2:] * (n[2:] - 1) * np.power(zeta, n[2:] - 2))))


def bch_lanes(alpha, beta, gamma, delta, zetas):
    """The first normal form's ODE and the engine's (sums, scale_log, flags),
    one lane of the regular series at 0 per zeta."""
    ode = bch_first_normal_ode(alpha, beta, gamma, delta)
    w = ode_to_recurrence(ode).weights
    return (ode, *series_sums_lanes(np.stack([w] * len(zetas)), zetas, [0] * len(zetas)))


def engine_bch_derivatives(alpha, beta, gamma, delta, zetas):
    """Rows (V, V', V'') of the BCH series at each zeta, from unflagged
    engine lanes."""
    _ode, sums, scale_log, flags = bch_lanes(alpha, beta, gamma, delta, zetas)
    assert not flags.any()
    return sums * np.exp(scale_log)[:, None] / np.asarray(zetas)[:, None] ** np.arange(3)


def test_kummer_trivial_values():
    assert kummer_1f1(0.7, 1.3, 0.0) == 1.0
    assert kummer_1f1(0.9, 0.9, 1.0) == pytest.approx(math.e, rel=1e-14)
    # at x = 0, and where x^2 underflows, the derivatives are the series'
    # leading coefficients
    for x in (0.0, 1e-200):
        assert kummer_1f1_d012(0.7, 1.3, x) == (1.0, 0.7 / 1.3, 0.7 * 1.7 / (1.3 * 2.3))


def test_kummer_against_term_oracle():
    assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
    assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(brute_1f1(1, 2, 1.0), rel=1e-12)
    for (a, b, x) in [(0.3, 1.7, 2.5), (-0.4, 0.9, 1.1), (2.2, 3.3, -1.8)]:
        assert kummer_1f1(a, b, x) == pytest.approx(brute_1f1(a, b, x, 60), rel=1e-11)


def test_kummer_pole():
    for x in (1.0, -0.5, 0.0):
        with pytest.raises(ValidationError, match="1F1 pole"):
            kummer_1f1(0.5, -2.0, x)
        with pytest.raises(ValidationError, match="1F1 pole"):
            kummer_1f1(0.5, 0.0, x)


def test_kummer_past_the_term_budget_raises_numerical_error():
    # the terms x^n / n! peak near n = x, so at x = 3000 no lane converges
    # within the kernel's MAX_N terms
    with pytest.raises(NumericalError, match="did not converge"):
        kummer_1f1_d012(0.5, 1.5, 3000.0)


def test_kummer_derivative_identities():
    a, b = 0.6, 1.9
    h = 1e-4
    for x in (0.8, -1.3):
        m0, m1, m2 = kummer_1f1_d012(a, b, x)
        fd1 = (kummer_1f1(a, b, x + h) - kummer_1f1(a, b, x - h)) / (2 * h)
        fd2 = (kummer_1f1(a, b, x + h) - 2 * m0 + kummer_1f1(a, b, x - h)) / h ** 2
        assert m1 == pytest.approx(fd1, rel=1e-8)
        assert m2 == pytest.approx(fd2, rel=1e-6)


def test_kummer_terminating_series():
    # a = -2 ends the series after x^2: 1F1(-2; b; x) = 1 - 2x/b + x^2/(b(b+1))
    b = 0.7
    for x in (0.4, -2.5, 6.0):
        closed = (1 - 2 * x / b + x * x / (b * (b + 1)),
                  -2 / b + 2 * x / (b * (b + 1)),
                  2 / (b * (b + 1)))
        assert kummer_1f1_d012(-2.0, b, x) == pytest.approx(closed, rel=1e-14, abs=1e-14)


def test_bch_at_zero_is_one():
    v = engine_bch_derivatives(0.7, 0.2, 0.45, 0.1, [-1e-9, 1e-9])
    assert v[:, 0] == pytest.approx(1.0, abs=1e-9)
    assert v[:, 1] == pytest.approx(-0.2 / 0.45, rel=1e-8)
    assert reference_bch_coefficients(0.7, 0.2, 0.45, 0.1, 3)[0] == 1.0


def test_bch_a2_identity():
    # one step of the recurrence: A2 = (delta + beta) beta + gamma alpha,
    # and V''(0) = 2 v_2 = 2 A2 / ((-gamma)(1 - gamma) 2!)
    for (a, b, g, d) in [(0.7, 0.3, 0.45, 0.2), (1.5, -0.2, 0.9, 0.4)]:
        v2 = ((d + b) * b + g * a) / (-g * (1 - g) * 2)
        assert reference_bch_coefficients(a, b, g, d, 3)[2] == pytest.approx(v2, rel=1e-14)
        assert engine_bch_derivatives(a, b, g, d, [1e-9])[0, 2] == pytest.approx(
            2 * v2, rel=1e-7)


def test_bch_even_odd_decoupling():
    # beta = delta = 0: all odd coefficients vanish, so V is even
    assert np.all(reference_bch_coefficients(1.3, 0.0, 0.37, 0.0, 21)[1::2] == 0.0)
    zetas = [0.4, 1.1, 2.3]
    plus = engine_bch_derivatives(1.3, 0.0, 0.37, 0.0, zetas)
    minus = engine_bch_derivatives(1.3, 0.0, 0.37, 0.0, [-z for z in zetas])
    np.testing.assert_allclose(minus, plus * [1.0, -1.0, 1.0], rtol=1e-15)


def test_bch_a_vs_scaled_coefficients():
    # A_n = v_n (-gamma)^(n) n! obeys the raw recurrence
    # A_{n+2} = (delta (n+1) + beta) A_{n+1} - (n+1)(n - gamma)(alpha - n) A_n
    a, b, g, d = 0.7, 0.3, 0.45, 0.2
    v = reference_bch_coefficients(a, b, g, d, 20)
    rising = np.cumprod(np.concatenate([[1.0], -g + np.arange(19)]))
    fact = np.array([math.factorial(n) for n in range(20)], dtype=float)
    A = v * rising * fact
    n = np.arange(18)
    np.testing.assert_allclose(
        A[2:], (d * (n + 1) + b) * A[1:-1] - (n + 1) * (n - g) * (a - n) * A[:-2],
        rtol=1e-12)


def test_bch_gamma_resonance():
    # an integer gamma >= 0 makes the index gamma + 1 resonant
    for g in (2.0, 0.0):
        _ode, _sums, _slog, flags = bch_lanes(0.7, 0.2, g, 0.1, [0.5, -0.5])
        assert np.all(flags & (FLAG_RESONANT_COMPATIBLE | FLAG_RESONANT_INCOMPATIBLE))


def test_bch_satisfies_first_normal_form():
    # zeta V'' - (gamma + delta zeta + zeta^2) V' + (alpha zeta - beta) V = 0
    zetas = [0.3, 1.0, 2.0, -1.4]
    ode, sums, scale_log, flags = bch_lanes(0.8, 0.25, 0.6, 0.15, zetas)
    assert not flags.any()
    for z, s, slog in zip(zetas, sums, scale_log):
        assert ode_residual(ode, z, s, slog) < 1e-11
