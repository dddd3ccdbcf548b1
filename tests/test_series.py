import math

import numpy as np
import pytest

from rabi_spectra import series
from rabi_spectra._kernels import FLAG_NONCONVERGED
from rabi_spectra.errors import ValidationError
from rabi_spectra.series import PolyOde, ode_residual, ode_to_recurrence, series_sums_lanes


def exp_ode():
    # u'' = u
    return PolyOde((( -1.0,), (0.0,), (1.0,)), z0=0.0)


def branches(weights, x, coeffs):
    """sum_e coeffs[e] (sums, exp(scale_log)) of the lanes on the branches
    z^0, z^1, ... at the offset x: the derivative sums of the series with
    a_e = coeffs[e] for e < len(coeffs), on scale 1, and the lanes' flags."""
    n = len(coeffs)
    sums, slog, flags = series_sums_lanes(np.stack([weights] * n), [x] * n,
                                          list(range(n)))
    return np.asarray(coeffs, dtype=float) @ (sums * np.exp(slog)[:, None]), flags


def test_exponential_recurrence():
    rec = ode_to_recurrence(exp_ode())
    # a_{n+2} = a_n / ((n+2)(n+1)): leading weight (n+2)(n+1) on the newest
    # lag, back weight -1 two lags on, so two seed coefficients are free
    assert (rec.order, rec.j_lead) == (2, 0)
    np.testing.assert_array_equal(rec.weights, [[2.0, 3.0, 1.0], [0.0, 0.0, 0.0],
                                                [-1.0, 0.0, 0.0]])


def test_exp_series_value():
    # branches 0 and 1 with a_0 = a_1 = 1: e^z
    rec = ode_to_recurrence(exp_ode())
    sums, flags = branches(rec.weights, 1.0, [1.0, 1.0])
    assert sums[0] == pytest.approx(math.e, rel=1e-14)
    assert sums[1] == pytest.approx(math.e, rel=1e-13)
    assert list(flags) == [0, 0]
    # a nan offset beside it is flagged as not converged
    _sums, _slog, flags = series_sums_lanes(np.stack([rec.weights] * 2),
                                            [1.0, math.nan], [0, 0])
    assert list(flags) == [0, FLAG_NONCONVERGED]


def test_value_at_expansion_point():
    # the series is summed away from its expansion point only
    rec = ode_to_recurrence(exp_ode())
    with pytest.raises(ValueError):
        series_sums_lanes(np.stack([rec.weights] * 2), [0.5, 0.0], [0, 1])


def test_cosh_even_series_convergence_with_zero_terms():
    # branch 0 alone gives cosh: every odd coefficient is zero and must not
    # trigger a premature convergence stop
    rec = ode_to_recurrence(exp_ode())
    sums, _flags = branches(rec.weights, 1.0, [1.0])
    assert sums[0] == pytest.approx(math.cosh(1.0), rel=1e-14)


def test_residual_machine_precision_and_sensitivity():
    rec = ode_to_recurrence(exp_ode())
    sums, _flags = branches(rec.weights, 0.3, [1.0, 1.0])
    assert ode_residual(exp_ode(), 0.3, sums, 0.0) < 1e-12
    # perturb the back weight -1 of a_{n+2} = a_n / ((n+2)(n+1)) by 1e-3
    w = rec.weights.copy()
    w[rec.j_lead + 2, 0] += 1e-3
    bad, _flags = branches(w, 0.3, [1.0, 1.0])
    assert ode_residual(exp_ode(), 0.3, bad, 0.0) > 1e-5


def test_scale_log_matches_unscaled_summation():
    # small-N geometric-style series where plain summation cannot overflow
    ode = PolyOde(((0.0,), (-1.0,), (1.0, -1.0)), z0=0.0)  # (1-z) u'' = u'
    rec = ode_to_recurrence(ode)
    sums, slog, _flags = series_sums_lanes(rec.weights[None], [0.4], [1])
    assert slog[0] == 0.0
    # branch 1, a_0 = 0 and a_1 = 1, gives -log(1 - z) = sum z^n / n
    assert sums[0, 0] == pytest.approx(-math.log(0.6), rel=1e-13)


def test_irregular_point_rejected():
    # z^3 u'' + u = 0 has an irregular singularity at 0
    ode = PolyOde(((1.0,), (0.0,), (0.0, 0.0, 0.0, 1.0)), z0=0.0)
    with pytest.raises(ValidationError, match="is an irregular singularity"):
        ode_to_recurrence(ode)


def test_regular_singular_point_accepted():
    # Bessel-type z^2 u'' + z u' + (z^2) u = 0 is regular singular at 0
    ode = PolyOde(((0.0, 0.0, 1.0), (0.0, 1.0), (0.0, 0.0, 1.0)), z0=0.0)
    rec = ode_to_recurrence(ode)
    # the indicial weight m^2 sits on lag 2: a_m follows from equation m
    assert (rec.order, rec.j_lead) == (2, 2)


def test_recentering():
    # u'' = u expanded at z0 = 2: value at 3 should be cosh/sinh mix of (x-2)
    ode = PolyOde(((-1.0,), (0.0,), (1.0,)), z0=2.0)
    rec = ode_to_recurrence(ode)
    assert rec.z0 == 2.0
    sums, _flags = branches(rec.weights, 3.0 - rec.z0, [1.0])
    assert sums[0] == pytest.approx(math.cosh(1.0), rel=1e-13)


def test_recentered_once_per_ode_and_read_only():
    ode = PolyOde(((1.0, 0.0, 3.0), (0.5,), (1.0, 2.0)), z0=0.5)
    polys = ode._recentered
    assert polys is ode._recentered  # ode_to_recurrence and ode_residual share it
    assert not any(c.flags.writeable for c in polys)
    np.testing.assert_array_equal(polys[0], [1.75, 3.0, 3.0])  # 1 + 3 (t + 1/2)^2
    np.testing.assert_array_equal(polys[2], [2.0, 2.0])


def test_solution_derivatives_consistency():
    # the sums reach the ODE's order; the k-th derivative of e^z at x is
    # sums[k] / x^k
    rec = ode_to_recurrence(exp_ode())
    sums, _flags = branches(rec.weights, 0.5, [1.0, 1.0])
    assert sums.shape == (3,)
    e = math.exp(0.5)
    for k in range(3):
        assert sums[k] / 0.5 ** k == pytest.approx(e, rel=1e-12)


def test_span_matches_order_plus_degree():
    # the farthest lag is order - k + deg p_k at its largest, whichever
    # coefficient is the longest
    ode = PolyOde(((1.0, 0.0, 3.0), (0.5,), (1.0, 2.0)), z0=0.0)
    rec = ode_to_recurrence(ode)
    assert rec.weights.shape[0] == 2 + 2 + 1
    # Kummer's z u'' + (b - z) u' - a u = 0: p0 is a constant, and
    # (n + 1)(n + b) a_{n+1} = (n + a) a_n weighs lags 1 and 2 only
    a, b = 0.3, 1.5
    rec = ode_to_recurrence(PolyOde(((-a,), (b, -1.0), (0.0, 1.0)), z0=0.0))
    assert (rec.weights.shape[0], rec.j_lead) == (3, 1)
    assert rec.weights[0].tolist() == [0.0] * 3
    np.testing.assert_array_equal(rec.weights[1:], [[b, 1.0 + b, 1.0], [-a, -1.0, 0.0]])


def test_a_batch_mixing_leading_lags_is_refused():
    # e^z (leading lag 0, padded to five lags) beside a Bessel-type series
    # (leading lag 2): the lanes of one kernel call share one leading lag
    exp_w = np.zeros((5, 3))
    exp_w[:3] = ode_to_recurrence(exp_ode()).weights
    bessel = ode_to_recurrence(PolyOde(((0.0, 0.0, 1.0), (0.0, 1.0), (0.0, 0.0, 1.0)),
                                       z0=0.0)).weights
    with pytest.raises(ValueError, match="one leading lag"):
        series_sums_lanes(np.stack([exp_w, bessel, exp_w]), [0.5, 0.3, -0.4], [0, 0, 1])
    empty = series_sums_lanes(np.zeros((0, 5, 3)), [], [], 1)
    assert [a.shape for a in empty] == [(0, 2), (0,), (0,)]


def test_one_leading_lag_rule_counts_a_nan_as_nonzero():
    # the derivation and the batch entry read a recurrence's leading lag by
    # one rule, on a single recurrence and lane by lane alike
    w = np.array([[0.0, 0.0], [math.nan, 0.0], [1.0, 2.0]])
    assert series._leading_lag(w) == 1
    assert series._leading_lag(np.stack([w, w[[2, 0, 1]], w[[0, 2, 1]]])).tolist() == [1, 0, 1]
    for ode in (exp_ode(), PolyOde(((-0.3,), (1.5, -1.0), (0.0, 1.0)))):
        rec = ode_to_recurrence(ode)
        assert rec.j_lead == series._leading_lag(rec.weights)
