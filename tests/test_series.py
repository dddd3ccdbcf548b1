import math

import numpy as np
import pytest

from rabi_spectra import (
    PolyOde,
    ode_residual,
    ode_to_recurrence,
    series_eval,
)
from rabi_spectra.errors import IrregularPointError


def exp_ode():
    # u'' = u
    return PolyOde((( -1.0,), (0.0,), (1.0,)), z0=0.0)


def test_exponential_recurrence():
    rec = ode_to_recurrence(exp_ode())
    # a_{n+2} = a_n / ((n+2)(n+1)): leading weight (n+2)(n+1), back weight -1
    assert rec.n_free == 2
    assert rec.span == 3
    for n in (0, 1, 5):
        lead = rec.leading_at(n + 2)
        assert lead == pytest.approx((n + 2) * (n + 1) * np.sign(lead), abs=0)
        assert abs(lead) == pytest.approx((n + 2) * (n + 1))


def test_exp_series_value():
    rec = ode_to_recurrence(exp_ode())
    val, der, sol = series_eval(rec, 1.0, seeds=np.array([1.0, 1.0]))
    assert val.to_float() == pytest.approx(math.e, rel=1e-14)
    assert der.to_float() == pytest.approx(math.e, rel=1e-13)
    assert sol.converged


def test_value_at_expansion_point():
    # the series is summed away from its expansion point only
    rec = ode_to_recurrence(exp_ode())
    with pytest.raises(ValueError):
        series_eval(rec, 0.0, seeds=np.array([2.0, 3.0]))


def test_cosh_even_series_convergence_with_zero_terms():
    # seeds (1, 0) give cosh: every odd coefficient is zero and must not
    # trigger a premature convergence stop
    rec = ode_to_recurrence(exp_ode())
    val, _, _ = series_eval(rec, 1.0, seeds=np.array([1.0, 0.0]))
    assert val.to_float() == pytest.approx(math.cosh(1.0), rel=1e-14)


def test_residual_machine_precision_and_sensitivity():
    rec = ode_to_recurrence(exp_ode())
    _, _, sol = series_eval(rec, 0.3, seeds=np.array([1.0, 1.0]))
    assert ode_residual(exp_ode(), sol) < 1e-12
    # perturb the back weight -1 of a_{n+2} = a_n / ((n+2)(n+1)) by 1e-3
    w = rec.weights.copy()
    w[rec.j_lead + 2, 0] += 1e-3
    bad = type(rec)(weights=w, order=rec.order, j_lead=rec.j_lead, z0=rec.z0)
    _, _, bad_sol = series_eval(bad, 0.3, seeds=np.array([1.0, 1.0]))
    assert ode_residual(exp_ode(), bad_sol) > 1e-5


def test_scale_log_matches_unscaled_summation():
    # small-N geometric-style series where plain summation cannot overflow
    ode = PolyOde(((0.0,), (-1.0,), (1.0, -1.0)), z0=0.0)  # (1-z) u'' = u'
    rec = ode_to_recurrence(ode)
    val, _, sol = series_eval(rec, 0.4, seeds=np.array([0.0, 1.0]))
    assert sol.scale_log == 0.0
    # the seeds a_0 = 0, a_1 = 1 give -log(1 - z) = sum z^n / n
    assert val.to_float() == pytest.approx(-math.log(0.6), rel=1e-13)


def test_irregular_point_rejected():
    # z^3 u'' + u = 0 has an irregular singularity at 0
    ode = PolyOde(((1.0,), (0.0,), (0.0, 0.0, 0.0, 1.0)), z0=0.0)
    with pytest.raises(IrregularPointError):
        ode_to_recurrence(ode)


def test_regular_singular_point_accepted():
    # Bessel-type z^2 u'' + z u' + (z^2) u = 0 is regular singular at 0
    ode = PolyOde(((0.0, 0.0, 1.0), (0.0, 1.0), (0.0, 0.0, 1.0)), z0=0.0)
    rec = ode_to_recurrence(ode)
    assert rec.n_free == 0 or rec.n_free >= 0  # derivable


def test_recentering():
    # u'' = u expanded at z0 = 2: value at 3 should be cosh/sinh mix of (x-2)
    ode = PolyOde(((-1.0,), (0.0,), (1.0,)), z0=2.0)
    rec = ode_to_recurrence(ode)
    val, _, _ = series_eval(rec, 3.0, seeds=np.array([1.0, 0.0]))
    assert val.to_float() == pytest.approx(math.cosh(1.0), rel=1e-13)


def test_recentered_once_per_ode_and_read_only():
    ode = PolyOde(((1.0, 0.0, 3.0), (0.5,), (1.0, 2.0)), z0=0.5)
    polys = ode._recentered
    assert polys is ode._recentered  # ode_to_recurrence and ode_residual share it
    assert not any(c.flags.writeable for c in polys)
    np.testing.assert_array_equal(polys[0], [1.75, 3.0, 3.0])  # 1 + 3 (t + 1/2)^2
    np.testing.assert_array_equal(polys[2], [2.0, 2.0])
    # the public call hands out writable copies
    out = ode.recentered()
    assert isinstance(out, list) and all(c.flags.writeable for c in out)
    for c, shared in zip(out, polys, strict=True):
        np.testing.assert_array_equal(c, shared)
        assert not np.shares_memory(c, shared)


def test_solution_derivatives_consistency():
    rec = ode_to_recurrence(exp_ode())
    _, _, sol = series_eval(rec, 0.5, seeds=np.array([1.0, 1.0]))
    d = sol.derivatives()
    assert sol.sums.shape == (3,) and len(d) == 3
    e = math.exp(0.5)
    for k in range(3):
        assert d[k].to_float() == pytest.approx(e, rel=1e-12)


def test_span_matches_order_plus_degree():
    ode = PolyOde(((1.0, 0.0, 3.0), (0.5,), (1.0, 2.0)), z0=0.0)
    rec = ode_to_recurrence(ode)
    assert rec.weights.shape[0] == 2 + 2 + 1
