import dataclasses
import math

import numpy as np
import pytest

from rabi_spectra import validate_params
from rabi_spectra import canonical as canon
from rabi_spectra.audit import printed_bch_g0, printed_normal_form
from rabi_spectra.canonical import (
    NormalizedParams,
    approx_c_polys,
    canonical_coeffs,
    normalize_params,
    normal_form_coeffs,
)
from rabi_spectra.errors import ValidationError
from rabi_spectra.polyops import pval
from rabi_spectra.series import PolyOde, ode_to_recurrence, series_sums_lanes
from test_special import engine_bch_derivatives, reference_bch_derivatives

NB = normalize_params(validate_params(1.0, 0.3, 0.1, 0.6, 0.05), 0.2)


def p1_at(cc, z: float) -> float:
    """c3/c2 rebuilt from its partial fractions."""
    q = cc.q
    return cc.alpha1 * z + cc.alpha2 + cc.beta1 / (z - q) + cc.beta2 / (z + q)


def q1_at(cc, z: float) -> float:
    """c4/c2 rebuilt from its partial fractions."""
    q = cc.q
    return (cc.gamma1 * z * z + cc.gamma2 * z + cc.gamma3
            + cc.delta1 / (z - q) + cc.delta2 / (z + q))


def reconstruction_error(nb, cc, z: float) -> float:
    """The larger misfit of p1 and q1 against c3/c2 and c4/c2 at z."""
    c2, c3, c4 = approx_c_polys(nb)
    e1 = abs(p1_at(cc, z) - pval(c3, z) / pval(c2, z))
    e2 = abs(q1_at(cc, z) - pval(c4, z) / pval(c2, z))
    return max(e1, e2)


def potential_at(nf, z: float) -> float:
    """The normal form's potential l1 z^2 + l2 z + l3 + m1/(z-q) + m2/(z+q)
    + n1/(z-q)^2 + n2/(z+q)^2."""
    return (nf.lambda1 * z * z + nf.lambda2 * z + nf.lambda3
            + nf.mu1 / (z - nf.q) + nf.mu2 / (z + nf.q)
            + nf.nu1 / (z - nf.q) ** 2 + nf.nu2 / (z + nf.q) ** 2)


def general_normal_form_residual(cc, nf, z: float, u_derivs: tuple) -> float:
    """Residual of U = u exp(+1/2 int p1) in U'' + pot U = 0, given
    (u, u', u'') of a solution of the reduced equation.  The gauge factor
    cancels; only the log-derivative L = p1/2 enters."""
    u0, u1, u2 = u_derivs
    q = cc.q
    ell = 0.5 * p1_at(cc, z)
    ell_p = 0.5 * (cc.alpha1 - cc.beta1 / (z - q) ** 2
                   - cc.beta2 / (z + q) ** 2)
    num = u2 + 2 * ell * u1 + (ell_p + ell * ell + potential_at(nf, z)) * u0
    return abs(num) / max(1.0, abs(u0))


def second_normal_potential(alpha: float, beta: float, gamma: float,
                            delta: float, zeta: float) -> float:
    """Second normal form: U'' = pot(zeta) U for U = V zeta^{-gamma/2}
    exp(-delta zeta/2 - zeta^2/4).  Matches the in-text display except that
    the single-pole weight is beta + gamma delta/2, not (gamma delta+beta)/2
    (irrelevant here: beta = delta = 0 throughout)."""
    return (zeta * zeta / 4.0 + 0.5 * delta * zeta
            + (delta * delta / 4.0 + 0.5 * gamma - alpha - 0.5)
            + (beta + 0.5 * gamma * delta) / zeta
            + 0.25 * gamma * (gamma + 2.0) / (zeta * zeta))


def second_normal_residual(alpha: float, beta: float, gamma: float,
                           delta: float, zeta: float,
                           v_derivs: tuple) -> float:
    """Residual of U = V * zeta^{-gamma/2} e^{-delta zeta/2 - zeta^2/4} in the
    derived second normal form, given (V, V', V'') of a first-normal-form
    solution.  The common factor cancels, so only V and the log-derivative
    of the gauge enter."""
    v0, v1, v2 = v_derivs
    ell = -(gamma / (2 * zeta) + delta / 2.0 + zeta / 2.0)
    ell_p = gamma / (2 * zeta * zeta) - 0.5
    pot = second_normal_potential(alpha, beta, gamma, delta, zeta)
    num = v2 + 2 * ell * v1 + (ell_p + ell * ell - pot) * v0
    return abs(num) / max(1.0, abs(v0))


def test_c2_roots_at_pm_g_over_omega():
    c2, _c3, _c4 = approx_c_polys(NB)
    q = NB.g_bar / NB.omega_bar
    assert pval(c2, q) == pytest.approx(0.0, abs=1e-9)
    assert pval(c2, -q) == pytest.approx(0.0, abs=1e-9)


def test_leading_partial_fraction_symbols_match_text():
    cc = canonical_coeffs(NB)
    assert cc.alpha1 == pytest.approx(NB.omega_bar, rel=1e-12)
    assert cc.alpha2 == pytest.approx(
        2 * NB.g_bar * (1 - 2 / NB.omega_bar), rel=1e-12)


def test_reconstruction_identity():
    cc = canonical_coeffs(NB)
    rng = np.random.RandomState(2)
    for _ in range(5):
        z = rng.uniform(-0.25, 0.25)
        if abs(abs(z) - cc.q) < 0.05:
            continue
        assert reconstruction_error(NB, cc, z) < 1e-10


def test_g_zero_routed_away():
    nb0 = normalize_params(validate_params(1.0, 0.3, 0.1, 0.0, 0.05), 0.2)
    with pytest.raises(ValidationError, match="poles collide at 0"):
        canonical_coeffs(nb0)


def test_nu_values():
    cc = canonical_coeffs(NB)
    nf = normal_form_coeffs(cc)
    assert nf.nu1 == pytest.approx(0.5 * cc.beta1 * (1 - 0.5 * cc.beta1))
    b1 = dataclasses.replace(cc, beta1=1.0)
    assert normal_form_coeffs(b1).nu1 == pytest.approx(0.25)
    b0 = dataclasses.replace(cc, beta1=0.0)
    assert normal_form_coeffs(b0).nu1 == 0.0


def reduced_ode(nb) -> PolyOde:
    """c2 u'' + c3 u' + c4 u = 0 as a PolyOde (ordinary point at 0)."""
    c2, c3, c4 = approx_c_polys(nb)
    return PolyOde((tuple(c4), tuple(c3), tuple(c2)), z0=0.0)


def test_second_normal_form_residual_derived_vs_printed():
    cc = canonical_coeffs(NB)
    nf = normal_form_coeffs(cc)
    ode = reduced_ode(NB)
    rec = ode_to_recurrence(ode)
    z = 0.1
    sums, slog, flags = series_sums_lanes(rec.weights[None], [z - ode.z0], [0])
    assert flags[0] == 0
    u = tuple(float(d) / z ** k * math.exp(slog[0]) for k, d in enumerate(sums[0]))
    assert general_normal_form_residual(cc, nf, z, u) < 1e-9
    # the in-text lambda1 = gamma1 - alpha1/4 fails the same residual check
    nf_printed = dataclasses.replace(nf, lambda1=printed_normal_form(cc)["lambda1"])
    assert general_normal_form_residual(cc, nf_printed, z, u) > 1e-3


def test_approx_c_truncation_scales_quadratically():
    # dropped part of c2..c4 relative to exact shrinks ~4x when lam doubles^-1
    def defect(lam):
        nb = normalize_params(validate_params(1.0, 0.3, 0.1, 0.3, lam), 0.2)
        d = 0.0
        for e, a in zip(canon.exact_c_polys(nb), canon.approx_c_polys(nb)):
            n = max(len(e), len(a))
            ee = np.zeros(n)
            aa = np.zeros(n)
            ee[:len(e)] = e
            aa[:len(a)] = a
            # compare in units of the exact coefficient scale
            d = max(d, np.max(np.abs(ee - aa)) / np.max(np.abs(ee)))
        return d

    assert defect(0.05) / defect(0.025) == pytest.approx(2.0, rel=0.35)


def test_bch_params_printed_values():
    nb = NormalizedParams(20.0, 6.0, 0.0, 0.0, 2.0)
    bp = printed_bch_g0(nb)
    assert sorted(bp) == ["alpha", "gamma", "lambda1", "lambda3", "nu"]
    assert bp["lambda1"] == pytest.approx((1 + 10.0) * (1 - 15.0), rel=1e-12)
    assert bp["lambda3"] == pytest.approx(11 * 20 / 8 - 8.0, rel=1e-12)
    t = (2 / 20.0) * 2.0
    assert bp["nu"] == pytest.approx(t * (1 - t), rel=1e-12)
    assert bp["alpha"] == pytest.approx(-2 * (1 / 20 + 2) * 2.0 + 11 * 20 / 8 - 0.5,
                                        rel=1e-12)
    assert bp["gamma"] == pytest.approx(-(4 / 20.0) * 2.0, rel=1e-12)


def test_bch_params_eps_equals_e():
    nb = NormalizedParams(20.0, 6.0, 1.5, 0.0, 1.5)
    bp = printed_bch_g0(nb)
    assert bp["nu"] == 0.0
    assert bp["gamma"] == 0.0


def test_bch_params_requires_g_zero():
    with pytest.raises(ValidationError, match="g = 0 route called with g_bar"):
        printed_bch_g0(NB)


def test_bch_first_normal_form_residual():
    nb = NormalizedParams(20.0, 6.0, 0.0, 0.0, 2.0)
    bp = printed_bch_g0(nb)
    alpha, gamma = bp["alpha"], bp["gamma"]
    z = 0.3
    v = engine_bch_derivatives(alpha, 0.0, gamma, 0.0, [z])[0]
    res = z * v[2] - (gamma + z * z) * v[1] + alpha * z * v[0]
    assert abs(res) / max(1.0, abs(v[0])) < 1e-9


def test_v1_map_second_normal_consistency():
    # V = BCH solves the first normal form  ==>  U = V/gauge solves the
    # second normal form with the same parameters
    for (a, g) in [(18.8, -0.4), (3.3, 0.7), (1.1, -1.3)]:
        for z, v in zip((0.25, 0.8), engine_bch_derivatives(a, 0.0, g, 0.0, [0.25, 0.8])):
            assert second_normal_residual(a, 0.0, g, 0.0, z, v) < 1e-9


def test_engine_series_matches_bch_coefficients():
    zetas = [-0.7, 0.3, 1.2, 2.5, -1.9]
    for a, b, g, d in [(2.7, 0.0, 0.35, 0.0), (0.8, 0.25, 0.6, 0.15)]:
        for zeta, v in zip(zetas, engine_bch_derivatives(a, b, g, d, zetas)):
            np.testing.assert_allclose(v, reference_bch_derivatives(a, b, g, d, zeta),
                                       rtol=1e-12, atol=1e-12)
