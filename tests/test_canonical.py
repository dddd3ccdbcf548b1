import dataclasses
import math

import numpy as np
import pytest

from rabi_spectra import (
    NormalizedParams,
    bch_params_g0,
    canonical_coeffs,
    normalize_params,
    normal_form_coeffs,
    validate_params,
)
from rabi_spectra import canonical as canon
from rabi_spectra.errors import GNotZeroError, GZeroError
from rabi_spectra.polyops import pval
from rabi_spectra._kernels import FLAG_NONCONVERGED
from rabi_spectra.series import ode_to_recurrence, series_sums_lanes
from rabi_spectra.special import bch_derivatives, bch_series

NB = normalize_params(validate_params(1.0, 0.3, 0.1, 0.6, 0.05), 0.2)


def test_c2_roots_at_pm_g_over_omega():
    cc = canonical_coeffs(NB)
    q = NB.g_bar / NB.omega_bar
    assert pval(cc.c2, q) == pytest.approx(0.0, abs=1e-9)
    assert pval(cc.c2, -q) == pytest.approx(0.0, abs=1e-9)


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
        assert cc.reconstruction_error(z) < 1e-10


def test_g_zero_routed_away():
    nb0 = normalize_params(validate_params(1.0, 0.3, 0.1, 0.0, 0.05), 0.2)
    with pytest.raises(GZeroError):
        canonical_coeffs(nb0)


def test_nu_values():
    cc = canonical_coeffs(NB)
    nf = normal_form_coeffs(cc)
    assert nf.nu1 == pytest.approx(0.5 * cc.beta1 * (1 - 0.5 * cc.beta1))
    b1 = dataclasses.replace(cc, beta1=1.0)
    assert normal_form_coeffs(b1).nu1 == pytest.approx(0.25)
    b0 = dataclasses.replace(cc, beta1=0.0)
    assert normal_form_coeffs(b0).nu1 == 0.0


def test_second_normal_form_residual_derived_vs_printed():
    cc = canonical_coeffs(NB)
    nf = normal_form_coeffs(cc)
    ode = cc.reduced_ode()
    rec = ode_to_recurrence(ode)
    z = 0.1
    sums, slog, flags = series_sums_lanes(rec.weights[None], [z - ode.z0], [0])
    assert flags[0] == 0
    u = tuple(float(d) / z ** k * math.exp(slog[0]) for k, d in enumerate(sums[0]))
    assert canon.general_normal_form_residual(cc, nf, z, u) < 1e-9
    # the in-text lambda1 = gamma1 - alpha1/4 fails the same residual check
    nf_printed = dataclasses.replace(nf, lambda1=nf.printed["lambda1"])
    assert canon.general_normal_form_residual(cc, nf_printed, z, u) > 1e-3


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
    bp = bch_params_g0(nb)
    assert bp.lambda2 == 0.0 and bp.mu == 0.0
    assert bp.lambda1 == pytest.approx((1 + 10.0) * (1 - 15.0), rel=1e-12)
    assert bp.lambda3 == pytest.approx(11 * 20 / 8 - 8.0, rel=1e-12)
    t = (2 / 20.0) * 2.0
    assert bp.nu == pytest.approx(t * (1 - t), rel=1e-12)
    assert bp.alpha == pytest.approx(-2 * (1 / 20 + 2) * 2.0 + 11 * 20 / 8 - 0.5,
                                     rel=1e-12)
    assert bp.gamma == pytest.approx(-(4 / 20.0) * 2.0, rel=1e-12)
    # lambda1 < 0 here: the quarter-phase cancels and the scale is real
    assert abs(bp.xi_scale.imag) < 1e-12
    assert bp.xi_scale.real == pytest.approx((4 * abs(bp.lambda1)) ** 0.25)


def test_bch_params_eps_equals_e():
    nb = NormalizedParams(20.0, 6.0, 1.5, 0.0, 1.5)
    bp = bch_params_g0(nb)
    assert bp.nu == 0.0
    assert bp.gamma == 0.0


def test_bch_params_requires_g_zero():
    with pytest.raises(GNotZeroError):
        bch_params_g0(NB)


def test_bch_first_normal_form_residual():
    nb = NormalizedParams(20.0, 6.0, 0.0, 0.0, 2.0)
    bp = bch_params_g0(nb)
    z = 0.3
    v = bch_derivatives(bp.alpha, 0.0, bp.gamma, 0.0, z)
    res = z * v[2] - (bp.gamma + z * z) * v[1] + bp.alpha * z * v[0]
    assert abs(res) / max(1.0, abs(v[0])) < 1e-9


def test_v1_map_second_normal_consistency():
    # V = BCH solves the first normal form  ==>  U = V/gauge solves the
    # second normal form with the same parameters
    for (a, g) in [(18.8, -0.4), (3.3, 0.7), (1.1, -1.3)]:
        for z in (0.25, 0.8):
            v = bch_derivatives(a, 0.0, g, 0.0, z)
            assert canon.second_normal_residual(a, 0.0, g, 0.0, z, v) < 1e-9


def test_engine_series_matches_bch_coefficients():
    a, g = 2.7, 0.35
    ode = canon.bch_first_normal_ode(a, 0.0, g, 0.0)
    rec = ode_to_recurrence(ode)
    zetas = [-0.7, 0.3, 1.2, 2.5]
    sums, slog, flags = series_sums_lanes(np.stack([rec.weights] * 4), zetas, [0] * 4)
    assert not np.any(flags & FLAG_NONCONVERGED)
    for zeta, value in zip(zetas, sums[:, 0] * np.exp(slog)):
        assert value == pytest.approx(bch_series(a, 0.0, g, 0.0, zeta),
                                      rel=1e-12, abs=1e-12)
