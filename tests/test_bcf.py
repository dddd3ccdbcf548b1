import math

import numpy as np
import pytest

from rabi_spectra import (
    ModelParams,
    bcf_reduce,
    bcf_spectrum,
    g_function_bcf,
    heun_spectrum,
    oracle_spectrum,
    validate_params,
)
from rabi_spectra import fock
from rabi_spectra.bcf import bcf_ode
from rabi_spectra.errors import ComplexSingularityError
from rabi_spectra.operators import compose_fourth_order
from rabi_spectra.polyops import poly
from rabi_spectra.series import PolyOde, ode_residual, ode_to_recurrence, series_sums_lanes

P3 = validate_params(1.0, 0.3, 0.0, 0.05, 0.02)


def test_q_at_reference_point():
    # at eps = E = 0 the corrected and printed q coincide: sqrt(0.11)
    p = validate_params(1.0, 0.0, 0.0, 0.1, 0.05)
    b = bcf_reduce(p, 0.0)
    assert b.q == pytest.approx(math.sqrt(0.11), abs=1e-7)


def test_lambda_zero_limit():
    p = validate_params(1.0, 0.3, 0.1, 0.4, 0.0)
    b = bcf_reduce(p, 0.2)
    assert b.q == pytest.approx(0.4, rel=1e-14)
    assert b.alpha1 == 0.0
    assert b.alpha2 == 0.0
    # gamma1 = 4 q^2 B3 = 4 q^4 stays finite (the exp(k zeta) gauge is simply
    # not applied on this route)
    assert b.gamma1 == pytest.approx(-4 * 0.4 ** 4, rel=1e-12) or \
        b.gamma1 == pytest.approx(4 * 0.4 ** 4, rel=1e-12)


def test_defining_combinations_consistent():
    b = bcf_reduce(P3, 0.3)
    assert b.mu == pytest.approx(b.beta1 + b.beta2 - b.alpha2, abs=1e-14)
    assert b.nu == pytest.approx(b.alpha2 - b.alpha1, abs=1e-14)
    assert b.gamma_c == pytest.approx(b.gamma2 + b.gamma3 - b.gamma1, abs=1e-14)
    assert b.delta == pytest.approx(b.alpha1 + b.alpha2 + b.beta1 + b.beta2,
                                    abs=1e-14)


def test_complex_singularity():
    # lam < 0 with tiny g drives q^2 negative
    p = ModelParams(1.0, 0.3, 0.0, 0.001, -0.05)
    with pytest.raises(ComplexSingularityError):
        bcf_reduce(p, 0.0)
    with pytest.raises(ComplexSingularityError):
        bcf_spectrum(p, -0.5, 0.5, 0.05)


def test_sample_call_raises_as_the_reduction_does():
    # q^2 <= 0 at every energy: the public sample call fails as bcf_reduce
    # (and bcf_spectrum) do
    p = validate_params(1.0, 0.3, 0.0, 0.01, -0.1)
    with pytest.raises(ComplexSingularityError):
        bcf_reduce(p, 0.0)
    with pytest.raises(ComplexSingularityError):
        g_function_bcf(p, 0.0)


def test_local_series_satisfy_reduced_equation():
    b = bcf_reduce(P3, 0.1)
    for z0, x in ((0.0, 0.15), (1.0, 0.85)):
        ode = bcf_ode(b, z0)
        rec = ode_to_recurrence(ode)
        sums, slog, _flags = series_sums_lanes(rec.weights[None], [x - z0], [0])
        assert ode_residual(ode, x, sums[0], slog[0]) < 1e-10


def test_four_term_reduces_to_three_term_when_alpha1_gamma1_zero():
    # coefficient-level identity: with alpha1 = gamma1 = 0 the lag-3 weights
    # vanish identically and the remaining weights are the confluent-Heun ones
    b = bcf_reduce(P3, 0.1)
    import dataclasses
    b0 = dataclasses.replace(b, alpha1=0.0, gamma1=0.0)
    for z0 in (0.0, 1.0):
        rec = ode_to_recurrence(bcf_ode(b0, z0))
        last = rec.weights[4]
        assert not np.any(np.abs(last) > 0)
        used = np.flatnonzero(np.any(rec.weights != 0.0, axis=1))
        assert used[-1] - used[0] + 1 == 3


def test_g_small_at_oracle_eigenvalue():
    ev = oracle_spectrum(P3, 120, 4).eigenvalues
    s = g_function_bcf(P3, float(ev[0]))
    assert s.ok and abs(s.g_value) < 5e-2
    res = bcf_spectrum(P3, float(ev[0]) - 0.1, float(ev[0]) + 0.1, 0.02)
    assert res.energies.size >= 1
    assert np.min(np.abs(res.energies - ev[0])) < 5e-3


def test_wronskian_zeta_star_invariance():
    roots = {}
    for zs in (0.4, 0.6):
        res = bcf_spectrum(P3, -0.6, 0.6, 0.05, zeta_star=zs)
        roots[zs] = res.energies
    assert len(roots[0.4]) == len(roots[0.6])
    np.testing.assert_allclose(roots[0.4], roots[0.6], atol=1e-8)


def test_spectrum_accuracy_and_quadratic_shrink():
    ev = oracle_spectrum(P3, 120, 8).eigenvalues
    res = bcf_spectrum(P3, -1.0, 1.6, 0.05)
    errs = [float(np.min(np.abs(ev - r))) for r in res.energies[:4]]
    assert max(errs) < 5e-3
    p_half = validate_params(1.0, 0.3, 0.0, 0.025, 0.01)
    ev2 = oracle_spectrum(p_half, 120, 8).eigenvalues
    res2 = bcf_spectrum(p_half, -1.0, 1.6, 0.05)
    errs2 = [float(np.min(np.abs(ev2 - r))) for r in res2.energies[:4]]
    assert max(errs) / max(errs2) >= 3.0


def test_quadratic_scaling_across_draws():
    # error ratio at s=1 vs s=1/2 in [2.5, 8] for three parameter draws
    rng = np.random.RandomState(9)
    for _ in range(3):
        de = rng.uniform(0.2, 0.5)
        ep = rng.uniform(-0.1, 0.1)
        g0, l0 = rng.uniform(0.03, 0.07), rng.uniform(0.01, 0.03)
        ratios = {}
        for s in (1.0, 0.5):
            p = validate_params(1.0, de, ep, s * g0, s * l0)
            ev = oracle_spectrum(p, 120, 8).eigenvalues
            res = bcf_spectrum(p, -1.0, 1.6, 0.05)
            errs = [float(np.min(np.abs(ev - r))) for r in res.energies[:4]]
            ratios[s] = max(errs)
        assert 2.5 <= ratios[1.0] / ratios[0.5] <= 8.0


def test_lambda_to_zero_continuity():
    p_small = validate_params(1.0, 0.4, 0.15, 0.05, 1e-6)
    p_zero = validate_params(1.0, 0.4, 0.15, 0.05, 0.0)
    res_b = bcf_spectrum(p_small, -0.6, 1.2, 0.05)
    res_h = heun_spectrum(p_zero, -0.6, 1.2, 0.05)
    assert len(res_b.energies) == len(res_h.energies)
    np.testing.assert_allclose(res_b.energies, res_h.energies, atol=1e-5)


def test_delta_zero_approaches_closed_form():
    p = validate_params(1.0, 0.0, 0.3, 0.1, 0.004)
    res = bcf_spectrum(p, -0.6, 1.4, 0.05)
    ev = fock.eigenvalues(p, 200)
    ref = ev[(ev >= -0.6) & (ev <= 1.4)]
    assert len(ref) >= 3
    assert len(res.energies) == len(ref)
    np.testing.assert_allclose(res.energies, ref, rtol=0, atol=1e-12)


def _fourth_order_residual(p, x):
    """The fourth-order equation at E = 0 and the ODE residual and flags of
    its series on branch 0 (a_0 = 1, a_1..a_3 = 0), summed at x."""
    ode = PolyOde(tuple(poly(c) for c in compose_fourth_order(p, 0.0)), z0=0.0)
    sums, slog, flags = series_sums_lanes(ode_to_recurrence(ode).weights[None],
                                          [x], [0])
    return ode, ode_residual(ode, x, sums[0], slog[0]), flags[0]


def test_full_series_general_and_two_photon():
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.1)
    _ode, res, _flags = _fourth_order_residual(p, 0.1)
    assert res < 1e-10
    # entire function: the sum converges at x = 2 too
    _ode, _res, flags = _fourth_order_residual(p, 2.0)
    assert flags == 0

    # two-photon case (g = 0): the odd-lag weights vanish and the nine-term
    # recurrence degenerates to the five-term one
    p0 = validate_params(1.0, 0.3, 0.1, 0.0, 0.1)
    ode5, res5, _flags = _fourth_order_residual(p0, 0.1)
    rec = ode_to_recurrence(ode5)
    for j in (1, 3, 5, 7):
        assert not np.any(np.abs(rec.weights[j]) > 0)
    assert res5 < 1e-10
