import math

import numpy as np
import pytest

from rabi_spectra import (
    che_params,
    g_function_heun,
    heun_spectrum,
    oracle_spectrum,
    validate_params,
)
from rabi_spectra import _kernels, bcf, fock
from rabi_spectra.errors import EvalPointOutOfDiskError, GZeroError, LambdaNotZeroError
from rabi_spectra.heun import che_ode, g_function_heun_batch, heun_reduction
from rabi_spectra.series import ode_residual, ode_to_recurrence, series_eval
from rabi_spectra.twopoint import resonance_ladder

P_CRIT = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)


@pytest.fixture(scope="module")
def oracle_crit():
    return oracle_spectrum(P_CRIT, 100, 14).eigenvalues


def test_che_quadratic_identity_and_beta():
    che = che_params(P_CRIT, 0.0, "minus")
    assert abs(che.quad_residual) < 1e-12
    q2 = 0.36
    # corrected gauge exponents are +-2 q^2 (the printed (1 pm sqrt5) q^2
    # descends from the misprinted reduction; see the audit)
    assert che.k == pytest.approx(-2 * q2, rel=1e-12)
    assert che_params(P_CRIT, 0.0, "plus").k == pytest.approx(2 * q2, rel=1e-12)
    # beta is E-dependent in the corrected chain: (eps - E)/omega - q^2
    assert che.beta == pytest.approx((0.15 - 0.0) - q2, rel=1e-12)
    assert che.gamma == pytest.approx(-q2 - 0.15, rel=1e-12)


def test_che_requires_lambda_zero_and_g_nonzero():
    with pytest.raises(LambdaNotZeroError):
        che_params(validate_params(1.0, 0.4, 0.1, 0.6, 0.1), 0.0)
    with pytest.raises(GZeroError):
        che_params(validate_params(1.0, 0.4, 0.1, 0.0, 0.0), 0.0)


def test_route_refuses_lambda_before_the_closed_form():
    # delta = 0 takes the closed form, but only inside the route's own domain
    with pytest.raises(LambdaNotZeroError):
        heun_spectrum(validate_params(1.0, 0.0, 0.1, 0.4, 0.1), -1.0, 3.0, 0.05)


def test_series_solve_the_transformed_equation():
    # local series of both expansions satisfy the CHE to machine accuracy
    che = che_params(P_CRIT, -0.1)
    for z0, x in ((0.0, 0.15), (1.0, 0.85)):
        ode = che_ode(che, z0)
        rec = ode_to_recurrence(ode)
        _v, _d, sol = series_eval(rec, x)
        assert ode_residual(ode, sol, x) < 1e-10


def test_g_small_at_eigenvalue(oracle_crit):
    s = g_function_heun(P_CRIT, float(oracle_crit[0]))
    assert s.ok
    assert abs(s.g_value) < 1e-6


def test_sign_constant_between_eigenvalues(oracle_crit):
    # sign constant between consecutive eigenvalues, except across a pole of
    # the determinant (a resonance-ladder point), where it must flip
    e1, e2 = float(oracle_crit[0]), float(oracle_crit[1])
    ladder = [e for e, _s, _n in resonance_ladder(heun_reduction(P_CRIT), e1, e2)]
    pts = [e1 + t * (e2 - e1) for t in np.linspace(0.12, 0.88, 5)]
    samples = [(e, g_function_heun(P_CRIT, e)) for e in pts]
    for (ea, sa), (eb, sb) in zip(samples, samples[1:]):
        if not (sa.ok and sb.ok):
            continue
        flips = np.sign(sa.g_value) != np.sign(sb.g_value)
        poles_between = [L for L in ladder if ea < L < eb]
        assert flips == (len(poles_between) % 2 == 1), \
            f"unexpected sign pattern in ({ea}, {eb})"


def test_zeta_star_invariance_of_sign_and_zero():
    # same sign pattern and same refined zero at two gluing points
    for e in (0.0, 0.65):
        s4 = g_function_heun(P_CRIT, e, zeta_star=0.4)
        s6 = g_function_heun(P_CRIT, e, zeta_star=0.6)
        assert np.sign(s4.g_value) == np.sign(s6.g_value)


def test_zeta_star_validation():
    with pytest.raises(EvalPointOutOfDiskError):
        g_function_heun(P_CRIT, 0.0, zeta_star=1.2)


def test_spectrum_matches_oracle_small_window(oracle_crit):
    res = heun_spectrum(P_CRIT, -1.0, 1.0, 0.05)
    win = [e for e in oracle_crit if -1.0 <= e <= 1.0]
    assert len(res.energies) == len(win)
    for e in win:
        assert np.min(np.abs(res.energies - e)) < 1e-6


def test_k_branch_consistency(oracle_crit):
    # the plus gauge is not scanned; at every 'regular:both' root of the
    # minus gauge it must change sign across r +- 1e-8
    res = heun_spectrum(P_CRIT, -1.0, 1.0, 0.05)
    assert res.labels and all(lab == "regular:both" for lab in res.labels)
    lo = g_function_heun_batch(P_CRIT, res.energies - 1e-8, k_branch="plus")
    hi = g_function_heun_batch(P_CRIT, res.energies + 1e-8, k_branch="plus")
    assert all(a.ok and b.ok and a.g_value * b.g_value < 0.0
               for a, b in zip(lo, hi))


def test_zero_set_stable_across_gluing_points():
    roots = {}
    for zs in (0.35, 0.5, 0.65):
        res = heun_spectrum(P_CRIT, -1.0, 1.0, 0.05, zeta_star=zs)
        roots[zs] = res.energies
    for zs in (0.5, 0.65):
        assert len(roots[zs]) == len(roots[0.35])
        np.testing.assert_allclose(roots[zs], roots[0.35], atol=1e-8)


def test_empty_window():
    res = heun_spectrum(P_CRIT, 0.3, 0.3, 0.05)
    assert res.energies.size == 0


def test_delta_zero_reproduces_closed_form():
    p = validate_params(1.0, 0.0, 0.15, 0.6, 0.0)
    res = heun_spectrum(p, -1.0, 2.0, 0.05)
    ev = fock.eigenvalues(p, 200)
    ref = ev[(ev >= -1.0) & (ev <= 2.0)]  # degenerate pairs counted twice
    assert len(res.energies) == len(ref)
    np.testing.assert_allclose(res.energies, ref, rtol=0, atol=1e-12)


def test_exact_solvability_random_draws():
    # bijection roots <-> oracle eigenvalues on a window, random params
    rng = np.random.RandomState(23)
    for _ in range(5):
        p = validate_params(1.0, rng.uniform(0.1, 1.0),
                            rng.uniform(-0.3, 0.3),
                            rng.uniform(0.15, 1.0), 0.0)
        res = heun_spectrum(p, -1.0, 1.5, 0.05)
        ev = oracle_spectrum(p, 100, 12).eigenvalues
        win = [e for e in ev if -1.0 <= e <= 1.5]
        assert len(res.energies) == len(win), (p, res.energies, win)
        for e in win:
            assert np.min(np.abs(res.energies - e)) < 1e-6 * p.omega


P_BCF = validate_params(1.0, 0.3, 0.0, 0.05, 0.02)
#: route -> (ODE at zeta = 0 from the scalar reduction, batched G-function)
ROUTES = {
    "heun-minus": (lambda e: che_ode(che_params(P_CRIT, e, "minus"), 0.0),
                   lambda es: g_function_heun_batch(P_CRIT, es, k_branch="minus")),
    "heun-plus": (lambda e: che_ode(che_params(P_CRIT, e, "plus"), 0.0),
                  lambda es: g_function_heun_batch(P_CRIT, es, k_branch="plus")),
    "bcf": (lambda e: bcf.bcf_ode(bcf.bcf_reduce(P_BCF, e), 0.0),
            lambda es: bcf.g_function_bcf_batch(P_BCF, es)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_batched_g_matches_scalar_reduction_chain(route):
    # energies reach well past the template's probes at E = -omega, 0, omega
    ode_at_0, g_batch = ROUTES[route]
    energies = np.linspace(-1.0, 4.0, 23)
    batch = g_batch(energies)
    for e, s in zip(energies, batch):
        ode0 = ode_at_0(e)
        ode1 = type(ode0)(ode0.polys, z0=1.0)
        v0, d0, s0 = series_eval(ode_to_recurrence(ode0), 0.5)
        v1, d1, s1 = series_eval(ode_to_recurrence(ode1), 0.5)
        # value and derivative of one side share a scale, which cancels
        (a, b), (c, d) = [(v.mantissa, dv.mantissa) for v, dv in ((v0, d0), (v1, d1))]
        ref = (a * d - c * b) / (math.hypot(a, b) * math.hypot(c, d))
        kflags = s0.flags | s1.flags
        flags = {name for bit, name in (
            (_kernels.FLAG_NONCONVERGED, "series_nonconverged"),
            (_kernels.FLAG_RESONANT_COMPATIBLE | _kernels.FLAG_RESONANT_INCOMPATIBLE,
             "near_resonance")) if kflags & bit}
        assert s.flags == flags
        assert s.g_value == pytest.approx(ref, rel=1e-9, abs=1e-12)
    # lanes do not interact: a one-lane call gives the same sample bit for bit
    for i in (0, 11, 22):
        assert g_batch(energies[i:i + 1])[0] == batch[i]
