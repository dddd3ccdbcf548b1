import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabi_spectra import (
    g_function_bcf_batch,
    g_function_heun,
    heun_spectrum,
    oracle_spectrum,
    validate_params,
)
from rabi_spectra import _kernels, fock, twopoint
from rabi_spectra.audit import _che_partial_fractions, che_symbols
from rabi_spectra.errors import ValidationError
from rabi_spectra.heun import g_function_heun_batch
from rabi_spectra.canonical import asymmetric_second_order
from rabi_spectra.rootscan import same_energy
from rabi_spectra.series import PolyOde, ode_residual, ode_to_recurrence, series_sums_lanes
from rabi_spectra.twopoint import (g_function_batch, map_to_zeta, reduction, resonance_ladder,
                                   zeta_form)
from test_kernels import reference_series

HEUN, BCF = twopoint.ROUTES["heun"], twopoint.ROUTES["bcf"]
P_CRIT = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)


@pytest.fixture(scope="module")
def oracle_crit():
    return oracle_spectrum(P_CRIT, 100, 14).eigenvalues


def zeta2_coefficient(c):
    """The zeta^2 coefficient of a coefficient tuple, whose trailing exact
    zeros are trimmed."""
    return (tuple(c) + (0.0,) * 3)[2]


def test_che_quadratic_identity_and_beta():
    q2 = 0.36
    # the route's gauge k = -2 q^2 cancels the zeta^2 coefficient of the
    # zero-order coefficient, which the confluent Heun equation drops
    p0, p1, p2 = map_to_zeta(asymmetric_second_order(P_CRIT, 0.0), -2 * q2)
    assert abs(zeta2_coefficient(p0)) < 1e-12
    assert zeta_form(HEUN, P_CRIT, 0.0) == (p0[:2], p1, p2)
    # corrected gauge exponents are +-2 q^2 (the printed (1 pm sqrt5) q^2
    # descends from the misprinted reduction; see the audit)
    _q, _table, (k_plus, k_minus) = _che_partial_fractions(P_CRIT, 0.0)
    assert (k_plus, k_minus) == pytest.approx((2 * q2, -2 * q2), rel=1e-12)
    # beta is E-dependent in the corrected chain: (eps - E)/omega - q^2
    sym = che_symbols(zeta_form(HEUN, P_CRIT, 0.0))
    assert sym["beta"] == pytest.approx((0.15 - 0.0) - q2, rel=1e-12)
    assert sym["gamma"] == pytest.approx(-q2 - 0.15, rel=1e-12)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(delta=st.floats(0.0, 1.0), eps=st.floats(-1.0, 1.0), g=st.floats(0.05, 1.0),
       sign=st.sampled_from([-1.0, 1.0]), energy=st.floats(-3.0, 6.0))
def test_heun_maps_the_exact_composition(delta, eps, g, sign, energy):
    # the route reads the truncated parent at lam = 0; the exact composition
    # is the audit's reference, and the two equations in zeta agree relative
    # to the equation's largest coefficient (P0's can be a cancellation's
    # small remainder)
    p = validate_params(1.0, delta, eps, sign * g, 0.0)
    p0, p1, p2 = map_to_zeta(asymmetric_second_order(p, energy), HEUN.gauge(p))
    exact = (p0[:2], p1, p2)
    scale = max(np.max(np.abs(c)) for c in exact)
    for c, ref in zip(zeta_form(HEUN, p, energy), exact):
        assert len(c) == len(ref)
        np.testing.assert_allclose(c, ref, rtol=0.0, atol=1e-14 * scale)


def test_the_gauge_discriminant_is_16_q4():
    # the partial fractions give A1 = 0 and B1 = -q^2, so the gauge exponent
    # k = -+2 q^2 is real wherever g != 0; the builder's zeta^2 coefficient
    # of P0 is -4 q^4 + k^2, which each root cancels
    rng = np.random.RandomState(11)
    for _ in range(200):
        omega = 10 ** rng.uniform(-3, 3)
        g = omega * 10 ** rng.uniform(-6, 1) * rng.choice([-1, 1])
        p = validate_params(omega, *omega * rng.uniform(-2, 2, size=2), g, 0.0)
        energy = omega * rng.uniform(-5, 5)
        q, table, roots = _che_partial_fractions(p, energy)
        q2 = q * q
        assert table["A1"] == pytest.approx(0.0, abs=1e-12 * q2)
        assert table["B1"] == pytest.approx(-q2, rel=1e-12)
        assert roots == pytest.approx((2 * q2, -2 * q2), rel=1e-12)
        for k in roots:
            p0 = map_to_zeta(asymmetric_second_order(p, energy), k)[0]
            assert abs(zeta2_coefficient(p0)) <= 1e-12 * 4 * q2 * q2
        # the route drops that coefficient: a three-term recurrence
        assert len(zeta_form(HEUN, p, energy)[0]) <= 2


def test_che_requires_lambda_zero_and_g_nonzero():
    with pytest.raises(ValidationError, match="heun route needs lambda = 0"):
        zeta_form(HEUN, validate_params(1.0, 0.4, 0.1, 0.6, 0.1), 0.0)
    with pytest.raises(ValidationError, match="q = 0: the two regular singularities collide"):
        zeta_form(HEUN, validate_params(1.0, 0.4, 0.1, 0.0, 0.0), 0.0)


def test_route_refuses_lambda_before_the_closed_form():
    # delta = 0 takes the closed form, but only inside the route's own domain
    with pytest.raises(ValidationError, match="heun route needs lambda = 0"):
        heun_spectrum(validate_params(1.0, 0.0, 0.1, 0.4, 0.1), -1.0, 3.0, 0.05)


def test_series_solve_the_transformed_equation():
    # local series of both expansions satisfy the CHE to machine accuracy
    che = zeta_form(HEUN, P_CRIT, -0.1)
    for z0, x in ((0.0, 0.15), (1.0, 0.85)):
        ode = PolyOde(che, z0=z0)
        rec = ode_to_recurrence(ode)
        sums, slog, _flags = series_sums_lanes(rec.weights[None], [x - z0], [0])
        assert ode_residual(ode, x, sums[0], slog[0]) < 1e-10


def test_g_small_at_eigenvalue(oracle_crit):
    s = g_function_heun(P_CRIT, float(oracle_crit[0]))
    assert s.ok
    assert abs(s.g_value) < 1e-6


def test_sign_constant_between_eigenvalues(oracle_crit):
    # sign constant between consecutive eigenvalues, except across a pole of
    # the determinant (a resonance-ladder point), where it must flip
    e1, e2 = float(oracle_crit[0]), float(oracle_crit[1])
    ladder = [e for e, _s, _n in resonance_ladder(reduction(HEUN, P_CRIT), e1, e2)]
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
    with pytest.raises(ValidationError, match="zeta_star must lie in"):
        g_function_heun(P_CRIT, 0.0, zeta_star=1.2)


def test_spectrum_matches_oracle_small_window(oracle_crit):
    res = heun_spectrum(P_CRIT, -1.0, 1.0, 0.05)
    win = [e for e in oracle_crit if -1.0 <= e <= 1.0]
    assert len(res.energies) == len(win)
    for e in win:
        assert np.min(np.abs(res.energies - e)) < 1e-6


def g_function_gauged_batch(p, energies, k):
    """G of the heun route's parent mapped to zeta and gauged by exp(k zeta),
    k in place of the route's -2 (g / omega)^2."""
    return g_function_batch(dataclasses.replace(HEUN, gauge=lambda _p: k), p, energies)


def assert_each_gauge_changes_sign_at_each_regular_root(p, res):
    """The gauge factor exp(k zeta) multiplies both local solutions alike, so
    the gauges k = +2 (g / omega)^2 and k = 0, which no heun spectrum
    evaluates, change sign across r +- 1e-8 omega at every root r of the
    scanned gauge that is not exceptional."""
    roots = np.array([e for e, lab in zip(res.energies, res.labels) if lab == "regular"])
    for k in (2 * (p.g / p.omega) ** 2, 0.0):
        lo = g_function_gauged_batch(p, roots - 1e-8 * p.omega, k)
        hi = g_function_gauged_batch(p, roots + 1e-8 * p.omega, k)
        assert all(a.ok and b.ok and a.g_value * b.g_value < 0.0
                   for a, b in zip(lo, hi)), (p, k)


def test_k_branch_consistency():
    res = heun_spectrum(P_CRIT, -1.0, 1.0, 0.05)
    assert res.labels and set(res.labels) == {"regular"}
    assert_each_gauge_changes_sign_at_each_regular_root(P_CRIT, res)


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
#: route -> (ODE at zeta = 0 from the one-energy zeta-form, batched
#: G-function); heun-plus gauges P_CRIT by k = +2 q^2 instead of the route's
#: -2 q^2
ROUTES = {
    "heun-minus": (lambda e: PolyOde(zeta_form(HEUN, P_CRIT, e)),
                   lambda es: g_function_heun_batch(P_CRIT, es)),
    "heun-plus": (lambda e: PolyOde(map_to_zeta(asymmetric_second_order(P_CRIT, e),
                                                2 * 0.36)),
                  lambda es: g_function_gauged_batch(P_CRIT, es, 2 * 0.36)),
    "bcf": (lambda e: PolyOde(zeta_form(BCF, P_BCF, e)),
            lambda es: g_function_bcf_batch(P_BCF, es)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_batched_g_matches_scalar_reduction_chain(route):
    # energies reach well past the template's probes at E = -omega, 0, omega;
    # the reference rolls each derived recurrence by the scalar reference loop
    ode_at_0, g_batch = ROUTES[route]
    energies = np.linspace(-1.0, 4.0, 23)
    batch = g_batch(energies)
    for e, s in zip(energies, batch):
        ode0 = ode_at_0(e)
        ode1 = type(ode0)(ode0.polys, z0=1.0)
        ds0, _s0, f0 = reference_series(ode_to_recurrence(ode0), 0.5)
        ds1, _s1, f1 = reference_series(ode_to_recurrence(ode1), 0.5)
        # value and derivative of one side share a scale, which cancels
        (a, b), (c, d) = (ds0[0], ds0[1] / 0.5), (ds1[0], ds1[1] / -0.5)
        ref = (a * d - c * b) / (math.hypot(a, b) * math.hypot(c, d))
        kflags = f0 | f1
        flags = {name for bit, name in (
            (_kernels.FLAG_NONCONVERGED, "series_nonconverged"),
            (_kernels.FLAG_RESONANT_COMPATIBLE | _kernels.FLAG_RESONANT_INCOMPATIBLE,
             "near_resonance")) if kflags & bit}
        assert s.flags == flags
        assert s.g_value == pytest.approx(ref, rel=1e-9, abs=1e-12)
    # lanes do not interact: a one-lane call gives the same sample bit for bit
    for i in (0, 11, 22):
        assert g_batch(energies[i:i + 1])[0] == batch[i]


REGULAR = "regular"
#: heun windows that must be the oracle spectrum level by level, with their
#: labels: the two sides' ladders coincide (eps = 0 or omega/2, double poles),
#: delta is tuned so that a ladder point is an exceptional eigenvalue, or
#: delta sits just above the vanishing threshold
ORACLE_WINDOWS = {
    "coincident-eps0": ((1.0, 0.4, 0.0, 0.6, 0.0), (-1.0, 4.0), (REGULAR,) * 10),
    "coincident-eps0-g0.5": ((1.0, 0.3, 0.0, 0.5, 0.0), (-1.0, 4.0), (REGULAR,) * 10),
    "coincident-eps0.5": ((1.0, 0.4, 0.5, 0.6, 0.0), (-1.0, 4.0), (REGULAR,) * 9),
    "exceptional-one": ((1.0, 0.389143621728628, 0.15, 0.6, 0.0), (-1.0, 4.0),
                        (REGULAR,) * 2 + ("exceptional:one:1",) + (REGULAR,) * 7),
    "exceptional-origin": ((1.0, 0.253313644078915, 0.1, 0.4, 0.0), (-1.0, 4.0),
                           (REGULAR,) * 3 + ("exceptional:origin:0",) + (REGULAR,) * 6),
    # each doublet splits by about 5e-7 around a ladder point
    "near-threshold": ((1.0, 1e-6, 0.0, 0.6, 0.0), (-1.0, 2.0), (REGULAR,) * 6),
}
#: the exceptional eigenvalue of each tuned window
EXCEPTIONAL_AT = {"exceptional-one": 0.49, "exceptional-origin": 0.94}


@pytest.mark.parametrize("case", sorted(ORACLE_WINDOWS))
def test_window_is_the_oracle_spectrum(case):
    params, (e_min, e_max), labels = ORACLE_WINDOWS[case]
    p = validate_params(*params)
    res = heun_spectrum(p, e_min, e_max, 0.05)
    ev = fock.eigenvalues(p, 200)
    np.testing.assert_allclose(res.energies, ev[(ev >= e_min) & (ev <= e_max)],
                               rtol=0.0, atol=1e-8)
    assert res.labels == labels
    for e, lab in zip(res.energies, res.labels):
        if lab.startswith("exceptional:"):
            assert e == pytest.approx(EXCEPTIONAL_AT[case], abs=1e-10)


#: eps = 2 omega puts the two sides' ladder points on one energy; in this
#: window each such pair near 2.8377 and 3.8377 comes out 3.1e-15 and
#: 4.0e-15 apart, beyond the grid's same-energy rule
P_UNMERGED = validate_params(1.0, 0.5412136893387894, 2.0, 0.4028717851599491, 0.0)


def test_double_pole_the_merge_misses_is_still_sampled():
    # each knot's second-kind lane is caught by the other side's resonance
    # guard
    p = P_UNMERGED
    for lo in (2.8, 3.8):
        (e0, _s0, _m0), (e1, _s1, _m1) = resonance_ladder(reduction(HEUN, p), lo, lo + 0.1)
        assert 0.0 < e1 - e0 < 1e-14 and not same_energy(e0, e1)
    res = heun_spectrum(p, -1.0, 4.0, 0.05)
    ev = fock.eigenvalues(p, 200)
    np.testing.assert_allclose(res.energies, ev[(ev >= -1.0) & (ev <= 4.0)],
                               rtol=0.0, atol=1e-8)
    assert (res.report.excluded, res.report.suspects) == ((), ())


def test_caught_knot_takes_the_lane_above(monkeypatch):
    # the same window: each knot near 2.8377 and 3.8377 is caught by the
    # guard, its own second-kind lane flagged resonant; its grid sample
    # takes the magnitude (and sign) of the first-kind lane 1e-9 omega above
    p = P_UNMERGED
    grid_calls = []
    scan_and_refine = twopoint.scan_and_refine

    def recording(f, cfg):
        def recorded(es):
            g, bits = f(es)
            grid_calls.append((es, g.copy()))
            return g, bits
        return scan_and_refine(recorded, cfg)

    monkeypatch.setattr(twopoint, "scan_and_refine", recording)
    heun_spectrum(p, -1.0, 4.0, 0.05)
    red = reduction(HEUN, p)
    ladder = np.array([e for e, _s, _m in resonance_ladder(red, -1.0, 4.0)])
    knots = ladder[ladder > 2.0]
    es, g = grid_calls[0]
    at = np.searchsorted(es, knots)
    np.testing.assert_array_equal(es[at], knots)
    above, _log_g, _bits = twopoint._wronskian(
        red, knots + 1e-9 * p.omega, np.zeros((2, knots.size), int), 0.5)
    np.testing.assert_allclose(np.abs(g[at]), np.abs(above), rtol=1e-12)
    np.testing.assert_allclose(np.abs(g[at]), [0.534, 0.534, 0.314, 0.314], atol=0.01)


def test_juddian_point_flips_no_sign():
    # eps = 0 and delta^2 = omega^2 - 4 g^2: both sides are compatible at the
    # double knot 0.91 = omega - g^2, so the determinant has no pole there;
    # no sign may flip (which would read as a pole or a spurious root)
    p = validate_params(1.0, 0.8, 0.0, 0.3, 0.0)
    res = heun_spectrum(p, -1.0, 3.0, 0.05)
    ev = fock.eigenvalues(p, 200)
    assert res.energies.size == 5
    assert all(np.min(np.abs(ev - e)) <= 1e-8 for e in res.energies)
    assert (res.report.excluded, res.report.suspects) == ((), ())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(delta=st.floats(0.05, 0.8), eps=st.sampled_from([0.0, 0.5, None]),
       eps_free=st.floats(-0.4, 0.4), g=st.floats(0.2, 0.8),
       e_min=st.floats(-1.5, 1.0), width=st.floats(0.5, 3.0))
def test_every_level_is_a_distinct_oracle_level(delta, eps, eps_free, g, e_min, width):
    # eps = 0 and omega/2 put the two sides' ladder points on one energy
    p = validate_params(1.0, delta, eps_free if eps is None else eps, g, 0.0)
    res = heun_spectrum(p, e_min, e_min + width, 0.05)
    free = list(fock.eigenvalues(p, 200))
    for e in res.energies:
        j = int(np.argmin(np.abs(np.array(free) - e)))
        assert abs(free.pop(j) - e) <= 1e-8, (p, e)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(delta=st.floats(0.05, 0.9), eps=st.floats(-0.4, 0.4), g=st.floats(0.1, 0.9))
def test_mirrored_sector_has_the_same_spectrum(delta, eps, g):
    # (eps, g) -> -(eps, g) is the other spin sector of one Hamiltonian.  The
    # bcf route is left out: its q^2 = g^2 + 2 lambda (omega + eps) is not
    # mirror-symmetric, and a mirrored draw can leave the real axis
    # (NumericalError)
    p = validate_params(1.0, delta, eps, g, 0.0)
    res, mirror = (heun_spectrum(q, -1.0, 3.0, 0.05) for q in (p, p.mirrored()))
    assert mirror.labels == res.labels
    np.testing.assert_allclose(mirror.energies, res.energies, rtol=0.0, atol=1e-9)
