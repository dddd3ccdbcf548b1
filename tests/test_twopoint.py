import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabi_spectra import (
    RootScanConfig,
    _kernels,
    bcf,
    bcf_spectrum,
    fock,
    heun,
    heun_spectrum,
    rootscan,
    scan_and_refine,
    twopoint,
    validate_params,
)
from rabi_spectra.audit import bcf_symbols, che_symbols
from rabi_spectra.errors import ValidationError
from rabi_spectra.params import in_units_of_omega
from rabi_spectra.rootscan import FLAG_SETS
from rabi_spectra.series import PolyOde, ode_to_recurrence
from rabi_spectra.twopoint import ROUTES, reduction, resonance_ladder, zeta_form
from test_heun import assert_each_gauge_changes_sign_at_each_regular_root
from test_kernels import reference_series

HEUN, BCF = ROUTES["heun"], ROUTES["bcf"]

#: (route, params, window) -> labels, or the error the route raises; the
#: assembly decides these (exceptional tests), and at delta = 0 the
#: closed-form branches
LABELS = {
    "heun-delta0": (heun_spectrum, (1.0, 0.0, 0.15, 0.6, 0.0), (-1.0, 2.0),
                    ("closed:-:0", "closed:+:0", "closed:-:1", "closed:+:1",
                     "closed:-:2", "closed:+:2")),
    "bcf-delta0": (bcf_spectrum, (1.0, 0.0, 0.3, 0.1, 0.004), (-0.6, 1.4),
                   ("closed:-:0", "closed:+:0", "closed:-:1", "closed:+:1")),
    # levels -0.36, 0.64, 1.64, each doubly degenerate and returned once per branch
    "heun-delta0-eps0": (heun_spectrum, (1.0, 0.0, 0.0, 0.6, 0.0), (-1.0, 2.0),
                         ("closed:+:0", "closed:-:0", "closed:+:1", "closed:-:1",
                          "closed:+:2", "closed:-:2")),
    # both couplings vanish, so q = 0: the singularities collide, an input
    # outside the route's domain
    "bcf-degenerate": (bcf_spectrum, (1.0, 0.3, 0.1, 0.0, 0.0), (-1.0, 2.0),
                       (ValidationError, "q = 0: the two regular singularities collide")),
}


@pytest.mark.parametrize("spectrum", [heun_spectrum, bcf_spectrum], ids=["heun", "bcf"])
def test_both_routes_refuse_colliding_singularities(spectrum):
    # g = lambda = 0 with delta != 0 puts q = 0 on either route: one input
    # rule, one error kind
    with pytest.raises(ValidationError, match="q = 0: the two regular singularities collide"):
        spectrum(validate_params(1.0, 0.4, 0.1, 0.0, 0.0), -1.0, 1.0, 0.05)


@pytest.mark.parametrize("case", sorted(LABELS))
def test_assembly_labels(case):
    route, params, (e_min, e_max), labels = LABELS[case]
    if isinstance(labels[0], type):
        with pytest.raises(labels[0], match=labels[1]):
            route(validate_params(*params), e_min, e_max, 0.05)
        return
    res = route(validate_params(*params), e_min, e_max, 0.05)
    assert res.labels == labels
    assert len(res.energies) == len(labels)
    assert np.all(np.diff(res.energies) >= 0)
    if case == "heun-delta0-eps0":
        np.testing.assert_array_equal(res.energies[::2], res.energies[1::2])
        np.testing.assert_allclose(res.energies[::2], [-0.36, 0.64, 1.64], atol=1e-12)


#: (route, params, window) at delta = 0, where the routes return the closed
#: form; on bcf-delta0-a, bcf-delta0-b and heun-delta0-eps0 a determinant scan
#: of the decoupled sectors finds only 0 of 7, 2 of 7 and 3 of 6 levels
DELTA0 = {
    "heun-delta0": (heun_spectrum, (1.0, 0.0, 0.15, 0.6, 0.0), (-1.0, 2.0)),
    "heun-delta0-eps0": (heun_spectrum, (1.0, 0.0, 0.0, 0.6, 0.0), (-1.0, 2.0)),
    "heun-delta0-eps0.1": (heun_spectrum, (1.0, 0.0, 0.1, 0.6, 0.0), (-1.0, 2.0)),
    "heun-delta0-g0.4": (heun_spectrum, (1.0, 0.0, 0.1, 0.4, 0.0), (-1.0, 3.0)),
    "bcf-delta0": (bcf_spectrum, (1.0, 0.0, 0.3, 0.1, 0.004), (-0.6, 1.4)),
    "bcf-delta0-lam0": (bcf_spectrum, (1.0, 0.0, 0.15, 0.6, 0.0), (-1.0, 4.0)),
    "bcf-delta0-a": (bcf_spectrum, (1.0, 0.0, 0.0321, 0.1494, 0.0242), (-1.0, 3.0)),
    "bcf-delta0-b": (bcf_spectrum, (1.0, 0.0, -0.0192, 0.0594, 0.0098), (-1.0, 3.0)),
}


@pytest.mark.parametrize("case", sorted(DELTA0))
def test_delta0_window_is_the_oracle_spectrum(case, monkeypatch):
    def refuse(*args):
        raise AssertionError("a reduction was built")

    monkeypatch.setattr(twopoint, "reduction", refuse)
    route, params, (e_min, e_max) = DELTA0[case]
    p = validate_params(*params)
    res = route(p, e_min, e_max, 0.05)
    ev = fock.eigenvalues(p, 200)
    # every oracle level, with its multiplicity
    np.testing.assert_allclose(res.energies, ev[(ev >= e_min) & (ev <= e_max)],
                               rtol=0.0, atol=1e-12)
    assert all(re.fullmatch(r"closed:[+-]:\d+", lab) for lab in res.labels)
    assert len(set(res.labels)) == len(res.labels)
    assert res.metadata == {"route": "closed"}
    rep = res.report
    assert (rep.roots.size, rep.excluded, rep.suspects, rep.brackets,
            rep.n_evaluations) == (0, (), (), (), 0)


def che_index(p, e, side):
    """The resonant index of a confluent Heun series: -beta - 1 at zeta = 0
    and -gamma at zeta = 1."""
    sym = che_symbols(zeta_form(HEUN, p, e))
    return -sym["beta"] - 1.0 if side == "origin" else -sym["gamma"]


def bcf_index(p, e, side):
    """The resonant index of a reduced-equation series: beta2 at zeta = 0
    and beta1 at zeta = 1."""
    sym = bcf_symbols(zeta_form(BCF, p, e))
    return sym["beta2"] if side == "origin" else sym["beta1"]


#: case -> (route, params, scalar resonant index at (energy, side)); a
#: reduction works in units of omega, so the window [-1, 4] is divided by it
INDEX = {
    "heun": (HEUN, (1.0, 0.4, 0.15, 0.6, 0.0), che_index),
    "heun-g<0": (HEUN, (1.3, 0.2, -0.1, -0.5, 0.0), che_index),
    "bcf": (BCF, (1.0, 0.3, 0.1, 0.2, 0.1), bcf_index),
}


@pytest.mark.parametrize("case", sorted(INDEX))
def test_ladder_hits_the_scalar_resonant_index(case):
    route, params, index = INDEX[case]
    q, lo, hi = in_units_of_omega(validate_params(*params), -1.0, 4.0)
    ladder = resonance_ladder(reduction(route, q), lo, hi)
    assert {side for _e, side, _m in ladder} == {"origin", "one"}
    for e, side, m in ladder:
        assert index(q, e, side) == pytest.approx(m, abs=1e-9)


#: reductions whose weights are fitted from three probes; alpha1 vanishes on
#: the bcf route, so every probe drops that coefficient.  A reduction works
#: in units of omega.
FITTED = {
    "heun-P2": (HEUN, (1.0, 0.4, 0.15, 0.6, 0.0)),
    "heun-g<0": (HEUN, (1.3, 0.2, -0.1, -0.5, 0.0)),
    "bcf-P3": (BCF, (1.0, 0.3, 0.0, 0.05, 0.02)),
    "bcf": (BCF, (1.0, 0.3, 0.1, 0.2, 0.1)),
}


@pytest.mark.parametrize("case", sorted(FITTED))
def test_fitted_weights_are_the_derived_recurrence(case):
    # the equation is quadratic in E, so three probes pin its weights anywhere
    route, params = FITTED[case]
    (q,) = in_units_of_omega(validate_params(*params))
    red = reduction(route, q)
    for e in (-3.0, 2.5, 7.0):
        fitted = red.lane_weights(np.array([e]))
        for side, z0 in enumerate((0.0, 1.0)):
            ref = ode_to_recurrence(PolyOde(zeta_form(route, q, e), z0=z0)).weights
            assert fitted[side].shape == ref.shape
            assert np.max(np.abs(fitted[side] - ref)) <= 1e-12 * np.max(np.abs(ref))


#: the acceptance windows, scanned on the grid of step 0.05
GRIDS = {"heun-P2": (HEUN, (1.0, 0.4, 0.15, 0.6, 0.0), -1.0, 4.0),
         "bcf-P3": (BCF, (1.0, 0.3, 0.0, 0.05, 0.02), -1.0, 3.0)}


@pytest.mark.parametrize("case", sorted(GRIDS))
def test_the_route_loses_nothing_to_the_shorter_gate(case, monkeypatch):
    # the determinant reads the value and slope sums only, so it asks for one
    # derivative and the gate weighs terms by n, not n^2: the two sums agree
    # with the default roll's, and so do the samples
    route, params, e_min, e_max = GRIDS[case]
    p = validate_params(*params)
    (q,) = in_units_of_omega(p)
    energies = np.arange(e_min, e_max + 1e-9, 0.05)
    x = np.repeat([0.5, -0.5], energies.size)
    args = (reduction(route, q).lane_weights(energies), x, np.zeros(x.size, int))
    (full, full_log, full_flags), (short, short_log, short_flags) = (
        twopoint.series_sums_lanes(*args), twopoint.series_sums_lanes(*args, 1))
    assert short.shape == (x.size, 2) and np.array_equal(short_flags, full_flags)
    np.testing.assert_allclose(short * np.exp(short_log)[:, None],
                               full[:, :2] * np.exp(full_log)[:, None], rtol=1e-13, atol=0.0)
    samples = twopoint.g_function_batch(route, p, energies)
    sums = twopoint.series_sums_lanes
    monkeypatch.setattr(twopoint, "series_sums_lanes",
                        lambda weights, x, exponent, derivs: sums(weights, x, exponent))
    for a, b in zip(samples, twopoint.g_function_batch(route, p, energies), strict=True):
        assert abs(a.g_value - b.g_value) <= 1e-12 and a.flags == b.flags


@pytest.fixture
def determinants(monkeypatch):
    """(reduction, energies, exponents) of every batched determinant call; a
    lane with a nonzero exponent is an exceptional test, its series seeded
    on a high-exponent branch."""
    calls = []
    wronskian = twopoint._wronskian

    def recording(reduction, energies, exponents, zeta_star):
        calls.append((reduction, energies, np.asarray(exponents)))
        return wronskian(reduction, energies, exponents, zeta_star)

    monkeypatch.setattr(twopoint, "_wronskian", recording)
    return calls


#: route, params, window -> (most determinant calls, most n_evaluations);
#: the evaluation caps are what the secant refiner took, and below them what
#: per-bracket bisection took.  The bracketing refiner takes 5 and 4 calls
ROUNDS = {
    "heun-P2": (heun_spectrum, HEUN, (1.0, 0.4, 0.15, 0.6, 0.0),
                (-1.0, 4.0), 5, (244, 417)),
    "bcf-P3": (bcf_spectrum, BCF, (1.0, 0.3, 0.0, 0.05, 0.02),
               (-1.0, 3.0), 4, (181, 303)),
}


def assert_knots_ride_in_grid_call(calls, sector, ladder, omega):
    """The sector's first (grid) call is its only call with nonzero
    exponents: its seeded lanes are the knots, one per ladder point, each
    seeded on branch m + 1 of its resonant side, and its trailing lanes are
    the first-kind lanes 1e-9 omega above the knots that sign them."""
    ours = [(es, x) for red, es, x in calls if red is sector]
    assert [bool(np.any(x)) for _es, x in ours] == [True] + [False] * (len(ours) - 1)
    energies, exponents = ours[0]
    seeded = np.any(exponents, axis=0)
    np.testing.assert_array_equal(energies[seeded], [e for e, _s, _m in ladder])
    np.testing.assert_array_equal(
        exponents[:, seeded], [[m + 1 if side == at else 0 for _e, side, m in ladder]
                               for at in ("origin", "one")])
    knots = energies[seeded]
    np.testing.assert_array_equal(energies[energies.size - knots.size:],
                                  knots + 1e-9 * omega)


@pytest.mark.parametrize("case", sorted(ROUNDS))
def test_determinant_calls_per_window(case, determinants):
    spectrum, route, params, (e_min, e_max), max_calls, max_evals = ROUNDS[case]
    p = validate_params(*params)
    res = spectrum(p, e_min, e_max, 0.05)
    assert len(determinants) <= max_calls
    assert res.metadata["determinant_calls"] == len(determinants)
    assert all(res.report.n_evaluations <= cap for cap in max_evals)
    assert res.metadata["ladder"]
    assert_knots_ride_in_grid_call(determinants, reduction(route, p),
                                   res.metadata["ladder"], p.omega)


@pytest.mark.parametrize("case", sorted(ROUNDS))
def test_lanes_are_the_evaluations_and_the_knot_signs(case, determinants):
    # every lane of a determinant call is an energy the scan asked for, or
    # one of the grid call's first-kind lanes that sign the knots
    spectrum, _route, params, (e_min, e_max), _calls, _evals = ROUNDS[case]
    res = spectrum(validate_params(*params), e_min, e_max, 0.05)
    knot_signs = np.any(determinants[0][2], axis=0).sum()
    assert knot_signs == len({e for e, _s, _m in res.metadata["ladder"]}) > 0
    assert sum(es.size for _red, es, _x in determinants) \
        == res.report.n_evaluations + knot_signs


def test_a_heun_reduction_is_fitted_from_three_probes(monkeypatch):
    probes = []
    monkeypatch.setattr(twopoint, "zeta_form",
                        lambda *args: probes.append(args[2:]) or zeta_form(*args))
    twopoint.reduction.cache_clear()
    p = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)
    heun_spectrum(p, -1.0, 4.0, 0.05)
    # g_function_heun reaches the one kept reduction of p
    heun.g_function_heun(p, 0.3)
    assert probes == [(-1.0,), (0.0,), (1.0,)]


def test_coincident_ladder_points_share_one_knot(determinants):
    # eps = 0: each origin point m shares its energy with the one point m + 1,
    # a double pole; the knot there is seeded on both sides at once
    p = validate_params(1.0, 0.4, 0.0, 0.6, 0.0)
    res = heun_spectrum(p, -1.0, 4.0, 0.05)
    assert len(res.metadata["ladder"]) == 9
    energies, exponents = determinants[0][1:]
    seeded = np.any(exponents, axis=0)
    np.testing.assert_allclose(energies[seeded], [-0.36, 0.64, 1.64, 2.64, 3.64],
                               rtol=0.0, atol=1e-14)
    assert exponents[:, seeded].T.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]


#: route, params, window: heun P2, bcf P3 and a heun window whose delta is
#: tuned so that the ladder point 0.49 is an exceptional eigenvalue
WINDOWS = [
    (heun_spectrum, (1.0, 0.4, 0.15, 0.6, 0.0), (-1.0, 4.0)),
    (bcf_spectrum, (1.0, 0.3, 0.0, 0.05, 0.02), (-1.0, 3.0)),
    (heun_spectrum, (1.0, 0.389143621728628, 0.15, 0.6, 0.0), (-1.0, 4.0)),
]


@pytest.mark.parametrize("route, params, window", WINDOWS)
def test_one_kernel_roll_per_determinant_call(route, params, window,
                                              determinants, monkeypatch):
    # the grid call mixes Frobenius branches (the knots), and still rolls once
    rolls = []
    roll_lanes = _kernels.roll_lanes

    def counting(*args):
        rolls.append(args)
        return roll_lanes(*args)

    monkeypatch.setattr(_kernels, "roll_lanes", counting)
    route(validate_params(*params), *window, 0.05)
    assert any(np.any(x) for _red, _es, x in determinants)
    assert len(rolls) == len(determinants)


@pytest.mark.parametrize("route, params, window", WINDOWS)
def test_spectrum_builds_no_sample_objects(route, params, window, monkeypatch):
    # samples are the public g_function_* format; a spectrum works on arrays
    def refuse(*args, **kwargs):
        raise AssertionError("a GFunctionSample was built")

    for module in (rootscan, twopoint, heun, bcf):
        monkeypatch.setattr(module, "GFunctionSample", refuse)
    assert route(validate_params(*params), *window, 0.05).energies.size


#: heun windows on [-1, 4] beside ladder points whose brackets fell back to
#: halving for up to 9 rounds before the bracketing refiner (12 and 11 calls)
SLOW = [(1.0, 0.4044263894278308, 0.2673628228501737, 0.7653383654836137, 0.0),
        (1.0, 0.5429617106350277, 0.010075672591639306, 0.7377932678579665, 0.0)]


@pytest.mark.parametrize("params", SLOW)
def test_windows_beside_ladder_points_take_few_calls(params, determinants):
    res = heun_spectrum(validate_params(*params), -1.0, 4.0, 0.05)
    assert res.metadata["determinant_calls"] == len(determinants) <= 7
    assert res.energies.size


#: windows from 4 omega (heun) or 0 (bcf) to 1e300 in one step: past about
#: 1e179 omega the weights overflow and the guard catches lanes far above
#: every knot (at most 200 omega), which once took the top knot's usable
#: sample and halved a bracket toward 1e300 for 200 calls
HUGE = [(heun_spectrum, (1.0, 0.4, 0.15, 0.6, 0.0), 4.0),
        (bcf_spectrum, (1.0, 0.3, 0.0, 0.05, 0.02), 0.0)]


@pytest.mark.parametrize("route, params, e_min", HUGE)
def test_a_lane_caught_far_from_every_knot_keeps_its_flags(route, params, e_min,
                                                           determinants):
    with np.errstate(all="ignore"):
        res = route(validate_params(*params), e_min, 1e300, 1e300)
    assert res.metadata["determinant_calls"] == len(determinants) <= 25
    assert res.energies.size


@settings(max_examples=30, deadline=None, derandomize=True)
@given(delta=st.floats(0.2, 0.6), eps=st.floats(0.0, 0.3), g=st.floats(0.3, 0.9))
def test_settled_check_labels_as_a_check_at_each_root(delta, eps, g):
    # no heun spectrum evaluates the gauges k = +2 q^2 and k = 0; each must
    # still change sign across every regular root of the scanned one
    # (heun-sweep box)
    p = validate_params(1.0, delta, eps, g, 0.0)
    assert_each_gauge_changes_sign_at_each_regular_root(
        p, heun_spectrum(p, -1.0, 4.0, 0.05))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(delta=st.floats(0.2, 0.6), eps=st.floats(0.0, 0.3), g=st.floats(0.3, 0.9))
def test_heun_and_bcf_solve_one_equation_at_lambda_zero(delta, eps, g):
    # at lam = 0 the bcf parent is the exact one, so both routes scan the
    # same equation in zeta, gauged by k = -2 q^2 (heun) and k = 0 (bcf);
    # the gauge moves no zero of the Wronskian (heun-sweep box)
    p = validate_params(1.0, delta, eps, g, 0.0)
    heun_res, bcf_res = (route(p, -1.0, 4.0, 0.05) for route in (heun_spectrum,
                                                                  bcf_spectrum))
    assert heun_res.labels and bcf_res.labels == heun_res.labels
    np.testing.assert_allclose(bcf_res.energies, heun_res.energies,
                               rtol=0.0, atol=rootscan.REFINE_TOL)


@pytest.mark.parametrize("route, params", [
    (heun_spectrum, (1.0, 0.4, 0.15, 0.6, 0.0)),   # P2
    (bcf_spectrum, (1.0, 0.3, 0.0, 0.05, 0.02)),   # P3
])
def test_over_cap_grid_is_refused_before_any_determinant(route, params, monkeypatch):
    def refuse(*args):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(twopoint, "_wronskian", refuse)
    with pytest.raises(ValidationError, match="points"):
        route(validate_params(*params), -1.0, 4.0, 1e-5)


def test_near_singular_flag_marks_first_kind_lanes_only():
    red = reduction(HEUN, validate_params(1.0, 0.4, 0.15, 0.6, 0.0))
    ladder = resonance_ladder(red, -1.0, 4.0)
    exponents = np.array([[0, 0] + [m + 1 if side == at else 0
                                    for _e, side, m in ladder]
                          for at in ("origin", "one")])
    energies = np.array([0.1, 0.2] + [e for e, _s, _m in ladder])
    for zeta_star in (0.01, 0.5, 0.99):
        _g, _log_g, bits = twopoint._wronskian(red, energies, exponents, zeta_star)
        flagged = ["near_singular_eval_point" in FLAG_SETS[b] for b in bits]
        assert flagged == [zeta_star != 0.5] * 2 + [False] * len(ladder)


#: route, params, window -> the ladder sides whose points are exceptional;
#: together they cover both sides, accepted and rejected points and m >= 10.
#: The heun routes return the closed form at delta = 0; these sectors are
#: scanned here directly
EXCEPTIONAL = {
    "heun-delta0": (HEUN, (1.0, 0.0, 0.15, 0.6, 0.0), (-1.0, 15.0), {"origin"}),
    "heun-delta0-mirror": (HEUN, (1.0, 0.0, -0.15, -0.6, 0.0), (-1.0, 15.0), {"one"}),
    "heun-P2": (HEUN, (1.0, 0.4, 0.15, 0.6, 0.0), (-1.0, 4.0), set()),
    "bcf": (BCF, (1.0, 0.3, 0.1, 0.2, 0.1), (-1.0, 11.0), set()),
}


def _scalar_second_kind(route, p, energy, side, m):
    """The second-kind Wronskian from one derived recurrence per series of
    ``route``'s equation for p, rolled by the scalar reference loop, the
    resonant side seeded on z^(m+1), and whether the series converged."""
    ode = zeta_form(route, p, energy)
    sums, kflags = [], 0
    for z0, at in ((0.0, "origin"), (1.0, "one")):
        ds, _slog, flags = reference_series(ode_to_recurrence(PolyOde(ode, z0=z0)),
                                            0.5, m + 1 if at == side else 0)
        sums += [ds[0], ds[1] / (0.5 - z0)]
        kflags |= flags
    # value and derivative of one side share a scale, which cancels
    a, b, c, d = sums
    g = (a * d - c * b) / (math.hypot(a, b) * math.hypot(c, d))
    return g, math.isfinite(g) and not kflags & _kernels.FLAG_NONCONVERGED


@pytest.mark.parametrize("case", sorted(EXCEPTIONAL))
def test_exceptional_lanes_match_the_scalar_chain(case):
    route, params, (e_min, e_max), exceptional_sides = EXCEPTIONAL[case]
    p = validate_params(*params)
    red = reduction(route, p)
    ladder = resonance_ladder(red, e_min, e_max)
    assert {side for _e, side, _m in ladder} == {"origin", "one"}
    res = twopoint.spectrum(red, e_min, e_max)
    labelled = {(e, lab) for e, lab in zip(res.energies, res.labels)
                if lab.startswith("exceptional:")}
    lanes, _log_g, _bits = twopoint._wronskian(
        red, np.array([e for e, _s, _m in ladder]),
        np.array([[m + 1 if side == at else 0 for _e, side, m in ladder]
                  for at in ("origin", "one")]), 0.5)
    for (e, side, m), g_lane in zip(ladder, lanes):
        g, converged = _scalar_second_kind(route, p, e, side, m)
        assert g_lane == pytest.approx(g, rel=0.0, abs=1e-10)
        # a ladder point whose second-kind Wronskian vanishes is a level,
        # and only such a point is labelled exceptional
        vanishes = converged and abs(g) < 1e-8
        assert vanishes == bool(np.any(np.abs(res.energies - e) <= 1e-9))
        label = f"exceptional:{side}:{m}"
        assert not any(lab == label for _e, lab in labelled) or vanishes
    assert {lab.split(":")[1] for _e, lab in labelled} == exceptional_sides
    if exceptional_sides:
        assert max(int(lab.split(":")[2]) for _e, lab in labelled) >= 10


def test_degenerate_series_lane_is_flagged_and_never_a_root(monkeypatch):
    sums = twopoint.series_sums_lanes

    def zero_lane(weights, x, exponent, derivs=None):
        out, scale_log, flags = sums(weights, x, exponent, derivs)
        if out.shape[0] >= 8:  # the zeta = 0 series of the fourth energy
            out[3, :2] = 0.0
        return out, scale_log, flags

    monkeypatch.setattr(twopoint, "series_sums_lanes", zero_lane)
    p = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)
    red = reduction(HEUN, p)
    samples = twopoint.g_function_batch(HEUN, p, np.linspace(-1.0, 4.0, 9), 0.5)
    assert samples[3].flags == {"degenerate_series"} and not samples[3].ok
    assert all(s.ok for i, s in enumerate(samples) if i != 3)

    zeroed = []

    def f(energies):
        if energies.size > 3:
            zeroed.append(energies[3])
        g, _log_g, flags = twopoint._wronskian(
            red, energies, np.zeros((2, energies.size), int), 0.5)
        return g, flags

    report = scan_and_refine(f, RootScanConfig(-1.0, 4.0, 0.05))
    assert zeroed and report.roots.size
    assert not np.any(np.isin(report.roots, zeroed))
    assert any(iv.reason == "degenerate_series" and iv.contains(zeroed[0])
               for iv in report.excluded)
