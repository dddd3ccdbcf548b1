"""The lane kernel must reproduce the scalar reference rollout lane by lane,
whatever the batch a lane is rolled in."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabi_spectra import _kernels
from rabi_spectra.canonical import compose_fourth_order
from rabi_spectra.params import ModelParams
from rabi_spectra.series import (
    DEFAULT_MAX_N,
    DEFAULT_TAIL_TOL,
    PolyOde,
    ode_to_recurrence,
    series_sums_lanes,
)


def reference_roll(L, j_lead, order, seeds, x, max_n, tail_tol, derivs=None):
    """The scalar reference rollout: roll the recurrence
    sum L_j(m) a_{m+order-j} = 0 term by term and accumulate the derivative
    sums k = 0..derivs (default: the order) at x, one Python operation at a
    time.

    Returns (deriv_mantissas[derivs+1], scale_log, n_used, flags, tail_rel).

    deriv[k] * exp(scale_log) = sum_n n(n-1)..(n-k+1) a_n x^n  (divide by x^k
    outside to get the k-th derivative).
    """
    derivs = order if derivs is None else derivs
    n_lags = L.shape[0]
    n_deg = L.shape[1]
    q = order - j_lead  # equation-index offset: eq m determines a_{m+q}
    n_seed = seeds.shape[0]  # >= q; longer seeds select a higher exponent
    span = n_lags - 1 - j_lead  # how many back terms the newest one needs

    window = np.zeros(span + 1)  # window[d] = b_{n-d}
    ds = np.zeros(derivs + 1)
    scale_log = 0.0
    flags = 0
    n_used = n_seed - 1
    tail_rel = 0.0

    # seed terms
    xp = 1.0
    for j in range(n_seed):
        b = seeds[j] * xp
        for d in range(span, 0, -1):
            window[d] = window[d - 1]
        window[0] = b
        ffv = 1.0
        for k in range(derivs + 1):
            ds[k] += ffv * b
            ffv *= (j - k)
        xp *= x

    quiet = 0
    for n in range(n_seed, max_n + 1):
        m = float(n - q)
        # leading weight L_{j_lead}(m) and its magnitude reference
        lead = 0.0
        lead_ref = 0.0
        mp = 1.0
        mref = 1.0
        mabs = abs(m) if abs(m) > 1.0 else 1.0
        for d in range(n_deg):
            lead += L[j_lead, d] * mp
            lead_ref += abs(L[j_lead, d]) * mref
            mp *= m
            mref *= mabs
        rhs = 0.0
        rhs_ref = 0.0
        xd = x
        for dlag in range(1, span + 1):
            w = 0.0
            mp = 1.0
            for d in range(n_deg):
                w += L[j_lead + dlag, d] * mp
                mp *= m
            t = w * xd * window[dlag - 1]
            rhs -= t
            rhs_ref += abs(t)
            xd *= x
        if abs(lead) <= _kernels._RES_GUARD * lead_ref:
            if abs(rhs) <= _kernels._COMPAT_TOL * (rhs_ref + 1e-300):
                b_n = 0.0
                flags |= _kernels.FLAG_RESONANT_COMPATIBLE
            else:
                flags |= _kernels.FLAG_RESONANT_INCOMPATIBLE
                n_used = n - 1
                break
        else:
            b_n = rhs / lead

        for d in range(span, 0, -1):
            window[d] = window[d - 1]
        window[0] = b_n
        ffv = 1.0
        for k in range(derivs + 1):
            ds[k] += ffv * b_n
            ffv *= (n - k)
        n_used = n

        # convergence: a full span of consecutive negligible terms, with the
        # n^derivs amplification of the highest derivative summed accounted for
        ref = abs(ds[0])
        if ref < 1.0:
            ref = 1.0
        amp = 1.0
        for _ in range(derivs):
            amp *= (n + 1.0)
        tail_rel = abs(b_n) * amp / ref
        if tail_tol > 0.0 and tail_rel <= tail_tol:
            quiet += 1
            if quiet > span + 2 and n > n_seed + 8:
                break
        else:
            quiet = 0

        if n % _kernels._RENORM_EVERY == 0:
            big = 0.0
            for d in range(span + 1):
                if abs(window[d]) > big:
                    big = abs(window[d])
            for k in range(derivs + 1):
                if abs(ds[k]) > big:
                    big = abs(ds[k])
            if big > 1e100 or (0.0 < big < 1e-100):
                f = big
                lf = math.log(f)
                for d in range(span + 1):
                    window[d] /= f
                for k in range(derivs + 1):
                    ds[k] /= f
                scale_log += lf

    if tail_tol > 0.0 and n_used >= max_n and not tail_rel <= tail_tol:
        flags |= _kernels.FLAG_NONCONVERGED
    return ds, scale_log, n_used, flags, tail_rel


def reference_series(rec, x, exponent=0):
    """The reference rollout of rec's series on the Frobenius branch
    (z - z0)^exponent, seeded and rolled as series_sums_lanes does one lane,
    summed at the point x: (deriv_mantissas[order+1], scale_log, flags)."""
    seeds = np.zeros(max(rec.order - rec.j_lead, exponent + 1))
    seeds[exponent] = 1.0
    ds, scale_log, _n, flags, _tail = reference_roll(
        rec.weights, rec.j_lead, rec.order, seeds, x - rec.z0, DEFAULT_MAX_N,
        DEFAULT_TAIL_TOL)
    return ds, scale_log, flags


def _che_shaped(a, b, g, mu, nu):
    """zeta(zeta-1) times a confluent Heun equation, expanded at 0."""
    return PolyOde(((-mu, mu + nu), (-(b + 1.0), b + 1.0 + g - a, a),
                    (0.0, -1.0, 1.0)), z0=0.0)


# the leading weight at index n is -n(n + b): b = -3 is resonant at n = 3,
# compatible when mu = nu = 0 (the series stops at a_0), else incompatible
LANES = [
    (_che_shaped(1.3, 0.2, -0.4, 0.5, 0.1), 0.37),
    (_che_shaped(1.3, -3.0, -0.4, 0.0, 0.0), 0.5),     # resonant, compatible
    (_che_shaped(1.3, -3.0, -0.4, 0.5, 0.2), 0.5),     # resonant, incompatible
    (_che_shaped(0.7, 0.4, 0.3, 0.5, 0.1), 0.995),     # nonconverged
    (_che_shaped(0.7, 0.4, 0.3, 0.5, 0.1), 5.0),       # diverges: renormalized
    (_che_shaped(-2.0, 1.5, 0.3, 2.5, -1.1), -0.6),
    (_che_shaped(1.3, 0.2, -0.4, 0.5, 0.1), 1e-4),     # high branches: tiny
    (_che_shaped(1.3, -40.0, -0.4, 0.0, 0.0), 0.5),    # stops before n = 40
]
# lanes that stop between the renormalization indices 50 and 100, where the
# kernel sizes the second block from their tail decay: the first stops at
# n = 86 inside its predicted block; the decay of the second slows down, so
# it is still live where its predicted block ends and rolls a further block
LATE = [
    (_che_shaped(1.3, 0.2, -0.4, 0.5, 0.1), 0.7),
    (_che_shaped(-6.0, 0.5, -4.0, 3.0, 2.0), 0.8),
]
RECS = [ode_to_recurrence(ode) for ode, _x in LANES + LATE]
XS = np.array([x for _ode, x in LANES + LATE])


def _seed_rows(exponents, pads=0):
    """Per-lane seeds of the Frobenius branches z^e: a_e = 1, and a_n = 0 for
    the other n < e + 1 + pad."""
    exponents = np.asarray(exponents)
    n_seed = np.maximum(RECS[0].order - RECS[0].j_lead, exponents + 1 + np.asarray(pads))
    seeds = np.zeros((n_seed.size, n_seed.max()))
    seeds[np.arange(n_seed.size), exponents] = 1.0
    return seeds, n_seed


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _matching_reference(recs, xs, seeds, n_seed, max_n, tail_tol, derivs=None):
    """roll_lanes on the lanes (recs[i], xs[i], seeds[i, :n_seed[i]]), each
    checked bit for bit against the reference rollout."""
    out = _kernels.roll_lanes(np.stack([r.weights for r in recs]),
                              recs[0].j_lead, recs[0].order, seeds, n_seed,
                              np.asarray(xs, dtype=float), max_n, tail_tol, derivs)
    ds, slog, n_used, flags, tail = out
    for i, rec in enumerate(recs):
        ds_i, slog_i, n_i, flags_i, tail_i = reference_roll(
            rec.weights, rec.j_lead, rec.order, seeds[i, :n_seed[i]], xs[i],
            max_n, tail_tol, derivs)
        assert _bits(ds[i]) == _bits(ds_i)
        assert _bits([slog[i], tail[i]]) == _bits([slog_i, tail_i])
        assert (n_used[i], flags[i]) == (n_i, flags_i)
    return out


def _roll_lanes_matching_roll(exponents, max_n, tail_tol,
                              lanes=range(len(LANES)), pads=0, derivs=None):
    """roll_lanes on the chosen order-2 lanes, each checked bit for bit
    against the reference rollout on its own seed vector."""
    lanes = list(lanes)
    seeds, n_seed = _seed_rows(exponents, pads)
    return _matching_reference([RECS[k] for k in lanes], XS[lanes], seeds,
                               n_seed, max_n, tail_tol, derivs)


def test_lane_kernel_matches_scalar_roll_per_lane():
    # the default seed, and the branch z^3 seeded past the resonance at n = 3
    for e in (0, 3):
        for max_n, tail_tol in ((200, 1e-14), (60, 0.0)):
            _roll_lanes_matching_roll([e] * len(LANES), max_n, tail_tol)
    _ds, slog, _n, flags, _tail = _roll_lanes_matching_roll(
        [0] * len(LANES), 200, 1e-14)
    assert list(flags) == [0, _kernels.FLAG_RESONANT_COMPATIBLE,
                           _kernels.FLAG_RESONANT_INCOMPATIBLE,
                           _kernels.FLAG_NONCONVERGED, _kernels.FLAG_NONCONVERGED,
                           0, 0, 0]
    assert slog[4] > 0.0
    _ds, _slog, n_used, flags, _tail = _roll_lanes_matching_roll(
        [3] * len(LANES), 200, 1e-14)
    assert flags[1] == flags[2] == 0  # the resonance lies among the seeds
    assert n_used[2] > 3
    # a nan offset rolls to max_n on a nan tail: flagged, not converged, as
    # in the reference (nan sums need not match it bit for bit)
    rec, (seeds, n_seed) = RECS[0], _seed_rows([0, 0])
    ds, _slog, n_used, flags, _tail = _kernels.roll_lanes(
        np.stack([rec.weights] * 2), rec.j_lead, rec.order, seeds, n_seed,
        np.array([0.37, math.nan]), 200, 1e-14)
    ref = reference_roll(rec.weights, rec.j_lead, rec.order, seeds[1, :n_seed[1]],
                         math.nan, 200, 1e-14)
    assert n_used[0] < 200 and flags[0] == 0
    assert (n_used[1], flags[1]) == ref[2:4] == (200, _kernels.FLAG_NONCONVERGED)
    assert np.isnan(ds[1]).all() and np.isnan(ref[0]).all()


def test_lane_kernel_mixed_seeds_match_scalar_roll():
    for tail_tol in (1e-14, 0.0):
        # branches 0 and 3 side by side in one call
        for exponents in ([0, 3] * 4, [3, 0] * 4):
            _roll_lanes_matching_roll(exponents, 200, tail_tol)
        # seeds that end past the renormalization index 50 and at max_n = 60
        for max_n in (60, 200):
            _ds, _slog, n_used, _flags, _tail = _roll_lanes_matching_roll(
                [55, 60, 0, 3, 55, 60, 55, 0], max_n, tail_tol)
            assert n_used[1] >= 60
        # terms below 1e-100 at index 50 are renormalized only in a lane that
        # rolls on past it: not one that stopped (z^30) or still seeds (z^40
        # with a_41..a_55 held at 0)
        _ds, slog, n_used, _flags, _tail = _roll_lanes_matching_roll(
            [30, 45, 40], 200, tail_tol, lanes=[6, 6, 6], pads=[0, 0, 15])
        assert slog[1] < 0.0
        if tail_tol:
            assert n_used[0] < 50 and slog[0] == slog[2] == 0.0


def test_lane_kernel_late_stops_match_scalar_roll():
    stops = {len(LANES): 86, len(LANES) + 1: 94}
    for lanes in ([*stops], [*stops, 0, 5, 3], [0, 5, len(LANES) + 1]):
        for tail_tol in (1e-14, 0.0):
            _ds, _slog, n_used, _flags, _tail = _roll_lanes_matching_roll(
                [0] * len(lanes), 200, tail_tol, lanes)
            if tail_tol:
                assert all(n_used[i] == stops[k] for i, k in enumerate(lanes)
                           if k in stops)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(RECS) - 1), st.integers(0, 55),
                          st.integers(0, 5)), min_size=1, max_size=8),
       st.sampled_from([60, 120, 200]), st.sampled_from([1e-14, 0.0]))
def test_lane_kernel_random_seed_mixes_match_scalar_roll(picks, max_n, tail_tol):
    lanes, exponents, pads = zip(*picks)
    _roll_lanes_matching_roll(exponents, max_n, tail_tol, lanes, pads)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(RECS) - 1), st.integers(0, 55),
                          st.integers(0, 5)), min_size=1, max_size=8),
       st.sampled_from([60, 120, 200]), st.sampled_from([1e-14, 0.0]),
       st.integers(0, 1))
def test_lane_kernel_with_fewer_derivatives_matches_scalar_roll(picks, max_n, tail_tol,
                                                                 derivs):
    # fewer sums than the order: the gate weighs each term by (n+1)^derivs
    lanes, exponents, pads = zip(*picks)
    ds = _roll_lanes_matching_roll(exponents, max_n, tail_tol, lanes, pads, derivs)[0]
    assert ds.shape == (len(lanes), derivs + 1)


def test_fewer_derivatives_stop_sooner_on_the_same_sums():
    # the value and slope sums of the default roll, read from a shorter gate:
    # each lane stops no later, and some lane stops sooner
    full = _roll_lanes_matching_roll([0] * len(LANES), 200, 1e-14)
    short = _roll_lanes_matching_roll([0] * len(LANES), 200, 1e-14, derivs=1)
    assert np.all(short[2] <= full[2]) and np.any(short[2] < full[2])
    converged = (full[3] & _kernels.FLAG_NONCONVERGED) == 0
    np.testing.assert_allclose((short[0] * np.exp(short[1])[:, None])[converged],
                               (full[0][:, :2] * np.exp(full[1])[:, None])[converged],
                               rtol=1e-13, atol=0.0)


def _with_last_lag(rec, w):
    """rec with its last lag given the weight polynomial w."""
    weights = rec.weights.copy()
    weights[-1] = w
    return replace(rec, weights=weights)


def _with_zero_lag(rec):
    """rec with an all-zero lag appended by hand."""
    return replace(rec, weights=np.concatenate((rec.weights, np.zeros((1, rec.order + 1)))))


def test_lane_kernel_weighs_a_hand_built_zero_lag_like_any_other():
    # a derived recurrence weighs its last lag, down to _che_shaped with
    # a = mu = nu = 0, two terms on three lags; a zero lag appended by hand
    # is weighed like any other lag and widens the gate's span, bit for bit
    # with the reference
    two_term = ode_to_recurrence(_che_shaped(0.0, 0.2, -0.4, 0.0, 0.0))
    assert two_term.weights.shape[0] == 3 and two_term.weights[-1].any()
    weighed = _with_last_lag(RECS[0], [0.3, -0.1, 0.05])
    for recs, xs in (([two_term, two_term], [0.37, -0.6]),
                     ([RECS[0], weighed, RECS[5]], [0.37, 0.37, -0.6])):
        for recs in (recs, [_with_zero_lag(r) for r in recs]):
            seeds, n_seed = _seed_rows([0] * len(recs))
            for derivs in (None, 1):
                for max_n, tail_tol in ((200, 1e-14), (60, 0.0)):
                    _matching_reference(recs, xs, seeds, n_seed, max_n, tail_tol, derivs)


# the residual audit's order-4 shape: nine lags, so the newest term takes a
# sum of 8 (numpy sums 8 terms of one lane pairwise); the lanes at x = 0.7
# and 1.5 roll on alone past index 50, where the lanes at 0.1 have stopped
NINE = [ode_to_recurrence(PolyOde(tuple(compose_fourth_order(
            ModelParams(1.0, *p), energy)), z0=0.0))
        for p, energy in (((0.4, 0.1, 0.5, 0.2), 0.7),
                          ((0.3, -0.2, 0.7, 0.1), 1.9))]
NINE_LANES = [(NINE[0], 0.1), (NINE[1], 0.1), (NINE[1], 0.7), (NINE[0], -0.4),
              (NINE[0], 1.5)]


def _order_four(lanes):
    recs, xs = zip(*(NINE_LANES[k] for k in lanes))
    seeds = np.zeros((len(lanes), 4))
    seeds[:, 0] = 1.0
    return list(recs), list(xs), seeds, np.full(len(lanes), 4)


@pytest.mark.parametrize("derivs", [0, 1, 2, 3])
def test_lane_kernel_matches_scalar_roll_at_order_four_with_fewer_derivatives(derivs):
    for lanes in ([0], [0, 1, 2, 3, 4]):
        _matching_reference(*_order_four(lanes), 200, 1e-14, derivs)


def test_lane_kernel_matches_scalar_roll_at_order_four():
    # nine lags, the first and the last of them used
    assert NINE[0].weights.shape[0] == 9
    assert np.all(np.any(NINE[0].weights[[0, -1]] != 0.0, axis=1))
    for lanes in ([0], [2], [0, 1], [0, 2], [1, 4], [0, 1, 2, 3, 4]):
        for max_n, tail_tol in ((200, 1e-14), (60, 0.0)):
            _ds, _slog, n_used, _flags, _tail = _matching_reference(
                *_order_four(lanes), max_n, tail_tol)
            if tail_tol and lanes[0] < 2 <= lanes[-1]:
                assert n_used[0] < 50 < n_used[-1]
    # the one-lane entry is the same rollout
    rec, x = NINE_LANES[0]
    mine = _kernels.roll(rec.weights, rec.j_lead, 4, [1.0, 0.0, 0.0, 0.0], x,
                         200, 1e-14)
    ref = reference_roll(rec.weights, rec.j_lead, 4, np.array([1.0, 0.0, 0.0, 0.0]),
                         x, 200, 1e-14)
    assert _bits(mine[0]) == _bits(ref[0]) and mine[1:] == ref[1:]


def test_lane_result_does_not_depend_on_its_batch():
    order_two = (RECS, list(XS),
                 *_seed_rows([0] * len(RECS)))
    for recs, xs, seeds, n_seed in (order_two, _order_four(range(len(NINE_LANES)))):
        whole = _kernels.roll_lanes(np.stack([r.weights for r in recs]),
                                    recs[0].j_lead, recs[0].order, seeds, n_seed,
                                    np.asarray(xs), 200, 1e-14)
        for i, rec in enumerate(recs):
            alone = _kernels.roll_lanes(rec.weights[None], rec.j_lead, rec.order,
                                        seeds[i:i + 1], n_seed[i:i + 1],
                                        np.asarray(xs[i:i + 1]), 200, 1e-14)
            for a, b in zip(alone, whole):
                assert _bits(a[0]) == _bits(b[i])


def test_kernel_scaling_stays_finite_for_growing_series():
    # (1 - z) u'' = u' just inside its disk: branch 0 is u = 1, branch 1 is
    # -log(1 - z) = sum z^n / n, so the lanes' sum is 1 - log(0.1)
    ode = PolyOde(((0.0,), (-1.0,), (1.0, -1.0)), z0=0.0)
    rec = ode_to_recurrence(ode)
    sums, slog, flags = series_sums_lanes(np.stack([rec.weights] * 2), [0.9, 0.9],
                                          [0, 1])
    assert np.all(np.isfinite(sums)) and list(flags) == [0, 0]
    value = float(np.sum(sums[:, 0] * np.exp(slog)))
    assert value == pytest.approx(1.0 - math.log(0.1), rel=1e-13)
