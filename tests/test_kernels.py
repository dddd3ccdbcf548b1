"""The lane kernel must reproduce the scalar rollout lane by lane."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rabi_spectra import _kernels
from rabi_spectra.series import ode_to_recurrence, series_eval
from rabi_spectra import PolyOde


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
# n = 87 inside its predicted block; the decay of the second slows down, so
# it is still live where its predicted block ends and rolls a further block
LATE = [
    (_che_shaped(1.3, 0.2, -0.4, 0.5, 0.1), 0.7),
    (_che_shaped(-6.0, 0.5, -4.0, 3.0, 2.0), 0.8),
]
RECS = [ode_to_recurrence(ode) for ode, _x in LANES + LATE]
WEIGHTS = np.stack([r.weights for r in RECS])
XS = np.array([x for _ode, x in LANES + LATE])
J_LEAD = RECS[0].j_lead


def _seed_rows(exponents, pads=0):
    """Per-lane seeds of the Frobenius branches z^e: a_e = 1, and a_n = 0 for
    the other n < e + 1 + pad."""
    exponents = np.asarray(exponents)
    n_seed = np.maximum(RECS[0].n_free, exponents + 1 + np.asarray(pads))
    seeds = np.zeros((n_seed.size, n_seed.max()))
    seeds[np.arange(n_seed.size), exponents] = 1.0
    return seeds, n_seed


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _roll_lanes_matching_roll(exponents, max_n, tail_tol,
                              lanes=range(len(LANES)), pads=0):
    """roll_lanes on the chosen lanes, each checked bit for bit against
    roll on its own seed vector."""
    lanes = list(lanes)
    seeds, n_seed = _seed_rows(exponents, pads)
    out = _kernels.roll_lanes(WEIGHTS[lanes], J_LEAD, 2, seeds, n_seed,
                              XS[lanes], max_n, tail_tol)
    ds, slog, n_used, flags, tail = out
    for i, lane in enumerate(lanes):
        ds_i, slog_i, n_i, flags_i, tail_i = _kernels.roll(
            RECS[lane].weights, J_LEAD, 2, seeds[i, :n_seed[i]], XS[lane],
            max_n, tail_tol)
        assert _bits(ds[i]) == _bits(ds_i)
        assert _bits([slog[i], tail[i]]) == _bits([slog_i, tail_i])
        assert (n_used[i], flags[i]) == (n_i, flags_i)
    return out


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
    stops = {len(LANES): 87, len(LANES) + 1: 95}
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


def test_kernel_scaling_stays_finite_for_growing_series():
    # geometric series at x just inside the disk: coefficients all 1, value 1/(1-x)
    ode = PolyOde(((0.0,), (-1.0,), (1.0, -1.0)), z0=0.0)  # (1-z)u'' = u'
    rec = ode_to_recurrence(ode)
    val, _, sol = series_eval(rec, 0.9, seeds=np.array([1.0, 1.0]))
    assert np.isfinite(val.mantissa)
    assert val.to_float() > 0
