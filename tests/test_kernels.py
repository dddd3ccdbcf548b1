"""The lane kernel must reproduce the scalar rollout lane by lane."""

import numpy as np

from rabi_spectra import _kernels
from rabi_spectra.series import ode_to_recurrence, series_eval
from rabi_spectra import PolyOde


def _che_shaped(a, b, g, mu, nu):
    """zeta(zeta-1) times a confluent Heun equation, expanded at 0."""
    return PolyOde(((-mu, mu + nu), (-(b + 1.0), b + 1.0 + g - a, a),
                    (0.0, -1.0, 1.0)), z0=0.0)


def test_lane_kernel_matches_scalar_roll_per_lane():
    # the leading weight at index n is -n(n + b): b = -3 is resonant at n = 3,
    # compatible when mu = nu = 0 (the series stops at a_0), else incompatible
    lanes = [
        (_che_shaped(1.3, 0.2, -0.4, 0.5, 0.1), 0.37),
        (_che_shaped(1.3, -3.0, -0.4, 0.0, 0.0), 0.5),     # resonant, compatible
        (_che_shaped(1.3, -3.0, -0.4, 0.5, 0.2), 0.5),     # resonant, incompatible
        (_che_shaped(0.7, 0.4, 0.3, 0.5, 0.1), 0.995),     # nonconverged
        (_che_shaped(0.7, 0.4, 0.3, 0.5, 0.1), 5.0),       # diverges: renormalized
        (_che_shaped(-2.0, 1.5, 0.3, 2.5, -1.1), -0.6),
    ]
    recs = [ode_to_recurrence(ode) for ode, _x in lanes]
    assert len({(r.weights.shape, r.j_lead) for r in recs}) == 1
    weights = np.stack([r.weights for r in recs])
    xs = np.array([x for _ode, x in lanes])
    # the default seed, and the branch z^3 seeded past the resonance at n = 3
    high = np.array([0.0, 0.0, 0.0, 1.0])
    for seeds in (np.array([1.0]), high):
        for max_n, tail_tol in ((200, 1e-14), (60, 0.0)):
            ds, slog, n_used, flags, tail = _kernels.roll_lanes(
                weights, recs[0].j_lead, 2, seeds, xs, max_n, tail_tol)
            for i, rec in enumerate(recs):
                ds_i, slog_i, n_i, flags_i, _cm, _cl, tail_i = _kernels.roll(
                    rec.weights, rec.j_lead, 2, seeds, xs[i], max_n, tail_tol)
                np.testing.assert_array_equal(ds[i], ds_i)
                assert (slog[i], n_used[i], flags[i], tail[i]) == \
                    (slog_i, n_i, flags_i, tail_i)
    _ds, slog, _n, flags, _tail = _kernels.roll_lanes(
        weights, recs[0].j_lead, 2, np.array([1.0]), xs, 200, 1e-14)
    assert list(flags) == [0, _kernels.FLAG_RESONANT_COMPATIBLE,
                           _kernels.FLAG_RESONANT_INCOMPATIBLE,
                           _kernels.FLAG_NONCONVERGED, _kernels.FLAG_NONCONVERGED, 0]
    assert slog[4] > 0.0
    _ds, _slog, n_used, flags, _tail = _kernels.roll_lanes(
        weights, recs[0].j_lead, 2, high, xs, 200, 1e-14)
    assert flags[1] == flags[2] == 0  # the resonance lies among the seeds
    assert n_used[2] > 3


def test_kernel_scaling_stays_finite_for_growing_series():
    # geometric series at x just inside the disk: coefficients all 1, value 1/(1-x)
    ode = PolyOde(((0.0,), (-1.0,), (1.0, -1.0)), z0=0.0)  # (1-z)u'' = u'
    rec = ode_to_recurrence(ode)
    val, _, sol = series_eval(rec, 0.9, seeds=np.array([1.0, 1.0]))
    assert np.isfinite(val.mantissa)
    assert val.to_float() > 0
