import numpy as np
import pytest

from rabi_spectra import bcf_reduce, bcf_spectrum, che_params, heun_spectrum, validate_params
from rabi_spectra import twopoint
from rabi_spectra.bcf import bcf_reduction
from rabi_spectra.heun import heun_reduction
from rabi_spectra.twopoint import resonance_ladder

#: (route, params, window) -> labels; only the assembly decides these: the
#: second-gauge check, exceptional tests, the delta = 0 mirror merge and the
#: dedup, where the unprefixed sector wins
LABELS = {
    "heun-delta0": (heun_spectrum, (1.0, 0.0, 0.15, 0.6, 0.0), (-1.0, 2.0),
                    ("mirror:regular", "regular:both", "mirror:exceptional:one:0",
                     "exceptional:origin:0", "mirror:exceptional:one:1",
                     "exceptional:origin:1")),
    "bcf-delta0": (bcf_spectrum, (1.0, 0.0, 0.3, 0.1, 0.004), (-0.6, 1.4),
                   ("regular",) * 4),
    # levels -0.36, 0.64, 1.64 (each doubly degenerate), returned once each
    "heun-delta0-eps0": (heun_spectrum, (1.0, 0.0, 0.0, 0.6, 0.0), (-1.0, 2.0),
                         ("mirror:regular", "exceptional:origin:0",
                          "exceptional:origin:1")),
    "bcf-degenerate": (bcf_spectrum, (1.0, 0.3, 0.1, 0.0, 0.0), (-1.0, 2.0), ()),
}


@pytest.mark.parametrize("case", sorted(LABELS))
def test_assembly_labels(case):
    route, params, (e_min, e_max), labels = LABELS[case]
    res = route(validate_params(*params), e_min, e_max, 0.05)
    assert res.labels == labels
    assert len(res.energies) == len(labels)
    assert np.all(np.diff(res.energies) > 0)
    if case == "heun-delta0-eps0":
        np.testing.assert_allclose(res.energies, [-0.36, 0.64, 1.64], atol=1e-9)
    if not labels:
        assert [(iv.lo, iv.hi, iv.reason) for iv in res.report.excluded] \
            == [(e_min, e_max, "degenerate_q")]


#: route -> (reduction, params, scalar resonant index at (energy, side))
INDEX = {
    "heun": (heun_reduction, (1.0, 0.4, 0.15, 0.6, 0.0),
             lambda p, e, side: -che_params(p, e).beta - 1.0 if side == "origin"
             else -che_params(p, e).gamma),
    "heun-g<0": (heun_reduction, (1.3, 0.2, -0.1, -0.5, 0.0),
                 lambda p, e, side: -che_params(p, e).beta - 1.0 if side == "origin"
                 else -che_params(p, e).gamma),
    "bcf": (bcf_reduction, (1.0, 0.3, 0.1, 0.2, 0.1),
            lambda p, e, side: bcf_reduce(p, e).beta2 if side == "origin"
            else bcf_reduce(p, e).beta1),
}


@pytest.mark.parametrize("route", sorted(INDEX))
def test_ladder_hits_the_scalar_resonant_index(route):
    reduction, params, index = INDEX[route]
    p = validate_params(*params)
    ladder = resonance_ladder(reduction(p), -1.0, 4.0)
    assert {side for _e, side, _m in ladder} == {"origin", "one"}
    for e, side, m in ladder:
        assert index(p, e, side) == pytest.approx(m, abs=1e-9)


#: route, params, window -> (most determinant calls, most n_evaluations); the
#: evaluation caps are what per-bracket bisection took on the scanned gauge
ROUNDS = {
    "heun-P2": (heun_spectrum, (1.0, 0.4, 0.15, 0.6, 0.0), (-1.0, 4.0), 16, 417),
    "bcf-P3": (bcf_spectrum, (1.0, 0.3, 0.0, 0.05, 0.02), (-1.0, 3.0), 12, 303),
}


@pytest.mark.parametrize("case", sorted(ROUNDS))
def test_determinant_calls_per_window(case, monkeypatch):
    route, params, (e_min, e_max), max_calls, max_evals = ROUNDS[case]
    calls = []
    batch = twopoint.g_function_batch

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return batch(*args, **kwargs)

    monkeypatch.setattr(twopoint, "g_function_batch", counting)
    res = route(validate_params(*params), e_min, e_max, 0.05)
    assert len(calls) <= max_calls
    assert res.report.n_evaluations <= max_evals
