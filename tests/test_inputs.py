"""The library's input contract: each setting is checked by the call that
reads it, and a bad value raises a RabiSpectraError (a ValidationError for
settings), never a bare ValueError or OverflowError and never a silently
short answer."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabi_spectra import (
    RootScanConfig,
    bcf_spectrum,
    build_hamiltonian,
    fock,
    g_function_bcf,
    g_function_bcf_batch,
    g_function_heun,
    g_function_heun_batch,
    heun_spectrum,
    operators,
    oracle_spectrum,
    twopoint,
    uncoupled_spectrum,
    validate_params,
)
from rabi_spectra.canonical import weber_params
from rabi_spectra.cli import main
from rabi_spectra.errors import RabiSpectraError, ValidationError
from rabi_spectra.params import ModelParams
from rabi_spectra.rootscan import REFINE_TOL
from rabi_spectra.twopoint import zeta_form

P2 = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)
P3 = validate_params(1.0, 0.3, 0.0, 0.05, 0.02)
#: delta = 0: heun returns the closed form
DELTA0 = validate_params(1.0, 0.0, 0.1, 0.4, 0.0)
HEUN = twopoint.ROUTES["heun"]
VALUES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 0.5, 1e300)


@pytest.mark.parametrize("call", [
    lambda: heun_spectrum(P2, -1.0, 4.0, math.nan),
    lambda: bcf_spectrum(P3, -1.0, 3.0, math.nan),
    lambda: heun_spectrum(DELTA0, -1.0, 4.0, math.nan),
    lambda: heun_spectrum(DELTA0, -math.inf, -math.inf, 0.05),
    lambda: oracle_spectrum(P2, 10, -1),
    lambda: oracle_spectrum(P2, 10, 0),
    lambda: oracle_spectrum(P2, 10, 10, -1),
    lambda: uncoupled_spectrum(DELTA0, -3),
    # counts must be whole numbers
    lambda: oracle_spectrum(P2, 20, 4.5),
    lambda: build_hamiltonian(P2, 19.5),
    lambda: oracle_spectrum(P2, 20, 4, 0.5),
    lambda: oracle_spectrum(P2, 20.5, 4),
    lambda: uncoupled_spectrum(DELTA0, 0.5),
    # a setting that is not a real number is refused, a str never parsed
    lambda: oracle_spectrum(P2, "120"),
    lambda: oracle_spectrum(P2, 120, None),
    lambda: uncoupled_spectrum(validate_params(1.0, 0.0, 0.1, 0.3, 0.1), "3"),
    lambda: RootScanConfig("a", 1, 0.1),
    lambda: heun_spectrum(P2, "a", 1),
    lambda: bcf_spectrum(validate_params(1.0, 0.0, 0.1, 0.3, 0.1), None, 1),
    lambda: ModelParams("1", 0.4, 0.15, 0.6, 0),
    lambda: ModelParams(None, 0.4, 0.15, 0.6, 0),
    lambda: ModelParams(1, 0.4, 0.15, np.array([0.6]), 0),
    # the cached entry points read their settings before the cache
    lambda: fock.eigenvalues(P2, "40"),
    lambda: fock.eigenvalues(P2, 40, "3"),
    lambda: zeta_form(HEUN, P2, "0.3"),
    lambda: operators.compose_fourth_order(P3, "0.2"),
    lambda: operators.asymmetric_second_order(P2, "0.2"),
], ids=["heun-nan-step", "bcf-nan-step", "delta0-nan-step", "delta0-inf-window",
        "oracle-k-1", "oracle-k0", "oracle-delta_n-1", "uncoupled-n_max-3",
        "oracle-k4.5", "hamiltonian-cutoff19.5", "oracle-delta_n0.5",
        "oracle-cutoff20.5", "uncoupled-n_max0.5", "oracle-cutoff-str", "oracle-k-none",
        "uncoupled-n_max-str", "config-e_min-str", "heun-e_min-str", "bcf-e_min-none",
        "params-omega-str", "params-omega-none", "params-g-array",
        "eigenvalues-cutoff-str", "eigenvalues-k-str", "zeta_form-energy-str",
        "compose_fourth_order-energy-str", "asymmetric_second_order-energy-str"])
def test_bad_setting_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call, python_numbers", [
    (lambda: fock.eigenvalues(P2, np.array(40)), lambda: fock.eigenvalues(P2, 40)),
    (lambda: fock.eigenvalues(P2, 40, np.array(3)), lambda: fock.eigenvalues(P2, 40, 3)),
    (lambda: zeta_form(HEUN, P2, np.array(0.3)),
     lambda: zeta_form(HEUN, P2, 0.3)),
    (lambda: operators.compose_fourth_order(P3, np.array(0.2)),
     lambda: operators.compose_fourth_order(P3, 0.2)),
    (lambda: operators.asymmetric_second_order(P2, np.array(0.2)),
     lambda: operators.asymmetric_second_order(P2, 0.2)),
], ids=["eigenvalues-cutoff", "eigenvalues-k", "zeta_form-energy",
        "compose_fourth_order-energy", "asymmetric_second_order-energy"])
def test_a_cached_entry_point_takes_a_0d_array(call, python_numbers):
    # the array is read as its value before the cache forms its key, so it
    # hashes and shares the entry of the Python number
    assert call() is python_numbers()


@pytest.mark.parametrize("lam", [0.5, 0.6])
@pytest.mark.parametrize("call", [
    lambda p: uncoupled_spectrum(p, 3),
    lambda p: bcf_spectrum(p, -1.0, 3.0),
    lambda p: weber_params(p, 0.0),
], ids=["uncoupled", "bcf-delta0", "weber"])
def test_closed_form_refuses_squeeze_at_half_omega_and_past(call, lam):
    # ModelParams admits |2 lambda| >= omega, where the closed-form ladder
    # spacing sqrt(omega^2 - 4 lambda^2) is not real
    with pytest.raises(ValidationError, match=r"sqrt\(omega\^2 - 4 lambda\^2\) is not real"):
        call(ModelParams(1.0, 0.0, 0.1, 0.2, lam))


@pytest.mark.parametrize("lam", [0.5, -0.6])
@pytest.mark.parametrize("call", [
    lambda p: bcf_spectrum(p, -1.0, 3.0),
    lambda p: g_function_bcf(p, 0.2),
    lambda p: g_function_bcf_batch(p, [0.2, 0.7]),
], ids=["bcf", "g_function_bcf", "g_function_bcf_batch"])
def test_bcf_refuses_squeeze_at_half_omega_and_past(call, lam):
    # delta != 0, so the scanned reduction is reached, which would return an
    # empty spectrum with no flag
    with pytest.raises(ValidationError, match=r"\|2\*lambda\| = "):
        call(ModelParams(1.0, 0.3, 0.0, 0.1, lam))


@pytest.mark.parametrize("call", [
    lambda p: bcf_spectrum(p, -1.0, 3.0),
    lambda p: g_function_bcf(p, 0.2),
    lambda p: g_function_bcf_batch(p, [0.2, 0.7]),
], ids=["bcf", "g_function_bcf", "g_function_bcf_batch"])
def test_bcf_squeeze_error_gives_the_callers_numbers(call):
    # the routes work in units of omega, but the rule is read in the caller's
    with pytest.raises(ValidationError, match=r"\|2\*lambda\| = 2.4 >= omega = 2.0:"):
        call(ModelParams(2.0, 0.3, 0.0, 0.1, 1.2))


#: omega = 2 and omega = 1e-10 parameter sets: heun, heun with lambda != 0
#: and bcf
P2_AT_2 = ModelParams(2.0, 0.4, 0.15, 0.6, 0.0)
SQUEEZED_AT_2 = ModelParams(2.0, 0.4, 0.15, 0.6, 0.1)
P3_AT_2 = ModelParams(2.0, 0.6, 0.0, 0.1, 0.04)
P2_AT_1E_10 = ModelParams(1e-10, 4e-11, 1.5e-11, 6e-11, 0.0)
P3_AT_1E_10 = ModelParams(1e-10, 3e-11, 0.0, 5e-12, 2e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: heun_spectrum(SQUEEZED_AT_2, -1, 1), "heun route needs lambda = 0, got 0.1"),
    (lambda: g_function_heun(SQUEEZED_AT_2, 0.2), "heun route needs lambda = 0, got 0.1"),
    (lambda: g_function_heun_batch(SQUEEZED_AT_2, [0.2]),
     "heun route needs lambda = 0, got 0.1"),
    (lambda: heun_spectrum(P2_AT_2, 3, 1), "e_min 3 exceeds e_max 1"),
    (lambda: bcf_spectrum(P3_AT_2, 3, 1), "e_min 3 exceeds e_max 1"),
    (lambda: heun_spectrum(P2_AT_2, -1, 1, 1e-7), "grid_step 1e-07 puts more than"),
    (lambda: bcf_spectrum(P3_AT_2, -1, 1, 1e-7), "grid_step 1e-07 puts more than"),
    # e_max / omega overflows, though e_max does not
    (lambda: heun_spectrum(P2_AT_1E_10, -1, 1e300, 1e300),
     r"the window \[-1, 1e\+300\] with grid_step 1e\+300 leaves the float range"),
    (lambda: bcf_spectrum(P3_AT_1E_10, -1, 1e300, 1e300),
     r"the window \[-1, 1e\+300\] with grid_step 1e\+300 leaves the float range"),
], ids=["heun-lambda", "g_function_heun-lambda", "g_function_heun_batch-lambda",
        "heun-window", "bcf-window", "heun-step", "bcf-step", "heun-overflow",
        "bcf-overflow"])
def test_a_route_error_gives_the_callers_numbers(call, message):
    # the routes work in units of omega, but each rule is read in the caller's
    with pytest.raises(ValidationError, match=message):
        call()


def test_gscan_bcf_squeeze_error_gives_the_callers_numbers(capsys):
    code = main(["gscan", "--method", "bcf", "--omega", "2", "--delta", "0.3",
                 "--g", "0.1", "--lambda", "1.2", "--emin", "-1", "--emax", "3"])
    assert code == 2
    assert "|2*lambda| = 2.4 >= omega = 2.0:" in capsys.readouterr().err


ROUTES = {
    "heun": lambda a, b, c: heun_spectrum(P2, a, b, c),
    "heun-delta0": lambda a, b, c: heun_spectrum(DELTA0, a, b, c),
    "bcf": lambda a, b, c: bcf_spectrum(P3, a, b, c),
    "uncoupled": lambda a, _b, _c: uncoupled_spectrum(DELTA0, a),
    "oracle": lambda a, b, c: oracle_spectrum(P2, a, b, c),
}
#: with a valid cutoff and k too, so the oracle's later checks are reached
SETTING = st.sampled_from(VALUES + (20, 4))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ROUTES)), SETTING, SETTING, SETTING)
def test_any_setting_gives_a_result_or_a_package_error(route, a, b, c):
    try:
        with np.errstate(all="ignore"):  # overflowing energies may warn
            ROUTES[route](a, b, c)
    except RabiSpectraError:
        pass


@pytest.mark.parametrize("omega, coupling", [(1.0, 1e151), (1e-300, 0.4), (1e-300, -1e-149)])
@pytest.mark.parametrize("field", ["delta", "epsilon", "g", "lam"])
def test_coupling_above_1e150_omega_raises_validation_error(field, omega, coupling):
    with pytest.raises(ValidationError, match=f"{field}. / omega"):
        ModelParams(**{**dict(omega=omega, delta=0.0, epsilon=0.0, g=0.0, lam=0.0),
                       field: coupling})
    ModelParams(**{**dict(omega=omega, delta=0.0, epsilon=0.0, g=0.0, lam=0.0),
                   field: 1e150 * omega})


#: route -> (spectrum, parameters, window) at omega = 1: heun P2, bcf P3 and
#: a delta = 0 set, which bcf returns in closed form
SCALED = {
    "heun": (heun_spectrum, P2, (-1.0, 4.0)),
    "bcf": (bcf_spectrum, P3, (-1.0, 3.0)),
    "closed": (bcf_spectrum, validate_params(1.0, 0.0, 0.1, 0.4, 0.2), (-1.0, 3.0)),
}


@functools.cache
def scaled(route: str, omega: float):
    """(energies / omega, labels, n_evaluations) with the route's parameters,
    window and grid step all multiplied by omega."""
    spectrum, p, (lo, hi) = SCALED[route]
    res = spectrum(ModelParams(*(x * omega for x in dataclasses.astuple(p))),
                   lo * omega, hi * omega, 0.05 * omega)
    return res.energies / omega, res.labels, res.report.n_evaluations


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCALED)), st.integers(-900, 900))
def test_spectrum_at_a_power_of_two_omega_is_bit_identical(route, k):
    # division by a power of two is exact, so every energy / omega is too
    energies, labels, n_evaluations = scaled(route, 2.0 ** k)
    unit = scaled(route, 1.0)
    np.testing.assert_array_equal(energies, unit[0])
    assert (labels, n_evaluations) == unit[1:]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCALED)), st.integers(-300, 300))
def test_spectrum_at_a_power_of_ten_omega_agrees_in_units_of_omega(route, j):
    # the divided window edges are not exact, so the scan may take other steps
    energies, labels, _n_evaluations = scaled(route, 10.0 ** j)
    unit = scaled(route, 1.0)
    np.testing.assert_allclose(energies, unit[0], rtol=0.0, atol=REFINE_TOL)
    assert labels == unit[1]
