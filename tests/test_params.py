import numpy as np
import pytest

from rabi_spectra import (
    ModelParams,
    RegimeTag,
    bcf_spectrum,
    classify_regime,
    heun_spectrum,
    uncoupled_spectrum,
    validate_params,
)
from rabi_spectra.canonical import normalize_params, weber_params
from rabi_spectra.errors import ValidationError
from rabi_spectra.params import VANISHING_TOL
from rabi_spectra.twopoint import ROUTES, zeta_form


def test_validate_ok():
    p = validate_params(1.0, 0.4, 0.1, 0.6, 0.2)
    assert p == ModelParams(1.0, 0.4, 0.1, 0.6, 0.2)


def test_validate_squeeze_boundary():
    with pytest.raises(ValidationError, match=r"\|2\*lambda\| = 1.0 >= omega = 1.0"):
        validate_params(1.0, 0.0, 0.0, 0.0, 0.5)  # omega^2 - 4 lam^2 = 0


def test_validate_omega():
    with pytest.raises(ValidationError, match="omega must be > 0"):
        validate_params(0.0, 0.1, 0.1, 0.1, 0.0)
    with pytest.raises(ValidationError, match="omega must be finite"):
        validate_params(float("nan"), 0.1, 0.1, 0.1, 0.0)


@pytest.mark.parametrize("fields, needle", [
    ((-1.0, 0.4, 0.15, 0.6, 0.0), "omega must be > 0"),
    ((0.0, 0.4, 0.15, 0.06, 0.02), "omega must be > 0"),
    ((1.0, 0.4, float("inf"), 0.6, 0.0), "epsilon must be finite"),
    ((1.0, 0.4, 0.15, float("nan"), 0.0), "g must be finite"),
])
def test_model_params_keep_their_own_invariants(fields, needle):
    # direct construction is refused too, so no route sees omega <= 0 (heun
    # and bcf used to fail on it with unrelated errors and numpy warnings)
    with pytest.raises(ValidationError, match=needle):
        ModelParams(*fields)
    ModelParams(1.0, 0.0, 0.0, 0.0, 0.6)  # |2 lambda| >= omega is left to validate_params


@pytest.mark.parametrize("delta,g,lam,tag", [
    (0.0, 0.3, 0.1, RegimeTag.UNCOUPLED),
    (0.3, 0.5, 0.0, RegimeTag.ASYMMETRIC),
    (0.3, 0.0, 0.1, RegimeTag.TWO_PHOTON),
    (0.3, 0.5, 0.1, RegimeTag.GENERAL),
])
def test_classify(delta, g, lam, tag):
    p = validate_params(1.0, delta, 0.05, g, lam)
    assert classify_regime(p) is tag


def test_classify_total_and_deterministic():
    rng = np.random.RandomState(3)
    for _ in range(50):
        p = validate_params(1.0, *rng.uniform(-0.4, 0.4, size=3),
                            rng.uniform(-0.45, 0.45))
        r1 = classify_regime(p)
        r2 = classify_regime(p)
        assert r1 == r2
        assert r1 in RegimeTag


@pytest.mark.parametrize("omega", [1.0, 1e-3, 40.0])
def test_one_vanishing_rule_for_routing_and_routes(omega):
    # a coupling at or below VANISHING_TOL * omega is zero for the routing,
    # for each route's own check and for the closed form of the scan routes alike
    small, large = 0.5 * VANISHING_TOL * omega, 2.0 * VANISHING_TOL * omega
    assert classify_regime(validate_params(omega, small, 0.0, 0.3 * omega,
                                           0.1 * omega)) is RegimeTag.UNCOUPLED
    assert classify_regime(validate_params(omega, large, 0.0, 0.3 * omega,
                                           0.1 * omega)) is RegimeTag.GENERAL
    p = validate_params(omega, small, 0.0, 0.3 * omega, 0.1 * omega)
    uncoupled_spectrum(p, 2)
    weber_params(p, 0.0)
    with pytest.raises(ValidationError, match="closed-form route needs delta = 0"):
        uncoupled_spectrum(validate_params(omega, large, 0.0, 0.3 * omega, 0.0), 2)
    p = validate_params(omega, 0.4 * omega, 0.0, 0.6 * omega, small)
    assert classify_regime(p) is RegimeTag.ASYMMETRIC
    zeta_form(ROUTES["heun"], p, 0.0)
    with pytest.raises(ValidationError, match="heun route needs lambda = 0"):
        zeta_form(ROUTES["heun"],
                  validate_params(omega, 0.4 * omega, 0.0, 0.6 * omega, large), 0.0)
    for route in (heun_spectrum, bcf_spectrum):
        closed = route(validate_params(omega, small, 0.0, 0.6 * omega, small),
                       -omega, 2 * omega, 0.05 * omega)
        scanned = route(validate_params(omega, large, 0.0, 0.6 * omega, small),
                        -omega, 2 * omega, 0.05 * omega)
        assert closed.metadata["route"] == "closed"
        assert closed.report.n_evaluations == 0 and closed.energies.size
        assert "route" not in scanned.metadata and scanned.report.n_evaluations > 0


def test_normalize_roundtrip():
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.05)
    nb = normalize_params(p, 0.7)
    assert nb.omega_bar * p.lam == pytest.approx(p.omega, rel=1e-15)
    assert nb.e_bar * p.lam == pytest.approx(0.7, rel=1e-15)


def test_normalize_requires_lambda():
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.0)
    with pytest.raises(ValidationError, match="normalization divides by lambda"):
        normalize_params(p, 0.0)


def test_mirror_involution():
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.05)
    assert p.mirrored().mirrored() == p


@pytest.mark.parametrize("omega", [1, np.float64(1.0), np.array(1.0), np.int64(1)],
                         ids=["int", "float64", "0-d-array", "int64"])
def test_a_parameter_set_holds_python_floats(omega):
    # every cache keys on the parameter set, so each form of a number makes
    # the same, hashable key
    p = ModelParams(omega, 0.4, 0.15, np.array(0.6), np.float32(0.0))
    ref = ModelParams(1.0, 0.4, 0.15, 0.6, 0.0)
    assert p == ref and hash(p) == hash(ref)
    assert all(type(getattr(p, f)) is float for f in ("omega", "delta", "epsilon", "g", "lam"))
