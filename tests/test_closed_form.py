import math

import numpy as np
import pytest

from rabi_spectra import heun_spectrum, oracle_spectrum, uncoupled_spectrum, validate_params
from rabi_spectra.canonical import _kummer_lanes, weber_params, weber_residual_exact
from rabi_spectra.errors import ValidationError
from rabi_spectra.params import ModelParams


def weber_solutions(a1: float, zeta1: float) -> tuple:
    """Even and odd solutions of u'' = (zeta^2/4 + a1) u."""
    pref = math.exp(-zeta1 ** 2 / 4.0)
    (me, _, _), (mo, _, _) = _kummer_lanes(
        ((a1 / 2 + 0.25, 0.5), (a1 / 2 + 0.75, 1.5)), zeta1 ** 2 / 2.0)
    return float(pref * me), float(zeta1 * pref * mo)


def weber_residual_fd(a1: float, zeta1: float, h: float = 4e-3) -> tuple:
    """Central finite-difference residual of (U_e, U_o), Richardson refined:
    the reference that ``canonical.weber_residual_exact`` is checked with."""
    out = []
    for idx in (0, 1):
        def u(z, idx=idx):
            return weber_solutions(a1, z)[idx]

        def second(hh):
            return (u(zeta1 + hh) - 2 * u(zeta1) + u(zeta1 - hh)) / hh ** 2

        upp = (4.0 * second(h / 2) - second(h)) / 3.0
        out.append(abs(upp - (zeta1 ** 2 / 4 + a1) * u(zeta1))
                   / max(1.0, abs(u(zeta1))))
    return tuple(out)


def test_bare_oscillator():
    p = validate_params(1.0, 0.0, 0.0, 0.0, 0.0)
    plus, _minus = uncoupled_spectrum(p, 2)
    np.testing.assert_allclose(plus.energies, [0.0, 1.0, 2.0], atol=1e-15)


def test_displaced_oscillator():
    p = validate_params(1.0, 0.0, 0.0, 0.5, 0.0)
    plus, _ = uncoupled_spectrum(p, 0)
    assert plus.energies[0] == pytest.approx(-0.25, abs=1e-15)


def test_squeezed_ground_state_vs_oracle():
    p = validate_params(1.0, 0.0, 0.0, 0.0, 0.3)
    plus, _ = uncoupled_spectrum(p, 0)
    assert plus.energies[0] == pytest.approx(-0.1, abs=1e-12)
    ev = oracle_spectrum(p, 120, 1).eigenvalues
    assert abs(plus.energies[0] - ev[0]) < 1e-8


def test_branch_structure():
    p = validate_params(1.0, 0.0, 0.1, 0.4, 0.2)
    plus, minus = uncoupled_spectrum(p, 6)
    spacing = math.sqrt(1.0 - 4 * 0.04)
    np.testing.assert_allclose(np.diff(plus.energies), spacing, rtol=1e-14)
    np.testing.assert_allclose(np.diff(minus.energies), spacing, rtol=1e-14)
    assert plus.coupling_term == pytest.approx(-0.16 / 1.4)
    assert minus.coupling_term == pytest.approx(-0.16 / 0.6)
    assert plus.offset_term == pytest.approx(-0.5 + 0.1)
    assert minus.offset_term == pytest.approx(-0.5 - 0.1)


def test_branch_map_is_mirror():
    # negative branch equals positive branch of the mirrored parameters
    p = validate_params(1.0, 0.0, 0.1, 0.4, 0.2)
    _, minus = uncoupled_spectrum(p, 5)
    plus_m, _ = uncoupled_spectrum(p.mirrored(), 5)
    np.testing.assert_allclose(minus.energies, plus_m.energies, rtol=1e-15)


def test_exactness_vs_oracle_random_draws():
    rng = np.random.RandomState(11)
    for _ in range(10):
        lam = rng.uniform(-0.3, 0.3)
        p = validate_params(1.0, 0.0, rng.uniform(-0.3, 0.3),
                            rng.uniform(-0.6, 0.6), lam)
        plus, minus = uncoupled_spectrum(p, 12)
        cf = np.sort(np.concatenate([plus.energies, minus.energies]))[:10]
        ev = oracle_spectrum(p, 120, 10).eigenvalues
        assert np.max(np.abs(cf - ev)) < 1e-8


def test_requires_delta_zero():
    with pytest.raises(ValidationError, match="closed-form route needs delta = 0"):
        uncoupled_spectrum(validate_params(1.0, 0.2, 0.0, 0.1, 0.0), 3)


def test_a_window_past_the_level_cap_is_refused_naming_it():
    # delta = 0 sends the determinant routes to the closed form, whose level
    # cap the window [-1, 1e6] passes: the message names the window, not
    # the closed form's own n_max
    with pytest.raises(ValidationError, match=r"\[e_min, e_max\] = \[-1.0, 1000000.0\]"
                       r".* levels") as err:
        heun_spectrum(ModelParams(1.0, 0.0, 0.0, 0.4, 0.0), -1.0, 1e6, 1e3)
    assert "n_max" not in str(err.value)


def test_weber_quantization_values():
    p = validate_params(1.0, 0.0, 0.0, 0.3, 0.2)
    plus, _ = uncoupled_spectrum(p, 4)
    a1_0 = weber_params(p, plus.energies[0])
    a1_3 = weber_params(p, plus.energies[3])
    assert a1_0 == pytest.approx(0.5, rel=1e-12)
    assert a1_3 == pytest.approx(3.5, rel=1e-12)


def test_weber_params_invertible_relation():
    # generic E: invert a1 back to E through the quantization relation
    p = validate_params(1.0, 0.0, 0.0, 0.1, 0.2)
    a1 = weber_params(p, 0.0)
    spacing = math.sqrt(p.omega ** 2 - 4 * p.lam ** 2)
    e_back = a1 * spacing - p.g ** 2 / (p.omega + 2 * p.lam) \
        - p.omega / 2 + p.epsilon
    assert e_back == pytest.approx(0.0, abs=1e-12)


def test_weber_params_lambda_zero_refused():
    with pytest.raises(ValidationError, match="stretch degenerates at lambda = 0"):
        weber_params(validate_params(1.0, 0.0, 0.0, 0.3, 0.0), 0.1)


def test_weber_solutions_at_origin_and_parity():
    ue0, uo0 = weber_solutions(0.7, 0.0)
    assert (ue0, uo0) == (1.0, 0.0)
    uep, uop = weber_solutions(0.7, 0.7)
    uem, uom = weber_solutions(0.7, -0.7)
    assert uep == pytest.approx(uem, rel=1e-14)
    assert uop == pytest.approx(-uom, rel=1e-14)


def test_weber_ode_residual_exact_and_fd():
    for a1, z in [(0.5, 1.0), (1.3, 0.4), (-0.8, 1.7)]:
        re, ro = weber_residual_exact(a1, z)
        assert max(re, ro) < 1e-10
    rng = np.random.RandomState(5)
    for _ in range(10):
        a1 = rng.uniform(-1.5, 2.5)
        z = rng.uniform(0.1, 2.0)
        re, ro = weber_residual_fd(a1, z)
        assert max(re, ro) < 1e-9
