"""Operator-composition checks.

The independent oracle used throughout: apply the two second-order operators
sequentially to a random polynomial (plain polynomial arithmetic) and compare
against the composed fourth-order operator applied to the same polynomial.
"""

import numpy as np
import pytest

from rabi_spectra import ModelParams, validate_params
from rabi_spectra.audit import audit_general_table, printed_fourth_order, printed_general_table
from rabi_spectra.canonical import (
    asymmetric_second_order,
    compose_fourth_order,
    coupled_operator_polys,
    general_table,
)
from rabi_spectra.errors import ValidationError
from rabi_spectra.polyops import pder, pmul, poly, padd
from rabi_spectra.twopoint import bcf_truncated_parent


def apply_operator(op, f):
    out = np.zeros(1)
    for k, p in enumerate(op):
        out = padd(out, pmul(p, pder(f, k)))
    return out


def test_composition_matches_sequential_application():
    rng = np.random.RandomState(0)
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.1)
    energy = 0.25
    c1, c2, c1b, c2b = coupled_operator_polys(p, energy)
    d_op = [c2, c1, poly([p.lam])]
    dbar_op = [c2b, c1b, poly([p.lam])]
    full = compose_fourth_order(p, energy)
    for _ in range(5):
        f = rng.randn(7)
        seq = apply_operator(dbar_op, apply_operator(d_op, f))
        seq = padd(seq, p.delta ** 2 * poly(f))
        direct = apply_operator(full, f)
        np.testing.assert_allclose(direct, seq, rtol=1e-12, atol=1e-12)


def test_operator_compose_full_table():
    # frozen from the composition oracle at these parameters
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.1)
    c = general_table(p, 0.0)
    assert c["A1"] == pytest.approx(2 * 0.2 / 0.1, rel=1e-12)
    assert c["B1"] == pytest.approx(0.2 ** 2 / 0.01 + 2 * (1.0 + 0.1) / 0.1, rel=1e-12)
    assert c["B2"] == pytest.approx(2 * 0.2 / 0.1, rel=1e-12)
    assert c["B3"] == pytest.approx(2.0 - 1.0 / 0.01, rel=1e-12)
    assert c["C1"] == pytest.approx(0.2 * (1.0 + 2 * 0.1) / 0.01 + 2 * 0.2 / 0.1, rel=1e-12)
    assert c["C2"] == pytest.approx(4.0 + (2 * 0.2 ** 2 - 1.0) / 0.01, rel=1e-12)
    assert c["C3"] == pytest.approx(2 * 0.2 / 0.1, rel=1e-12)
    assert c["C4"] == 0.0
    assert c["D1"] == pytest.approx(2.0 + (0.04 + 0.01 - 0.0 + 0.09) / 0.01, rel=1e-12)
    assert c["D4"] == pytest.approx(2 * 0.2 / 0.1, rel=1e-12)


def test_delta_zero_constant_term():
    # with delta = 0 the phi coefficient is lam c2'' + c1bar c2' + c2bar c2
    p = validate_params(1.0, 0.0, 0.1, 0.2, 0.1)
    full = compose_fourth_order(p, 0.3)
    c1, c2, c1b, c2b = coupled_operator_polys(p, 0.3)
    expect = padd(padd(poly([2 * p.lam * p.lam]), pmul(c1b, pder(c2))),
                  pmul(c2b, c2))
    np.testing.assert_allclose(full[0], expect, rtol=1e-12)


def test_g_zero_specialization():
    # g = 0 kills the odd-degree structure: A1 = B2 = C1 = C3 = D2 = D4 = 0
    p = validate_params(1.0, 0.3, 0.1, 0.0, 0.1)
    c = general_table(p, 0.2)
    for key in ("A1", "B2", "C1", "C3", "D2", "D4"):
        assert c[key] == 0.0


def test_mismatch_report_names_exactly_the_incorrect_entries():
    # A1, D2, D3, D4 are the only printed entries the composition confirms;
    # D1 differs by the delta^2 sign alone
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.1)
    entry = audit_general_table(p, 0.17)
    assert {it["lag"] for it in entry["items"] if not it["match"]} \
        == {"B1", "B2", "B3", "C1", "C2", "C3", "C4", "D1"}
    assert general_table(p, 0.17)["D1"] - printed_general_table(p, 0.17)["D1"] \
        == pytest.approx(2 * p.delta ** 2 / p.lam ** 2, rel=1e-12)


def test_operator_compose_requires_lambda():
    with pytest.raises(ValidationError, match="divides by lambda\\^2"):
        general_table(validate_params(1.0, 0.3, 0.1, 0.2, 0.0), 0.0)


def test_printed_operator_differs_only_in_phi1_phi2_rows():
    p = validate_params(1.0, 0.3, 0.1, 0.2, 0.1)
    comp = compose_fourth_order(p, 0.4)
    prin = printed_fourth_order(p, 0.4)
    np.testing.assert_allclose(comp[4], prin[4], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(comp[3], prin[3], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(comp[0], prin[0], rtol=1e-12, atol=1e-14)
    assert not np.allclose(padd(comp[2], -prin[2]), 0.0)
    assert not np.allclose(padd(comp[1], -prin[1]), 0.0)


def test_asymmetric_second_order_is_lambda0_elimination():
    # same sequential-application oracle with the first-order operators
    rng = np.random.RandomState(1)
    p = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)
    energy = 0.3
    m_op = [poly([p.epsilon - energy, p.g]), poly([p.g, p.omega])]
    mbar_op = [poly([p.epsilon + energy, p.g]), poly([p.g, -p.omega])]
    second = asymmetric_second_order(p, energy)
    for _ in range(4):
        f = rng.randn(6)
        seq = apply_operator(mbar_op, apply_operator(m_op, f))
        seq = padd(seq, p.delta ** 2 * poly(f))
        np.testing.assert_allclose(apply_operator(second, f), seq,
                                   rtol=1e-12, atol=1e-12)


def test_truncated_parent_error_scales_quadratically():
    # || composed_2nd_order_part - truncated || = O(s^2) under (g, lam) -> s (g, lam)
    base_g, base_lam = 0.2, 0.1
    energy = 0.3

    def defect(s):
        p = ModelParams(1.0, 0.3, 0.1, s * base_g, s * base_lam)
        full = compose_fourth_order(p, energy)
        trunc = bcf_truncated_parent(p, energy)
        d = 0.0
        for k in range(3):
            diff = padd(poly(full[k]) / p.lam ** 0, -trunc[k])
            # compare the second-order rows of the full operator (which carry
            # the lam^0 and lam^1 physics) against the truncation
            d = max(d, np.max(np.abs(diff)))
        return d

    d1, d2 = defect(1.0), defect(0.5)
    assert d1 / d2 == pytest.approx(4.0, rel=0.35)
