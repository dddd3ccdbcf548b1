"""The derived-vs-printed audit must reproduce the known defect map of the
source text: which displays are algebraically consistent and which are not.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabi_spectra import audit, operators, twopoint, validate_params
from rabi_spectra.canonical import normalize_params
from rabi_spectra.errors import NumericalError
from rabi_spectra.params import ModelParams
from rabi_spectra.audit import (
    audit_appendix,
    audit_asymmetric_tables,
    audit_bcf_tables,
    audit_fourth_order_operator,
    audit_general_table,
    audit_recurrences,
    audit_reduction_chain,
    audit_two_photon_table,
    diagnose_report,
    residual_suite,
)
from test_polyops import reference_ptrim

P_ASYM = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)
P_GEN = validate_params(1.0, 0.3, 0.1, 0.2, 0.1)


@pytest.fixture(scope="module")
def rec_entries():
    return {e["name"]: e for e in audit_recurrences(P_ASYM, -0.1, P_GEN, 0.2)}


def test_recurrence_match_map(rec_entries):
    expected = {
        "che-series-origin": False,   # missing factor n in the printed weight
        "che-series-one": True,
        "five-term-series": True,     # composed B2 = 0 hides the misplacement
        "nine-term-series": True,     # subscript normalized per the audit note
        "bcf-series-origin": False,   # sign of beta2 term and of n(n-1)
        "bcf-series-one": True,       # alpha2-for-alpha1 typo multiplies zero
        "bch-series": True,
    }
    assert {k: v["match"] for k, v in rec_entries.items()} == expected


def test_mismatches_logged_with_both_forms(rec_entries):
    for name in ("che-series-origin", "bcf-series-origin"):
        bad = [it for it in rec_entries[name]["items"] if not it["match"]]
        assert bad, name
        for it in bad:
            assert it["derived"] and it["printed"]
            assert it["derived"] != it["printed"]


def test_che_origin_discrepancy_is_the_missing_n(rec_entries):
    # derived a_n weight has a linear term, printed has none
    entry = rec_entries["che-series-origin"]
    bad = {it["lag"]: it for it in entry["items"] if not it["match"]}
    assert set(bad) == {"a[n]"}
    assert "*n " in bad["a[n]"]["derived"] or "*n" in bad["a[n]"]["derived"]
    assert "*n " not in bad["a[n]"]["printed"].replace("*n^2", "")


def test_operator_audit_detects_missing_product_rule_terms():
    entry = audit_fourth_order_operator(P_GEN, 0.2)
    assert not entry["match"]
    bad = {it["lag"] for it in entry["items"] if not it["match"]}
    assert bad == {"phi^(1)", "phi^(2)"}


def test_general_table_audit():
    entry = audit_general_table(P_GEN, 0.17)
    bad = {it["lag"] for it in entry["items"] if not it["match"]}
    assert bad == {"B1", "B2", "B3", "C1", "C2", "C3", "C4", "D1"}


def test_two_photon_table_audit_detects_delta_sign_and_lambda_power():
    entry = audit_two_photon_table(P_GEN, 0.2)
    bad = {it["lag"] for it in entry["items"] if not it["match"]}
    assert "C1" in bad     # the delta^2 sign
    assert "C2" in bad     # the lambda power
    assert "delta^2" in entry["note"]


def test_asymmetric_table_audit():
    entry = audit_asymmetric_tables(P_ASYM, -0.1)
    bad = {it["lag"] for it in entry["items"] if not it["match"]}
    assert bad == {"A1", "A3", "k_plus", "k_minus"}


def test_bcf_table_audit():
    entry = audit_bcf_tables(P_GEN, 0.2)
    by = {it["lag"]: it["match"] for it in entry["items"]}
    assert by["B2"] and by["B3"]          # these printed entries are correct
    assert not by["q^2"]
    assert not by["B1"]                   # delta^2 sign
    assert not by["beta1(beta+)"]         # missing /q on the odd part


def test_the_printed_chain_is_the_one_equation_builder():
    # the partial-fraction formulas give the symbols the route equations in
    # zeta carry, and the truncated parent is the exact one at lam = 0
    entry = audit_reduction_chain(P_ASYM, P_GEN, 0.2)
    assert entry["match"]
    lags = [it["lag"] for it in entry["items"]]
    assert lags[:5] == ["che:alpha", "che:beta", "che:gamma", "che:mu", "che:nu"]
    assert len([lag for lag in lags if lag.startswith("bcf:")]) == 13
    assert {lag.split("[")[0] for lag in lags[18:]} == {"phi^(0)", "phi^(1)", "phi^(2)"}
    report = diagnose_report(P_GEN, n_draws=2)
    assert "reduction-chain" in {e["name"] for e in report["audit"]}
    assert "reduction-chain" not in report["mismatched_entries"]


def test_appendix_audit():
    nb = normalize_params(P_GEN, 0.2)
    entries = {e["name"]: e for e in audit_appendix(nb)}
    assert not entries["appendix-exact-c"]["match"]
    bad = {it["lag"] for it in entries["appendix-exact-c"]["items"]
           if not it["match"]}
    assert bad == {"c4"}
    pf = entries["appendix-partial-fractions"]
    by = {it["lag"]: it["match"] for it in pf["items"]}
    assert by["alpha1"] and by["alpha2"] and by["beta1"] and by["beta2"]
    assert by["gamma1"] and by["gamma2"]
    assert not by["gamma3"] and not by["delta1"] and not by["delta2"]
    nf = entries["appendix-normal-form"]
    assert not nf["match"]

    nb0 = normalize_params(validate_params(1.0, 0.3, 0.1, 0.0, 0.1), 0.2)
    entries0 = {e["name"]: e for e in audit_appendix(nb0)}
    assert not entries0["appendix-bch-g0"]["match"]


def test_residual_suite_green_and_corruptible():
    rows = residual_suite(n_draws=3, seed=12)
    assert rows and all(r["ok"] for r in rows)
    bad = residual_suite(n_draws=1, seed=12, corrupt=True)
    assert any(not r["ok"] for r in bad)


def test_residual_suite_is_computed_once_and_handed_out_as_copies():
    first = residual_suite(n_draws=2, seed=12)
    hits = audit._residual_rows.cache_info().hits
    first[0]["ok"] = "changed"
    first.append({})
    again = residual_suite(n_draws=2, seed=12)
    assert len(again) == len(first) - 1 and again[0]["ok"] is True
    assert audit._residual_rows.cache_info().hits == hits + 1
    # the suite does not read the audited model: reports share its rows
    assert (diagnose_report(P_GEN, n_draws=2)["residuals"]
            == diagnose_report(P_ASYM, n_draws=2)["residuals"]
            == residual_suite(n_draws=2))


def test_the_bch_series_entry_is_computed_once_and_handed_out_as_copies():
    # its symbols are fixed: every report carries the same entry
    first = audit_recurrences(P_ASYM, -0.1, P_GEN, 0.2)[-1]
    hits = audit._bch_series.cache_info().hits
    assert first["name"] == "bch-series" and first["match"]
    first["symbols"]["alpha"] = "changed"
    first["items"][0]["derived"] = "changed"
    first["items"].append({})
    again = audit_recurrences(P_ASYM, 0.3, P_GEN, 0.3)[-1]
    assert audit._bch_series.cache_info().hits == hits + 1
    assert again == audit._bch_series() != first
    assert again["symbols"]["alpha"] == 0.7


def test_diagnose_report_shape():
    rep = diagnose_report(P_GEN, n_draws=2)
    assert rep["residuals_ok"]
    assert "che-series-origin" in rep["mismatched_entries"]
    assert "bcf-series-origin" in rep["mismatched_entries"]
    assert len(rep["oracle_convergence"]["deltas"]) == 10
    names = {e["name"] for e in rep["audit"]}
    assert {"five-term-series", "nine-term-series",
            "general-coefficient-table"} <= names


def test_a_printed_form_past_the_float_range_raises_a_numerical_error():
    # the appendix divides by lambda: its g = 0 table squares
    # epsilon / lambda = 1e169, where Python's float power raises OverflowError
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="audit_appendix"):
        diagnose_report(ModelParams(1.0, -1e150, 1e149, 1e20, 1e-20))


def test_a_warm_report_derives_each_input_once():
    diagnose_report(P_GEN)  # computes and keeps the residual rows
    derivations = (operators._compose_fourth_order, operators._asymmetric_second_order,
                   twopoint._zeta_form)
    for derive in derivations:
        derive.cache_clear()
    diagnose_report(validate_params(1.0, 0.35, 0.05, 0.25, 0.12))
    # general and g = 0 operators; one lam = 0 parent, read by the confluent
    # Heun equation, both partial-fraction tables and the reduction chain;
    # one zeta form per route, the confluent Heun and the reduced equation,
    # each read by the recurrence audit and the reduction chain
    assert [derive.cache_info().misses for derive in derivations] == [2, 1, 2]
    assert [derive.cache_info().maxsize for derive in derivations] == [4, 4, 8]


def test_a_report_computes_each_table_once(monkeypatch):
    # the general table of each of its two inputs and the confluent Heun
    # partial fractions are passed on to every entry that reads them
    calls = []

    def counted(f):
        return lambda *args: calls.append((f.__name__, *args)) or f(*args)

    for name in ("general_table", "_che_partial_fractions"):
        monkeypatch.setattr(audit, name, counted(getattr(audit, name)))
    diagnose_report(validate_params(1.0, 0.35, 0.05, 0.25, 0.12))
    assert len(calls) == len(set(calls)) == 3


def test_shared_derivations_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        operators.compose_fourth_order(P_GEN, 0.2)[0][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        operators.asymmetric_second_order(P_ASYM, 0.2)[0][0] = 0.0
    with pytest.raises(TypeError):
        operators.asymmetric_second_order(P_ASYM, 0.2)[0] = ()
    with pytest.raises(TypeError):
        twopoint.zeta_form(twopoint.ROUTES["heun"], P_ASYM, 0.2)[0][0] = 0.0
    with pytest.raises(TypeError):
        twopoint.zeta_form(twopoint.ROUTES["bcf"], P_GEN, 0.2)[1] = ()


def reference_poly_str(c) -> str:
    """_poly_str on arrays, trimmed by the array rule."""
    c = reference_ptrim(c, 1e-300)
    if not np.any(np.abs(c) > 0):
        return "0"
    parts = []
    for d, v in enumerate(c):
        if v == 0:
            continue
        parts.append(f"{v:+.12g}" + ("" if d == 0 else f"*n^{d}" if d > 1 else "*n"))
    return " ".join(parts)


EDGE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]),
                 st.floats(-1e3, 1e3, allow_nan=False))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(EDGE, min_size=1, max_size=8))
@example([1.0, math.nan, 0.0])  # Python's max skips this nan, np.max does not
@example([math.nan, -0.0])  # a nan is not > 0: the polynomial prints as 0
def test_poly_str_equals_the_array_form(c):
    with np.errstate(all="ignore"):
        ref = reference_poly_str(np.array(c))
    assert audit._poly_str(c) == audit._poly_str(np.array(c)) == ref


def test_a_row_with_a_nan_normalizes_as_numpy_divides():
    # the nan keeps the trailing zero, so the top is 0.0 and numpy's
    # division gives inf and nan where Python's would raise
    rows = [[0.0, 0.0], [math.nan, 1.0, 0.0], [2.0, -3.0, 0.0]]
    with np.errstate(all="ignore"):
        got = audit._normalize(rows)
        ref = [(np.array(r) / 0.0).tolist() for r in rows]
    assert repr([[float(v) for v in r] for r in got]) == repr(ref)
