"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured figure against its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import time

import numpy as np
import pytest

from rabi_spectra import (
    bcf_spectrum,
    heun_spectrum,
    oracle_spectrum,
    uncoupled_spectrum,
    validate_params,
)
from rabi_spectra.audit import audit_recurrences, audit_two_photon_table, residual_suite
from rabi_spectra.cli import main as cli_main
from rabi_spectra.fock import eigenvalues

P1 = validate_params(1.0, 0.0, 0.1, 0.4, 0.2)          # closed-form check
P2 = validate_params(1.0, 0.4, 0.15, 0.6, 0.0)         # asymmetric check
P3 = validate_params(1.0, 0.3, 0.0, 0.05, 0.02)        # small-coupling check
P3H = validate_params(1.0, 0.3, 0.0, 0.025, 0.01)


def report(n, text):
    print(f"\n[acceptance {n}] PASS - {text}")


@pytest.fixture(scope="module")
def oracle2():
    return oracle_spectrum(P2, 100, 16).eigenvalues


def test_criterion_1_closed_form_exactness():
    t0 = time.perf_counter()
    plus, minus = uncoupled_spectrum(P1, 12)
    cf = np.sort(np.concatenate([plus.energies, minus.energies]))[:10]
    ev = oracle_spectrum(P1, 120, 10).eigenvalues
    err = float(np.max(np.abs(cf - ev)))
    dt = time.perf_counter() - t0
    assert err <= 1e-8
    assert dt < 5.0
    report(1, f"closed form vs oracle: max|dE| = {err:.2e} <= 1e-8 "
              f"({dt:.2f}s < 5s)")


def test_criterion_2_asymmetric_exactness(oracle2):
    t0 = time.perf_counter()
    res = heun_spectrum(P2, -1.0, 4.0, 0.05)
    win = [e for e in oracle2 if -1.0 <= e <= 4.0]
    worst = 0.0
    for e in win:
        worst = max(worst, float(np.min(np.abs(res.energies - e))))
    spurious = [r for r in res.energies
                if min(abs(r - e) for e in win) > 1e-6]
    dt = time.perf_counter() - t0
    assert len(win) == 10
    assert worst <= 1e-6
    assert not spurious
    assert dt < 30.0
    report(2, f"every root <-> oracle eigenvalue, {len(win)} levels, "
              f"max|dE| = {worst:.2e} <= 1e-6 ({dt:.1f}s < 30s)")


def test_criterion_3_bcf_approximation():
    ev = oracle_spectrum(P3, 120, 8).eigenvalues
    res = bcf_spectrum(P3, -1.0, 3.0, 0.05)
    errs = [float(np.min(np.abs(ev - r))) for r in res.energies[:4]]
    ev_h = oracle_spectrum(P3H, 120, 8).eigenvalues
    res_h = bcf_spectrum(P3H, -1.0, 3.0, 0.05)
    errs_h = [float(np.min(np.abs(ev_h - r))) for r in res_h.energies[:4]]
    shrink = max(errs) / max(errs_h)
    assert len(res.energies) >= 4
    assert max(errs) <= 5e-3
    assert shrink >= 3.0
    report(3, f"lowest-4 max|dE| = {max(errs):.2e} <= 5e-3; halving (g,lam) "
              f"shrinks error x{shrink:.2f} >= 3")


def test_criterion_4_recurrence_audit(tmp_path):
    entries = {e["name"]: e for e in audit_recurrences(
        validate_params(1.0, 0.4, 0.15, 0.6, 0.0), -0.1,
        validate_params(1.0, 0.3, 0.1, 0.2, 0.1), 0.2)}
    # matching printed recurrences, instantiated with the composed tables
    for name in ("che-series-one", "five-term-series", "nine-term-series",
                 "bcf-series-one"):
        assert entries[name]["match"], name
    # the two genuinely inconsistent printed displays must be detected and
    # logged with both forms (the four-term origin recurrence contradicts a
    # direct low-order expansion of its own equation, so detection -- not a
    # match -- is the correct outcome there)
    for name in ("che-series-origin", "bcf-series-origin"):
        e = entries[name]
        assert not e["match"]
        bad = [it for it in e["items"] if not it["match"]]
        assert bad and all(it["derived"] != it["printed"] for it in bad)
    tp = audit_two_photon_table(validate_params(1.0, 0.3, 0.1, 0.2, 0.1), 0.2)
    c1 = [it for it in tp["items"] if it["lag"] == "C1"]
    assert c1 and not c1[0]["match"]  # the delta^2-sign discrepancy
    out = tmp_path / "diag.json"
    code = cli_main(["diagnose", "--omega", "1", "--delta", "0.3",
                     "--eps", "0.1", "--g", "0.2", "--lambda", "0.1",
                     "--out", str(out)])
    assert code == 0
    assert out.exists()
    report(4, "derived == printed for the one-side/five/nine-term "
              "recurrences; origin-series and delta^2-sign discrepancies "
              "detected and logged; diagnose exit 0 (four-term origin "
              "mismatch documented in the ledger)")


def test_criterion_5_residual_suite():
    t0 = time.perf_counter()
    rows = residual_suite()
    dt = time.perf_counter() - t0
    worst = max(r["residual"] for r in rows)
    contexts = {r["context"] for r in rows}
    assert contexts >= {"che@0", "che@1", "bcf@0", "bcf@1", "nine-term",
                        "five-term", "bch-first-normal", "weber-kummer"}
    assert all(r["ok"] for r in rows)
    assert dt < 60.0
    report(5, f"{len(rows)} residuals over {len(contexts)} series contexts, "
              f"worst = {worst:.2e} < 1e-10 ({dt:.1f}s < 60s)")


def test_criterion_6_wronskian_invariance():
    heun_roots = {}
    for zs in (0.35, 0.5, 0.65):
        heun_roots[zs] = heun_spectrum(P2, -1.0, 4.0, 0.05,
                                       zeta_star=zs).energies
    bcf_roots = {}
    for zs in (0.35, 0.5, 0.65):
        bcf_roots[zs] = bcf_spectrum(P3, -1.0, 3.0, 0.05,
                                     zeta_star=zs).energies
    worst = 0.0
    for roots in (heun_roots, bcf_roots):
        for a in (0.35, 0.5, 0.65):
            for b in (0.35, 0.5, 0.65):
                assert len(roots[a]) == len(roots[b])
                worst = max(worst, float(np.max(np.abs(roots[a] - roots[b]))))
    assert worst <= 1e-8
    report(6, f"heun and bcf root sets at zeta* in (0.35, 0.5, 0.65): "
              f"pairwise max|dE| = {worst:.2e} <= 1e-8")


def test_criterion_7_symmetry_and_convergence():
    e1 = eigenvalues(P2, 120)[:12]
    e2 = eigenvalues(P2.mirrored(), 120)[:12]
    sym = float(np.max(np.abs(e1 - e2) / np.maximum(1.0, np.abs(e1))))
    assert sym <= 1e-10
    prev = None
    for cutoff in (40, 60, 80, 120):
        ev = eigenvalues(P2, cutoff)[:10]
        if prev is not None:
            assert np.all(ev <= prev + 1e-12)
        prev = ev
    conv = float(np.max(np.abs(eigenvalues(P2, 120)[:10]
                               - eigenvalues(P2, 160)[:10])))
    assert conv <= 1e-9
    report(7, f"mirror symmetry {sym:.1e} <= 1e-10; interlacing monotone "
              f"over N in (40,60,80,120); |E_k(120)-E_k(160)| = {conv:.1e} "
              f"<= 1e-9")


def test_criterion_8_lambda_to_zero_continuity():
    p_b = validate_params(1.0, 0.4, 0.15, 0.05, 1e-6)
    p_h = validate_params(1.0, 0.4, 0.15, 0.05, 0.0)
    rb = bcf_spectrum(p_b, -1.0, 4.0, 0.05)
    rh = heun_spectrum(p_h, -1.0, 4.0, 0.05)
    assert len(rb.energies) == len(rh.energies)
    worst = float(np.max(np.abs(rb.energies - rh.energies)))
    assert worst <= 1e-5
    report(8, f"bcf(lam=1e-6) vs heun(lam=0): {len(rb.energies)} roots, "
              f"max|dE| = {worst:.2e} <= 1e-5")
