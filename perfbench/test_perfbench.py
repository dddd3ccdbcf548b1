"""Tests of the benchmark itself: hooks, counters, checks.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rabi_spectra import fock  # noqa: E402
from rabi_spectra.params import ModelParams  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    BCF_TOL, DELTA0, MISSING_LEVELS, P2, P3, WORKLOADS, BcfSweep, Case,
    DiagnoseBatch, HeunSweep, OracleCollapse, match_levels,
    reference_eigenvalues, window_reference)


def traced_calls(w, cases):
    with Tracer() as tr:
        for k, c in enumerate(cases):
            tr.call_id = k
            w.call(c)
    return tr


def names(tr):
    return {s[1] for s in tr.spans}


def tiny_oracle():
    w = OracleCollapse()
    w.ladder = (20, 40)
    return w


TINY = {
    "heun-sweep": (HeunSweep(), [Case("P2", P2, -1.0, 0.2),
                                 Case("delta0", DELTA0, -0.5, 1.0)],
                   {"route", "route.mirror", "route.ladder",
                    "route.exceptional", "reduction", "gfunc",
                    "series.derive", "series.rollout", "kernels.roll",
                    "rootscan", "threads.scan_map"}),
    "bcf-sweep": (BcfSweep(), [Case("P3", P3, -1.0, 1.0)],
                  {"route", "route.ladder", "route.exceptional", "reduction",
                   "gfunc", "series.derive", "series.rollout", "kernels.roll",
                   "rootscan", "threads.scan_map"}),
    "diagnose-batch": (DiagnoseBatch(), [Case("P3", P3)],
                       {"audit.report", "audit.tables", "audit.residuals",
                        "audit.oracle", "fock.eigenvalues", "fock.build",
                        "reduction", "series.derive", "series.rollout",
                        "kernels.roll"}),
    "oracle-collapse": (tiny_oracle(), [Case("P2", P2)],
                        {"fock.oracle", "fock.eigenvalues", "fock.build"}),
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_each_named_hook_is_hit_on_a_tiny_input(workload):
    w, cases, expected = TINY[workload]
    tr = traced_calls(w, cases)
    assert not tr.missing
    assert expected <= names(tr)
    if workload == "oracle-collapse":
        assert not any(n.startswith(("series", "rootscan", "gfunc"))
                       for n in names(tr))
    else:
        assert "fock.oracle" not in names(tr)


def test_tracer_restores_every_attribute():
    from rabi_spectra import _kernels, heun

    before = (heun.g_function_heun, _kernels.roll)
    with Tracer():
        assert heun.g_function_heun is not before[0]
    assert (heun.g_function_heun, _kernels.roll) == before


def _scan_gevals(tr):
    """G-evals whose span has a rootscan span among its ancestors."""
    by_id = {s[0]: s for s in tr.spans}

    def under_scan(s):
        while s[4] is not None:
            s = by_id[s[4]]
            if s[1] == "rootscan":
                return True
        return False

    return sum(1 for s in tr.spans if s[1] == "gfunc" and under_scan(s))


def test_counters_add_up_and_repeat():
    w, cases, _ = TINY["heun-sweep"]
    tr = traced_calls(w, cases)
    m = layer_metrics(tr, levels=1)
    assert m["rootscan.evals"] == _scan_gevals(tr) == m["gfunc.calls"]
    assert m["series.rollout.calls"] == 2 * (m["gfunc.calls"]
                                             + m["route.exceptional.calls"])
    assert m["kernels.roll.calls"] == m["series.rollout.calls"]
    assert m["route.exceptional.accepted"] > 0
    again = layer_metrics(traced_calls(w, cases), levels=1)
    for key in m:
        if key.startswith("series.") and not key.endswith("busy_s"):
            assert again[key] == m[key], key


#: two roots between resonance lines 0.029 apart, which the heun scan misses
TWO_ROOTS_IN_ONE_CELL = ModelParams(1.0, 0.5140843837305485, 0.01442504610076395,
                                    0.4244635597241848, 0.0)


@pytest.mark.parametrize("w, case, counts", [
    # 7 oracle levels on the window; the top one (2.941) lies within the
    # route's error of the edge at 3 and counts neither way
    (BcfSweep(), Case("missing-levels", MISSING_LEVELS, -1.0, 3.0), (2, 6, 4)),
    (HeunSweep(), Case("two-roots", TWO_ROOTS_IN_ONE_CELL, -1.0, 4.0),
     (7, 9, 2)),
])
def test_check_counts_the_levels_a_route_misses(w, case, counts):
    ref = w.reference(case)
    out = w.check(case, ref, w.call(case))
    assert (out.levels, out.expected, out.missing) == counts
    assert out.ok  # every returned level is right; the misses are counted


def test_heun_check_fails_wrong_levels_and_counts_missing_ones():
    case = Case("P2", P2, -1.0, 4.0)
    ref = window_reference(case)
    w = HeunSweep()
    good = w.check(case, ref, w.call(case))
    assert good.ok and good.levels == good.expected == 10
    inside = ref[(ref > -1.0) & (ref < 4.0)]
    shifted = inside.copy()
    shifted[3] += 1e-5
    assert not w.check(case, ref, shifted).ok
    dropped = w.check(case, ref, inside[1:])
    assert dropped.ok and dropped.missing == 1


def test_edge_levels_count_neither_way():
    case = Case("edge", P3, -1.0, 1.0)
    ref = np.array([-0.95, 0.2, 0.97])
    out = match_levels(ref, [0.21, 0.99], case, BCF_TOL)
    assert (out.levels, out.expected, out.missing, out.ok) == (1, 1, 0, True)
    assert not match_levels(ref, [0.21, 0.5], case, BCF_TOL).ok


def test_bcf_error_stays_inside_the_route_tolerance():
    w = BcfSweep()
    for case in w.cases(np.random.default_rng(0))[:4]:
        if case.label == "missing-levels":
            continue
        ref = w.reference(case)
        got = np.sort(w.call(case))
        inside = ref[(ref > case.e_min) & (ref < case.e_max)]
        assert got.size == inside.size
        assert np.max(np.abs(got - inside)) < 0.5 * BCF_TOL


def test_reference_hamiltonian_matches_fock():
    p = OracleCollapse().cases(np.random.default_rng(3))[0].params
    assert np.allclose(reference_eigenvalues(p, 60), fock.eigenvalues(p, 60),
                       rtol=0, atol=1e-11)


def test_call_that_raises_is_a_failed_call():
    class Broken(HeunSweep):
        def call(self, case):
            raise FloatingPointError("boom")

    case = Case("P2", P2, -1.0, 4.0)
    out = run.call_once(Broken(), case, window_reference(case))
    assert not out["ok"] and out["missing"] == out["expected"] == 10
    assert "boom" in out["error"]


def test_missing_hook_reads_null():
    hooks = tuple(h for h in tracing.HOOKS if h[1] != "rootscan") + (
        ("threads.scan_map", "threads_removed", "scan_map", None),)
    w, cases, _ = TINY["bcf-sweep"]
    with Tracer(hooks) as tr:
        w.call(cases[0])
    m = layer_metrics(tr, levels=1)
    assert tr.missing == ["threads_removed.scan_map"]
    assert m["threads.parallelism"] is None
    assert m["rootscan.refine_evals_per_root"] is None
    assert m["gfunc.calls"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    layers = set(layer_metrics(Tracer(), levels=1))
    layers |= {"trace.overhead", "trace.spans", "check.fail_frac",
               "check.levels_missing"}
    assert {m["name"] for m in spec["per_layer"]} == layers
