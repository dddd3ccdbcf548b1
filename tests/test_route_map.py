"""The route map (``experiments/route_map.py``): one seed of each family
builds a map of the documented shape, a map compares clean with itself, and
each kind of difference is reported, a rule broken or not as the script's
docstring says."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("route_map", ROOT / "experiments" / "route_map.py")
route_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(route_map)


@pytest.fixture(scope="module")
def one_seed():
    path = list(sys.path)
    try:
        built = route_map.build_map(ROOT, sweep_seeds=[0], report_seeds=[0])
    finally:
        sys.path[:] = path
    return json.loads(json.dumps(built))


def test_one_seed_has_every_window_and_report(one_seed):
    windows = one_seed["windows"]
    assert [w["workload"] for w in windows] == ["heun-sweep"] * 10 + ["bcf-sweep"] * 8
    for w in windows:
        assert "error" not in w
        assert len(w["energies"]) == len(w["labels"]) > 0
        # delta = 0 takes the closed form, which evaluates no determinant
        assert (w["determinant_calls"] == 0) == (w["params"][1] == 0.0)
    assert len(one_seed["reports"]) == 40
    assert all({"audit", "residuals_ok", "mismatched_entries"} <= set(r["report"])
               for r in one_seed["reports"])
    # every method answers the delta = 0 window with the closed form's levels
    assert [m["method"] for m in one_seed["methods"]] == list(route_map.METHODS)
    for m in one_seed["methods"]:
        assert m["energies"] == pytest.approx([0.01, 0.81], abs=1e-8)
        assert len(m["labels"]) == 2


def broken_by(a, b):
    lines, broken = route_map.compare(a, b)
    return broken, [line for line in lines if line.startswith("RULE ")], lines


def test_a_map_compares_clean_with_itself(one_seed):
    broken, rules, lines = broken_by(one_seed, one_seed)
    assert (broken, rules) == (0, [])
    assert "reports: 0 of 40 changed text" in lines


@pytest.mark.parametrize("edit, rule", [
    (lambda m: m["windows"][0]["energies"].__setitem__(
        0, m["windows"][0]["energies"][0] + 2e-10), "moved by"),
    (lambda m: m["windows"][-1]["energies"].__setitem__(
        0, m["windows"][-1]["energies"][0] * (1 + 2 ** -52)), "moved by"),
    (lambda m: m["windows"][0]["labels"].__setitem__(0, "exceptional:0:1"), "labels"),
    (lambda m: m["windows"][1].__setitem__("determinant_calls", 1), "determinant_calls"),
    (lambda m: m["windows"][1].__setitem__("suspects", 3), "suspects"),
    (lambda m: m["windows"].pop(), "in one map only"),
    (lambda m: m["reports"][0]["report"]["audit"][0].__setitem__("match", None),
     "verdicts changed"),
    (lambda m: m["reports"][0]["report"].__setitem__("residuals_ok", None),
     "verdicts changed"),
    (lambda m: m["methods"][3]["energies"].__setitem__(
        0, m["methods"][3]["energies"][0] + 2e-8), "from closed"),
    (lambda m: m["methods"][1]["energies"].pop(), "levels, closed 2"),
    (lambda m: m["methods"][2].__setitem__("error", "ValidationError: edited"),
     "ValidationError: edited"),
])
def test_each_rule_breaks_on_its_difference(one_seed, edit, rule):
    changed = copy.deepcopy(one_seed)
    edit(changed)
    broken, rules, _lines = broken_by(one_seed, changed)
    assert broken == 1 and rule in rules[0], rules


def test_a_heun_shift_within_tolerance_and_report_text_break_no_rule(one_seed):
    changed = copy.deepcopy(one_seed)
    changed["windows"][0]["energies"][0] += 5e-11
    entry = changed["reports"][0]["report"]["audit"][0]
    entry["note"] += " (edited)"
    broken, _rules, lines = broken_by(one_seed, changed)
    assert broken == 0
    assert "heun-sweep: largest shift 5e-11 (tolerance 1e-10)" in lines
    assert "reports: 1 of 40 changed text" in lines
    assert f"  {entry['name']}: 1 reports" in lines


def test_a_family_one_map_lacks_is_named_and_breaks_no_rule(one_seed):
    """A tree from before ``twopoint.window_spectrum`` records no methods
    family, and a compare against it still passes."""
    older = {k: v for k, v in one_seed.items() if k != "methods"}
    for a, b, lacking in ((older, one_seed, "A"), (one_seed, older, "B")):
        broken, _rules, lines = broken_by(a, b)
        assert broken == 0
        assert f"methods: not in map {lacking}" in lines
    lines = broken_by(one_seed, one_seed)[2]
    assert [line.split(":")[0] for line in lines if line.startswith("methods")] \
        == ["methods A", "methods B"]
