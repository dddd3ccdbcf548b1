#!/usr/bin/env python3
"""Route map: what one tree's solver returns on the benchmark's inputs,
written as JSON so that two trees (a parent and a change) can be compared.

    python3 experiments/route_map.py map.json                     # this tree
    python3 experiments/route_map.py parent.json --tree ../parent # another
    python3 experiments/route_map.py --compare parent.json map.json

The package is imported from ``<tree>/src`` and the inputs are drawn by
``<tree>/perfbench/workloads.py``, seeded as the benchmark seeds them.  Three
families:

- ``windows``: the heun-sweep and bcf-sweep windows of seeds 0-9 (180
  windows).  Each records its energies, labels, excluded intervals with
  their reasons, suspects and determinant calls (calls of
  ``twopoint._wronskian``).
- ``reports``: the diagnose-batch reports of seeds 0-2 (120 reports), each
  as the report itself.  Its verdicts are ``residuals_ok``,
  ``mismatched_entries`` and every audit entry's ``match``.
- ``methods``: the delta = 0 window of ROADMAP item 25 (:data:`METHOD_WINDOW`),
  answered by each method of ``twopoint.window_spectrum``, with its
  energies and labels.  A tree without that entry has no such family.

The map records no times.  ``--compare A B`` prints every difference and
exits 1 where a rule breaks: a window that differs in its level count,
labels, excluded reasons, suspect count or determinant calls, an energy or
excluded bound that moved by more than its sweep's tolerance
(:data:`ENERGY_TOL`), a report whose verdicts changed, or, in either map, a
method whose levels differ from the closed form's by more than
:data:`METHOD_TOL`.  Text changes of a report that keeps its verdicts are
listed by entry name, and a family that one map lacks is named; neither
breaks a rule.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from collections import Counter
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEPS = ("heun-sweep", "bcf-sweep")
SWEEP_SEEDS = range(10)
REPORT_SEEDS = range(3)
#: largest energy shift each sweep may show against the other tree: heun
#: roots within the refiner's tolerance, bcf bit for bit
ENERGY_TOL = {"heun-sweep": 1e-10, "bcf-sweep": 0.0}
#: (parameters, window) on which every method gives the closed form's
#: levels 0.01 and 0.81
METHOD_WINDOW = ((1.0, 0.0, 0.1, 0.3, 0.0), (0.0, 1.0))
METHODS = ("closed", "heun", "bcf", "oracle")
#: largest distance of a method's levels from the closed form's
METHOD_TOL = 1e-8


def _load(tree: Path):
    """The tree's benchmark workloads, with its package, imported from the
    tree and nowhere else."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import rabi_spectra
    import workloads
    if Path(rabi_spectra.__file__).resolve().parent.parent != (tree / "src").resolve():
        sys.exit(f"route_map: imported rabi_spectra from {rabi_spectra.__file__}")
    return workloads


def _commit(tree: Path):
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def build_map(tree: Path, sweep_seeds=SWEEP_SEEDS, report_seeds=REPORT_SEEDS) -> dict:
    import numpy as np

    workloads = _load(tree)
    from rabi_spectra import audit, bcf, heun, twopoint
    from rabi_spectra.errors import RabiSpectraError
    from rabi_spectra.params import ModelParams

    calls = [0]
    wronskian = twopoint._wronskian

    def counted(*args):
        calls[0] += 1
        return wronskian(*args)

    twopoint._wronskian = counted
    spectrum = {"heun-sweep": heun.heun_spectrum, "bcf-sweep": bcf.bcf_spectrum}
    windows = []
    try:
        for name in SWEEPS:
            for seed in sweep_seeds:
                for case in workloads.WORKLOADS[name].cases(np.random.default_rng(seed)):
                    calls[0] = 0
                    row = {"workload": name, "seed": seed, "case": case.label,
                           "params": list(astuple(case.params)),
                           "window": [case.e_min, case.e_max]}
                    try:
                        res = spectrum[name](case.params, case.e_min, case.e_max,
                                             workloads.GRID_STEP)
                    except RabiSpectraError as exc:
                        row["error"] = f"{type(exc).__name__}: {exc}"
                    else:
                        rep = res.report
                        row.update(
                            energies=[float(e) for e in res.energies],
                            labels=list(res.labels),
                            excluded=[[iv.reason, float(iv.lo), float(iv.hi)]
                                      for iv in rep.excluded],
                            suspects=len(rep.suspects),
                            determinant_calls=calls[0])
                    windows.append(row)
    finally:
        twopoint._wronskian = wronskian

    methods = []
    if hasattr(twopoint, "window_spectrum"):
        params, window = METHOD_WINDOW
        for method in METHODS:
            row = {"method": method, "params": list(params), "window": list(window)}
            try:
                res = twopoint.window_spectrum(method, ModelParams(*params), *window)
            except RabiSpectraError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            else:
                row.update(energies=[float(e) for e in res.energies],
                           labels=list(res.labels))
            methods.append(row)

    reports = []
    batch = workloads.WORKLOADS["diagnose-batch"]
    for seed in report_seeds:
        for case in batch.cases(np.random.default_rng(seed)):
            reports.append({"seed": seed, "case": case.label,
                            "params": list(astuple(case.params)),
                            "report": json.loads(json.dumps(
                                audit.diagnose_report(case.params), default=str))})
    return {"tree": str(tree.resolve()), "commit": _commit(tree),
            "python": platform.python_version(), "numpy": np.__version__,
            "windows": windows, "reports": reports, **({"methods": methods} if methods else {})}


def _keyed(rows, *fields):
    return {tuple(r[f] for f in fields): r for r in rows}


def _shift(a: list, b: list) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _verdicts(report: dict) -> tuple:
    return (report["residuals_ok"], report["mismatched_entries"],
            [(e["name"], e["match"]) for e in report["audit"]])


def _text(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def compare(a: dict, b: dict) -> tuple:
    """(lines, broken): the differences of map b from map a, and how many of
    them break a rule."""
    lines, broken = [], 0

    def rule(line):
        nonlocal broken
        broken += 1
        lines.append("RULE " + line)

    wa, wb = (_keyed(m["windows"], "workload", "seed", "case") for m in (a, b))
    for key in sorted(wa.keys() ^ wb.keys()):
        rule(f"window {key} is in one map only")
    worst = Counter()
    for key in sorted(wa.keys() & wb.keys()):
        x, y = wa[key], wb[key]
        where = "/".join(map(str, key))
        if x["params"] != y["params"]:
            rule(f"{where}: different inputs")
            continue
        if "error" in x or "error" in y:
            if x.get("error") != y.get("error"):
                rule(f"{where}: error {x.get('error')!r} -> {y.get('error')!r}")
            continue
        for field in ("labels", "suspects", "determinant_calls"):
            if x[field] != y[field]:
                rule(f"{where}: {field} {x[field]} -> {y[field]}")
        if [e[0] for e in x["excluded"]] != [e[0] for e in y["excluded"]]:
            rule(f"{where}: excluded reasons {[e[0] for e in x['excluded']]} -> "
                 f"{[e[0] for e in y['excluded']]}")
        if len(x["energies"]) != len(y["energies"]):
            rule(f"{where}: {len(x['energies'])} -> {len(y['energies'])} levels")
            continue
        moved = max(_shift(x["energies"], y["energies"]),
                    max((_shift(e[1:], f[1:]) for e, f in zip(x["excluded"], y["excluded"])),
                        default=0.0))
        worst[key[0]] = max(worst[key[0]], moved)
        if moved > ENERGY_TOL[key[0]]:
            rule(f"{where}: an energy or excluded bound moved by {moved:.3g}, "
                 f"above {ENERGY_TOL[key[0]]:.3g}")
    for name in sorted({k[0] for k in wa.keys() & wb.keys()}):
        lines.append(f"{name}: largest shift {worst[name]:.3g} "
                     f"(tolerance {ENERGY_TOL[name]:.3g})")

    ra, rb = (_keyed(m["reports"], "seed", "case") for m in (a, b))
    for key in sorted(ra.keys() ^ rb.keys()):
        rule(f"report {key} is in one map only")
    changed, n_changed = Counter(), 0
    for key in sorted(ra.keys() & rb.keys()):
        x, y = ra[key]["report"], rb[key]["report"]
        where = "/".join(map(str, key))
        if ra[key]["params"] != rb[key]["params"]:
            rule(f"{where}: different inputs")
        elif _verdicts(x) != _verdicts(y):
            rule(f"{where}: verdicts changed")
        else:
            names = {e["name"] for e, f in zip(x["audit"], y["audit"]) if _text(e) != _text(f)}
            names.update(part for part in ("residuals", "oracle_convergence")
                         if _text(x[part]) != _text(y[part]))
            changed.update(names)
            n_changed += bool(names)
    lines.append(f"reports: {n_changed} of {len(ra.keys() & rb.keys())} changed text")
    lines += [f"  {name}: {n} reports" for name, n in sorted(changed.items())]

    for name, m in (("A", a), ("B", b)):
        if "methods" not in m:
            lines.append(f"methods: not in map {name}")
            continue
        closed = next(r for r in m["methods"] if r["method"] == "closed").get("energies", [])
        worst = 0.0
        for r in m["methods"]:
            where = f"methods/{name}/{r['method']}"
            if "error" in r:
                rule(f"{where}: {r['error']}")
            elif len(r["energies"]) != len(closed):
                rule(f"{where}: {len(r['energies'])} levels, closed {len(closed)}")
            else:
                shift = _shift(r["energies"], closed)
                worst = max(worst, shift)
                if shift > METHOD_TOL:
                    rule(f"{where}: {shift:.3g} from closed, above {METHOD_TOL:.3g}")
        lines.append(f"methods {name}: largest distance from closed {worst:.3g} "
                     f"(tolerance {METHOD_TOL:.3g})")
    return lines, broken


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", help="map file to write")
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="tree whose src/ and perfbench/ are read (default: this one)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="print the differences of map B from map A")
    ns = ap.parse_args(argv)
    if ns.compare:
        a, b = (json.loads(Path(f).read_text()) for f in ns.compare)
        lines, broken = compare(a, b)
        print("\n".join(lines))
        print(f"{broken} rule(s) broken")
        return 1 if broken else 0
    if not ns.out:
        ap.error("give a map file to write, or --compare A B")
    Path(ns.out).write_text(json.dumps(build_map(ns.tree), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
