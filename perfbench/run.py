#!/usr/bin/env python3
"""Benchmark of rabi-spectra: one spectrum window (or diagnose report, or
oracle cutoff ladder) per unit call, issued in a closed loop by one client.

    python3 perfbench/run.py --workload heun-sweep --seed 0 --seconds 20
    python3 perfbench/run.py --workload heun-sweep --seed 0 --trace 1
    python3 perfbench/run.py --all --seed 0    # each workload in a new process
    python3 perfbench/run.py --report          # ROADMAP baseline rows

With ``--trace 0`` the run measures end-to-end metrics for ``--seconds``
seconds with tracing off; times are scaled to reference speed (see
``speed_scale``).  With ``--trace 1`` it runs a fixed number of calls
(the workload's ``trace_calls`` first cases) once untraced and once traced,
so per-layer counts repeat exactly for a seed, and reports per-layer metrics
plus the tracing overhead; the spans are written to
``.bench_out/trace-<workload>-seed<n>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The package is imported from ``src/`` next to this directory; without it the
run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh-interpreter imports per run for setup_s (one more is a warm-up)
SETUP_LAUNCHES = 9
IMPORT_CODE = ("import time; t = time.perf_counter(); import rabi_spectra; "
               "print(time.perf_counter() - t)")
#: time of calibration_s() at reference speed (typical on a shared 2-core x86-64
#: machine with Python 3.11 and numpy 2.4)
CAL_REF_S = 2.5e-3
#: share of each call's time spent on the calibration block after it
CAL_SHARE = 0.05
#: end-to-end metrics: name -> unit
UNITS = {"call_s_p50": "s", "levels_per_s": "1/s", "levels_found_frac": "ratio",
         "setup_s": "s", "peak_rss_mb": "MB"}


def _load_package():
    if not (SRC / "rabi_spectra" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rabi_spectra

    if Path(rabi_spectra.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported rabi_spectra from {rabi_spectra.__file__}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _launch(code: str, timeout: float = 120.0) -> str:
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=timeout, check=True)
    return out.stdout


def setup_seconds(launches: int = SETUP_LAUNCHES) -> float:
    """Median wall time of ``import rabi_spectra`` in fresh interpreters,
    scaled to reference speed (see speed_scale) by calibration blocks run
    between the launches."""
    _launch(IMPORT_CODE)
    times, cal = [], []
    for _ in range(launches):
        cal += [calibration_s() for _ in range(4)]
        times.append(float(_launch(IMPORT_CODE).split()[-1]))
    return statistics.median(times) * CAL_REF_S * len(cal) / sum(cal)


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import importlib.util

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:  # show_config's layout varies
        blas = f"unavailable: {exc!r}"
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() != ROOT:  # a repository around the checkout
            commit = None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    return {
        "workload": workload, "seed": seed, "git_commit": commit,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "RABI_SPECTRA_THREADS": os.environ.get("RABI_SPECTRA_THREADS"),
        "RABI_SPECTRA_PURE_PYTHON": os.environ.get("RABI_SPECTRA_PURE_PYTHON"),
    }


def calibration_s() -> float:
    """Wall time of a fixed loop of Python arithmetic and small numpy calls,
    the mix a spectrum call runs."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    a = np.arange(200.0)
    for _ in range(200):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def call_once(w, case, ref) -> dict:
    """One unit call, timed and checked; a call that raises is a failed call."""
    from workloads import failed_call

    t0 = time.perf_counter()
    try:
        out = w.call(case)
    except Exception as exc:
        dt = time.perf_counter() - t0
        outcome = failed_call(w.expected(case, ref), exc)
    else:
        dt = time.perf_counter() - t0
        outcome = w.check(case, ref, out)
    return {"case": case.label, "wall_s": dt, "ok": outcome.ok,
            "levels": outcome.levels, "expected": outcome.expected,
            "missing": outcome.missing, "error": outcome.error}


def run_calls(w, cases, refs, more, tracer=None) -> list:
    """Call the cases in turn, one at a time, while ``more(calls)`` holds;
    each call's index is its trace call id.  A block of calibration loops,
    about CAL_SHARE of the call's time, runs after every call."""
    calls = []
    while more(calls):
        k = len(calls) % len(cases)
        if tracer is not None:
            tracer.call_id = len(calls)
        rec = call_once(w, cases[k], refs[k])
        n = max(2, round(CAL_SHARE * rec["wall_s"] / CAL_REF_S))
        rec["calibration_s"] = [calibration_s() for _ in range(n)]
        calls.append(rec)
    return calls


def speed_scale(calls) -> float:
    """Factor that scales this run's wall times to reference speed.

    The speed of each core of a shared machine switches between a fast and a
    slow state (the calibration loop takes about 1.7 or 2.7 ms) within
    seconds, and the share of slow time drifts over minutes: the same
    diagnose call took 0.06 s and 0.11 s minutes apart.  The calibration
    blocks sample the run's time evenly, so the mean loop time measures the
    run's average speed.
    """
    samples = [t for c in calls for t in c["calibration_s"]]
    return CAL_REF_S * len(samples) / sum(samples)


def _prepare(w, seed: int):
    import numpy as np

    cases = w.cases(np.random.default_rng(seed))
    return cases, [w.reference(c) for c in cases]


def run_untraced(w, seed: int, seconds: float) -> tuple:
    """Closed loop over the workload's cases until ``seconds`` have passed."""
    setup_s = setup_seconds()
    cases, refs = _prepare(w, seed)
    start = time.perf_counter()
    calls = run_calls(w, cases, refs, lambda calls: not calls or
                      time.perf_counter() - start < seconds)
    scale = speed_scale(calls)
    times = [c["wall_s"] * scale for c in calls]
    levels = sum(c["levels"] for c in calls)
    expected = sum(c["expected"] for c in calls)
    metrics = {
        "call_s_p50": statistics.median(times),
        "levels_per_s": statistics.median(c["levels"] / t
                                          for c, t in zip(calls, times)),
        "levels_found_frac": levels / expected if expected else 1.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"calls": len(calls), "wall_s": time.perf_counter() - start,
             "wall_call_s_p50": statistics.median(c["wall_s"] for c in calls),
             "speed_scale": scale,
             "fail_frac": sum(not c["ok"] for c in calls) / len(calls),
             "levels_missing": sum(c["missing"] for c in calls)}
    if len(times) >= 100:  # at least ten samples beyond p90
        extra["call_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return calls, metrics, extra


def run_traced(w, seed: int) -> tuple:
    """The first ``trace_calls`` cases once untraced, then once traced."""
    from tracing import Tracer, layer_metrics

    cases, refs = _prepare(w, seed)
    cases, refs = cases[:w.trace_calls], refs[:w.trace_calls]

    def once(calls):
        return len(calls) < len(cases)

    untraced = run_calls(w, cases, refs, once)
    with Tracer() as tracer:
        traced = run_calls(w, cases, refs, once, tracer)
    calls = untraced + traced
    layers = layer_metrics(tracer, sum(c["levels"] for c in traced))
    layers["trace.overhead"] = (
        sum(c["wall_s"] for c in traced) * speed_scale(traced)
        / (sum(c["wall_s"] for c in untraced) * speed_scale(untraced)))
    layers["trace.spans"] = len(tracer.spans)
    layers["check.fail_frac"] = sum(not c["ok"] for c in calls) / len(calls)
    layers["check.levels_missing"] = sum(c["missing"] for c in calls)
    return calls, layers, tracer


def _write(name: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)
    return path


def _result_line(calls, metrics: dict, units: dict) -> str:
    failed = sum(not c["ok"] for c in calls)
    return json.dumps({
        "correct": failed == 0, "attempted": len(calls), "failed": failed,
        "metrics": {k: {"value": 0.0 if v is None else v, "unit": units[k]}
                    for k, v in metrics.items()}})


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    env = environment(workload, seed)
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print("env " + json.dumps(env))
    if trace:
        units = per_layer_units()
        calls, layers, tracer = run_traced(w, seed)
        if set(layers) != set(units):
            raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                               f"{sorted(set(layers) ^ set(units))}")
        path = _write(f"trace-{workload}-seed{seed}.json", {
            "env": env, "hooks_missing": tracer.missing, "layers": layers,
            "calls": calls, "span_fields": ["id", "name", "start", "end",
                                            "parent", "call_id", "thread",
                                            "info"],
            "spans": tracer.spans})
        if tracer.missing:
            print("hooks missing (their metrics read null): "
                  + ", ".join(tracer.missing))
        for k, v in layers.items():
            print(f"  {k:34s} {'null' if v is None else f'{v:.6g}'} {units[k]}")
        print(f"spans written to {path.relative_to(ROOT)}")
        print(_result_line(calls, layers, units))
        return 0
    calls, metrics, extra = run_untraced(w, seed, seconds)
    _write(f"run-{workload}-seed{seed}.json",
           {"env": env, "metrics": metrics, "extra": extra, "calls": calls})
    for k, v in metrics.items():
        print(f"  {k:20s} {v:.6g} {UNITS[k]}")
    print(f"  {'fail_frac':20s} {extra['fail_frac']:.6g} "
          f"({sum(not c['ok'] for c in calls)} of {len(calls)} calls)")
    print(f"  {'levels_missing':20s} {extra['levels_missing']} levels")
    print(f"  {'wall_call_s_p50':20s} {extra['wall_call_s_p50']:.6g} s "
          f"(unscaled; times above are multiplied by {extra['speed_scale']:.4g}"
          " to reference speed)")
    if "call_s_p90" in extra:
        print(f"  {'call_s_p90':20s} {extra['call_s_p90']:.6g} s "
              f"(over {len(calls)} calls)")
    shown = set()
    for c in calls:
        if (not c["ok"] or c["missing"]) and c["case"] not in shown:
            shown.add(c["case"])
            print(f"  check: {c['case']}: {c['levels']}/{c['expected']} "
                  f"levels{'; FAILED ' + c['error'] if not c['ok'] else ''}")
    print(_result_line(calls, metrics, UNITS))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process, so peak RSS belongs to it."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def report(repeats: int = 5) -> int:
    """The ROADMAP "Measured baseline" rows, measured in this one run."""
    from rabi_spectra import bcf, fock, heun
    from tracing import Tracer, layer_metrics
    from workloads import GRID_STEP, P2, P3

    def timed(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times), out

    def traced(fn):
        with Tracer() as tr:
            out = fn()
        return tr, out

    def heun_p2():
        return heun.heun_spectrum(P2, -1.0, 4.0, GRID_STEP)

    def bcf_p3():
        return bcf.bcf_spectrum(P3, -1.0, 3.0, GRID_STEP)

    t_h, res_h = timed(heun_p2)
    tr_h, _ = traced(heun_p2)
    lh = layer_metrics(tr_h, len(res_h.energies))
    gauges = [s[7]["evals"] for s in tr_h.spans if s[1] == "rootscan" and s[7]]
    t_b, res_b = timed(bcf_p3)
    tr_b, _ = traced(bcf_p3)
    lb = layer_metrics(tr_b, len(res_b.energies))
    t_o, _ = timed(lambda: fock.oracle_spectrum(P2, 120, 10))
    cli = ("import sys; from rabi_spectra.cli import main; sys.exit(main(["
           "'spectrum', '--method', 'closed', '--omega', '1', '--delta', '0', "
           "'--g', '0.4', '--lambda', '0.2', '--eps', '0.1', '--nmax', '9']))")
    t_cli, _ = timed(lambda: _launch(cli))

    def per_call(name):
        calls = lh[name.replace("busy_s", "calls")]
        return 1e3 * lh[name] / calls if calls else float("nan")

    rows = [
        ("`heun_spectrum(P2, -1, 4, 0.05)`",
         f"{t_h:.2f} s, {len(res_h.energies)} roots, "
         f"{' + '.join(map(str, gauges))} G-evals over {len(gauges)} gauges"),
        ("`bcf_spectrum(P3, -1, 3, 0.05)`",
         f"{t_b:.2f} s, {len(res_b.energies)} roots, "
         f"{int(lb['rootscan.evals'])} G-evals"),
        ("one heun G-eval (traced, thread-seconds)",
         f"≈{per_call('gfunc.busy_s'):.2f} ms: reduction "
         f"{per_call('reduction.busy_s'):.2f} + 2 × derive "
         f"{per_call('series.derive.busy_s'):.2f} + 2 × rollout "
         f"{per_call('series.rollout.busy_s'):.2f} "
         f"({lh['series.rollout.terms_per_call']:.0f} terms)"),
        ("refine cost (heun P2)",
         f"≈{lh['rootscan.refine_evals_per_root']:.0f} bisection evals per root"),
        ("`oracle_spectrum(P2, 120, 10)`", f"{1e3 * t_o:.0f} ms"),
        ("CLI cold start (`spectrum --method closed`)", f"{t_cli:.2f} s"),
        ("`import rabi_spectra` (setup_s)", f"{setup_seconds():.2f} s"),
    ]
    env = environment("report", 0)
    print(f"Medians of {repeats} repeats, unscaled wall time (calibration "
          f"loop {1e3 * calibration_s():.3g} ms, reference "
          f"{1e3 * CAL_REF_S:.3g} ms); nproc {env['nproc']}, Python "
          f"{env['python']}, numpy {env['numpy']}, numba importable: "
          f"{env['numba_importable']}, commit {env['git_commit']}.\n")
    print("| measurement | value |\n|---|---|")
    for name, value in rows:
        print(f"| {name} | {value} |")
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true",
                      help="run every workload, each in a fresh process")
    mode.add_argument("--report", action="store_true",
                      help="print the ROADMAP baseline table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.report:
        return report()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    _load_package()
    sys.exit(main())
