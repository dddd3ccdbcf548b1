"""Outside-in layer trace: wraps public functions of ``rabi_spectra`` modules
at each namespace where callers look them up, records one span per call and
derives the per-layer metrics from the spans.

Spans are kept in memory and written out when the run ends.  Each span is
``[id, name, start, end, parent, call_id, thread, info]``.  Pool threads keep
their own span stacks; a span opened on an empty worker stack takes the main
thread's innermost open span as its parent (one client issues one call at a
time, so that span is the one that handed out the work).  Times of spans on
several threads add up to thread-seconds, not wall time.

A hook whose module or attribute no longer exists is skipped and listed in
``missing``; metrics that depend only on missing hooks read ``None``.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

PACKAGE = "rabi_spectra"


def _report_info(args, kwargs, rep):
    return {"evals": rep.n_evaluations, "brackets": len(rep.brackets),
            "roots": len(rep.roots), "suspects": len(rep.suspects),
            "excluded": len(rep.excluded),
            "poles": sum(iv.reason == "pole" for iv in rep.excluded)}


def _rollout_info(args, kwargs, result):
    sol = result[2]
    return {"terms": int(sol.n_used), "nonconverged": not sol.converged}


def _exceptional_info(args, kwargs, s):
    tol = importlib.import_module(PACKAGE + ".heun").EXCEPTIONAL_TOL
    return {"accepted": bool(s.ok and abs(s.g_value) < tol)}


def _bcf_spectrum_info(args, kwargs, result):
    return {"mirror": kwargs.get("_allow_mirror", True) is False}


def _scan_map_info(args, kwargs, result):
    return {"items": len(result)}


def _eigenvalues_info(args, kwargs, result):
    return {"dim": int(len(result))}


def _rows_info(args, kwargs, rows):
    return {"rows": len(rows)}


def _report_mismatch_info(args, kwargs, report):
    return {"mismatched": len(report["mismatched_entries"])}


#: (span name, module, attribute, info extractor)
HOOKS = (
    ("route", "heun", "heun_spectrum", None),
    ("route", "bcf", "bcf_spectrum", _bcf_spectrum_info),
    ("route.mirror", "heun", "heun_spectrum_single", None),
    ("route.ladder", "heun", "resonance_ladder", None),
    ("route.ladder", "bcf", "resonance_ladder", None),
    ("route.exceptional", "heun", "exceptional_sample", _exceptional_info),
    ("route.exceptional", "bcf", "exceptional_sample", _exceptional_info),
    ("reduction", "heun", "che_params", None),
    ("reduction", "bcf", "bcf_reduce", None),
    ("gfunc", "heun", "g_function_heun", None),
    ("gfunc", "bcf", "g_function_bcf", None),
    ("series.derive", "heun", "ode_to_recurrence", None),
    ("series.derive", "bcf", "ode_to_recurrence", None),
    ("series.derive", "audit", "ode_to_recurrence", None),
    ("series.rollout", "heun", "series_eval", _rollout_info),
    ("series.rollout", "bcf", "series_eval", _rollout_info),
    ("series.rollout", "audit", "series_eval", _rollout_info),
    ("kernels.roll", "_kernels", "roll", None),
    ("rootscan", "heun", "scan_and_refine", _report_info),
    ("rootscan", "bcf", "scan_and_refine", _report_info),
    ("threads.scan_map", "rootscan", "scan_map", _scan_map_info),
    ("fock.oracle", "fock", "oracle_spectrum", None),
    ("fock.eigenvalues", "fock", "eigenvalues", _eigenvalues_info),
    ("fock.build", "fock", "build_hamiltonian", None),
    ("audit.report", "audit", "diagnose_report", _report_mismatch_info),
    ("audit.tables", "audit", "audit_recurrences", None),
    ("audit.tables", "audit", "audit_fourth_order_operator", None),
    ("audit.tables", "audit", "audit_general_table", None),
    ("audit.tables", "audit", "audit_two_photon_table", None),
    ("audit.tables", "audit", "audit_asymmetric_tables", None),
    ("audit.tables", "audit", "audit_bcf_tables", None),
    ("audit.tables", "audit", "audit_appendix", None),
    ("audit.residuals", "audit", "residual_suite", _rows_info),
    ("audit.oracle", "audit", "oracle_spectrum", None),
)


class Tracer:
    """Install with ``with Tracer() as tr:``; set ``tr.call_id`` before each
    unit call.  Leaving the block restores every wrapped attribute."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.call_id = None
        self.missing: list = []
        self.installed_names: set = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._saved: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            sid = next(self._ids)
            stack.append(sid)
            extra = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            except Exception as exc:
                extra = {"raised": type(exc).__name__}
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append([sid, name, t0, t1, parent, self.call_id,
                                   threading.get_ident(), extra])

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for name, mod_name, attr, info in self.hooks:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, info))
            self.installed_names.add(name)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False


class _Agg:
    """Per-name call counts, busy seconds, summed info fields, and busy
    seconds of children by (parent name, child name)."""

    def __init__(self, spans):
        self.calls: dict = {}
        self.busy: dict = {}
        self.info: dict = {}
        self.name_of = {s[0]: s[1] for s in spans}
        self.child_busy: dict = {}
        for sid, name, t0, t1, parent, _cid, _thr, extra in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + (t1 - t0)
            for key, val in (extra or {}).items():
                if not isinstance(val, str):
                    self.info[(name, key)] = self.info.get((name, key), 0) + val
            if parent is not None:
                k = (self.name_of.get(parent), name)
                self.child_busy[k] = self.child_busy.get(k, 0.0) + (t1 - t0)

    def n(self, name):
        return self.calls.get(name, 0)

    def s(self, name):
        return self.busy.get(name, 0.0)

    def get(self, name, key):
        return self.info.get((name, key), 0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, levels: int) -> dict:
    """Per-layer metrics from the tracer's spans.  ``levels`` is the number of
    checked levels the traced calls returned (base of evals_per_level)."""
    a = _Agg(tracer.spans)
    scan_items = a.get("threads.scan_map", "items")
    roots = a.get("rootscan", "roots")
    dims = [float(s[7]["dim"]) for s in tracer.spans
            if s[1] == "fock.eigenvalues" and s[7] and "dim" in s[7]]
    metrics = {
        "reduction.calls": (a.n("reduction"), ("reduction",)),
        "reduction.busy_s": (a.s("reduction"), ("reduction",)),
        "gfunc.calls": (a.n("gfunc"), ("gfunc",)),
        "gfunc.busy_s": (a.s("gfunc"), ("gfunc",)),
        "gfunc.evals_per_level": (_ratio(a.n("gfunc"), levels), ("gfunc",)),
        "route.ladder.busy_s": (a.s("route.ladder"), ("route.ladder",)),
        "route.exceptional.calls": (a.n("route.exceptional"),
                                    ("route.exceptional",)),
        "route.exceptional.busy_s": (a.s("route.exceptional"),
                                     ("route.exceptional",)),
        "route.exceptional.accepted": (a.get("route.exceptional", "accepted"),
                                       ("route.exceptional",)),
        "route.mirror.calls": (a.n("route.mirror") + a.get("route", "mirror"),
                               ("route",)),
        "series.derive.calls": (a.n("series.derive"), ("series.derive",)),
        "series.derive.busy_s": (a.s("series.derive"), ("series.derive",)),
        "series.rollout.calls": (a.n("series.rollout"), ("series.rollout",)),
        "series.rollout.busy_s": (a.s("series.rollout"), ("series.rollout",)),
        "series.rollout.terms": (a.get("series.rollout", "terms"),
                                 ("series.rollout",)),
        "series.rollout.terms_per_call": (
            _ratio(a.get("series.rollout", "terms"), a.n("series.rollout")),
            ("series.rollout",)),
        "series.rollout.nonconverged": (a.get("series.rollout", "nonconverged"),
                                        ("series.rollout",)),
        "kernels.roll.calls": (a.n("kernels.roll"), ("kernels.roll",)),
        "kernels.roll.busy_s": (a.s("kernels.roll"), ("kernels.roll",)),
        "rootscan.calls": (a.n("rootscan"), ("rootscan",)),
        "rootscan.busy_s": (a.s("rootscan"), ("rootscan",)),
        "rootscan.evals": (a.get("rootscan", "evals"), ("rootscan",)),
        "rootscan.refine_evals_per_root": (
            _ratio(a.get("rootscan", "evals") - scan_items, roots),
            ("rootscan", "threads.scan_map")),
        "rootscan.brackets": (a.get("rootscan", "brackets"), ("rootscan",)),
        "rootscan.roots": (roots, ("rootscan",)),
        "rootscan.root_yield": (_ratio(roots, a.get("rootscan", "brackets")),
                                ("rootscan",)),
        "rootscan.poles": (a.get("rootscan", "poles"), ("rootscan",)),
        "rootscan.suspects": (a.get("rootscan", "suspects"), ("rootscan",)),
        "rootscan.excluded": (a.get("rootscan", "excluded"), ("rootscan",)),
        "threads.scan_map.busy_s": (a.s("threads.scan_map"),
                                    ("threads.scan_map",)),
        "threads.parallelism": (
            _ratio(a.child_busy.get(("threads.scan_map", "gfunc"), 0.0),
                   a.s("threads.scan_map")),
            ("threads.scan_map", "gfunc")),
        "fock.build.busy_s": (a.s("fock.build"), ("fock.build",)),
        "fock.eigensolve.busy_s": (
            a.s("fock.eigenvalues")
            - a.child_busy.get(("fock.eigenvalues", "fock.build"), 0.0),
            ("fock.eigenvalues",)),
        "fock.dim_max": (max(dims, default=0.0), ("fock.eigenvalues",)),
        # dense symmetric eigenvalues: Householder tridiagonalisation costs
        # 4/3 n^3 flops and dominates; one pass over the n x n matrix of
        # doubles.  Computed from the dimension, not counted by hardware.
        "fock.flops_computed": (sum(4.0 / 3.0 * d ** 3 for d in dims),
                                ("fock.eigenvalues",)),
        "fock.bytes_computed": (sum(8.0 * d ** 2 for d in dims),
                                ("fock.eigenvalues",)),
        "audit.tables.busy_s": (a.s("audit.tables"), ("audit.tables",)),
        "audit.residuals.busy_s": (a.s("audit.residuals"),
                                   ("audit.residuals",)),
        "audit.residual_rows": (a.get("audit.residuals", "rows"),
                                ("audit.residuals",)),
        "audit.oracle.busy_s": (a.s("audit.oracle"), ("audit.oracle",)),
        "audit.mismatched_entries": (a.get("audit.report", "mismatched"),
                                     ("audit.report",)),
    }
    have = tracer.installed_names
    return {k: (v if all(d in have for d in deps) else None)
            for k, (v, deps) in metrics.items()}
