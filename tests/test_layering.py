"""The spectrum routes stay on one determinant path: they import nothing of
the audit's recurrence and residual checks or of the paper audit, nor the
exact lam = 0 composition, which only the audit reads as its reference, and
``import rabi_spectra`` loads the solver only, and no scipy.  One
series entry reaches the kernel: only ``series`` calls ``roll_lanes``, and
no module calls the one-lane ``_kernels.roll``; only ``twopoint`` asks it
for fewer derivative sums than the order.  The root scan is the layer
below the routes: it imports none of them and takes no callback from them.
A route passes its gauge to the one equation builder as a number, so no
module names a gauge branch, and no module on the import path splits a
parent into the printed chain's partial fractions.  The CLI
imports the audit only inside the diagnose command, and keeps no bound of
its own.  Every cache is a ``functools.lru_cache`` of finite size, and no
module imports ``inspect``.  Errors come in two kinds, a ValidationError
and a NumericalError, and no module defines a third.  ``src/`` holds what an
entry point reaches: every function it defines runs under some CLI command,
but for a named few."""

import ast
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rabi_spectra.rootscan import scan_and_refine

SRC = Path(__file__).resolve().parents[1] / "src" / "rabi_spectra"
ROUTES = ("twopoint.py", "heun.py", "bcf.py", "rootscan.py", "closed_form.py")
FORBIDDEN = {"ode_to_recurrence", "ode_residual", "RecurrenceSpec",
             "audit", "canonical", "asymmetric_second_order"}
ABOVE_ROOTSCAN = {"twopoint", "heun", "bcf", "series", "cli"}


def imported_names(path: Path, module_level: bool = False) -> set:
    """Every module path component and name an import statement mentions;
    with ``module_level`` only the statements at the top of the module."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in (tree.body if module_level else ast.walk(tree)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ROUTES)
def test_route_imports_no_scalar_chain_or_audit(module):
    assert imported_names(SRC / module) & FORBIDDEN == set()


#: the modules a fresh interpreter holds after ``import rabi_spectra``, again
#: after a spectrum and a gscan run of the CLI, and last after a diagnose
#: report and oracle spectra at the default cutoff and the largest dense one
LOADED = """
import json, sys
import rabi_spectra
loaded = [sorted(sys.modules)]
from rabi_spectra.cli import main
for argv in (["spectrum", "--omega", "1", "--delta", "0.4", "--g", "0.6", "--emin", "-1",
              "--emax", "1"],
             ["gscan", "--omega", "1", "--delta", "0.3", "--g", "0.05", "--lambda", "0.02",
              "--emin", "-1", "--emax", "1"]):
    assert main(argv) == 0
    loaded.append(sorted(sys.modules))
from rabi_spectra.audit import diagnose_report
p = rabi_spectra.validate_params(1.0, 0.3, 0.1, 0.2, 0.1)
diagnose_report(p)
rabi_spectra.oracle_spectrum(p, 120, 10)
rabi_spectra.oracle_spectrum(p, rabi_spectra.fock.BANDED_FROM - 1, 10)
loaded.append(sorted(sys.modules))
sys.stderr.write(json.dumps(loaded))
"""


@functools.cache
def loaded_modules() -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    res = subprocess.run([sys.executable, "-c", LOADED], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    return json.loads(res.stderr)


def test_import_and_spectrum_commands_load_no_paper_audit():
    after_import, *after_runs = [[m.split(".", 1)[1] for m in mods
                                  if m.startswith("rabi_spectra.")]
                                 for mods in loaded_modules()[:3]]
    assert "heun" in after_import and "bcf" in after_import
    for loaded in (after_import, *after_runs):
        assert set(loaded) & {"audit", "canonical"} == set()


def test_no_solve_below_the_banded_cutoff_loads_scipy():
    """scipy is imported inside the banded eigensolve only, so the import,
    the spectra, a diagnose report (Fock cutoffs 120 and 80) and any oracle
    call below ``fock.BANDED_FROM`` keep its load time and memory out."""
    assert "rabi_spectra.audit" in loaded_modules()[-1]
    for mods in loaded_modules():
        assert [m for m in mods if m.split(".")[0] == "scipy"] == []


def top_level_names(path: Path) -> set:
    """The functions, classes and variables a module defines at its top."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_only_the_audit_defines_printed_transcriptions():
    """The paper's printed displays are transcribed in ``audit`` alone, so no
    module the solver loads carries one."""
    assert {path.name for path in sorted(SRC.glob("*.py"))
            if any(n.startswith("printed_") for n in top_level_names(path))} \
        == {"audit.py"}


def test_the_solver_defines_no_composition_only_the_audit_reads():
    """The one parent lives in ``twopoint``; the compositions the audit
    compares live in ``canonical``, which the import leaves out."""
    after_import = [m.split(".", 1)[1] for m in loaded_modules()[0]
                    if m.startswith("rabi_spectra.")]
    assert "twopoint" in after_import
    audit_only = {"compose_fourth_order", "general_table", "asymmetric_second_order",
                  "coupled_operator_polys"}
    assert {m: top_level_names(SRC / f"{m}.py") & audit_only for m in after_import
            if top_level_names(SRC / f"{m}.py") & audit_only} == {}
    assert top_level_names(SRC / "canonical.py") >= audit_only


def kernel_entries_used(path: Path) -> set:
    """The kernel entries ``roll_lanes`` and ``roll`` a module names, as
    ``_kernels.<entry>`` or imported from ``_kernels``."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "_kernels"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_kernels"):
            used.update(alias.name for alias in node.names)
    return used & {"roll_lanes", "roll"}


def test_only_series_reaches_the_kernel():
    users = {path.name: kernel_entries_used(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "_kernels.py"}
    assert {name for name, used in users.items() if "roll_lanes" in used} == {"series.py"}
    assert {name for name, used in users.items() if "roll" in used} == set()


def test_kummer_and_every_residual_row_reach_the_kernel(monkeypatch):
    """No module sums a power series of its own: a Kummer value, and each
    row of an uncached residual suite, weber-kummer included, is one
    ``roll_lanes`` call."""
    from rabi_spectra import _kernels, audit, canonical

    calls = []
    roll_lanes = _kernels.roll_lanes

    def counted(*args):
        calls.append(len(args[0]))  # the call's lanes
        return roll_lanes(*args)

    per_row = []

    def one_row(f):
        def wrapped(*args):
            before = len(calls)
            out = f(*args)
            per_row.append(len(calls) - before)
            return out
        return wrapped

    monkeypatch.setattr(_kernels, "roll_lanes", counted)
    canonical._kummer_lanes(((0.3, 1.5),), 0.8)
    assert calls == [1]
    monkeypatch.setattr(audit, "_residual_row", one_row(audit._residual_row))
    monkeypatch.setattr(canonical, "weber_residual_exact",
                        one_row(canonical.weber_residual_exact))
    rows = audit._residual_rows.__wrapped__(1, 7, False)
    assert "weber-kummer" in {row["context"] for row in rows}
    assert per_row == [1] * len(rows)


def series_calls(path: Path) -> list:
    """(line, passes a derivative count) of each ``series_sums_lanes`` call
    of a module: a fourth positional argument or a ``derivs`` keyword."""
    return [(node.lineno, len(node.args) > 3 or any(kw.arg == "derivs" for kw in node.keywords))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "series_sums_lanes"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "series_sums_lanes")]


def test_only_the_routes_pass_a_derivative_count():
    """The determinant reads the value and slope only, so ``twopoint`` asks
    for one derivative; the audit and the Kummer lanes insert every
    derivative up to the order into their equation and keep the default,
    so none of them reads a sum the convergence gate did not weigh."""
    calls = {path.name: series_calls(path) for path in sorted(SRC.glob("*.py"))}
    assert {name for name, found in calls.items() if any(p for _l, p in found)} \
        == {"twopoint.py"}
    for name in ("audit.py", "canonical.py"):
        assert calls[name] and not any(p for _l, p in calls[name])


def test_the_audit_rolls_every_derivative_up_to_the_order(monkeypatch):
    from rabi_spectra import _kernels, audit, canonical

    counts = []
    roll_lanes = _kernels.roll_lanes

    def counted(L, j_lead, order, *args):
        counts.append((order, args[-1]))
        return roll_lanes(L, j_lead, order, *args)

    monkeypatch.setattr(_kernels, "roll_lanes", counted)
    canonical._kummer_lanes(((0.3, 1.5),), 0.8)
    audit._residual_rows.__wrapped__(1, 7, False)
    assert counts and all(derivs == order for order, derivs in counts)


def test_every_kernel_call_weighs_its_last_lag_on_one_leading_lag(monkeypatch):
    """A recurrence's shape is decided where it is derived: each
    ``roll_lanes`` call of the routes, the residual suite and the Kummer
    lanes weighs its last lag, and its lanes share the leading lag it is
    given."""
    import numpy as np

    from rabi_spectra import _kernels, audit, canonical
    from rabi_spectra.bcf import bcf_spectrum
    from rabi_spectra.heun import heun_spectrum
    from rabi_spectra.params import validate_params

    calls = []
    roll_lanes = _kernels.roll_lanes

    def recorded(L, j_lead, *args):
        calls.append((np.array(L), j_lead))
        return roll_lanes(L, j_lead, *args)

    monkeypatch.setattr(_kernels, "roll_lanes", recorded)
    heun_spectrum(validate_params(1.0, 0.4, 0.15, 0.6, 0.0), -1.0, 4.0, 0.05)
    bcf_spectrum(validate_params(1.0, 0.3, 0.0, 0.05, 0.02), -1.0, 3.0, 0.05)
    audit._residual_rows.__wrapped__(1, 7, False)
    canonical._kummer_lanes(((0.3, 1.5),), 0.8)
    assert calls
    for L, j_lead in calls:
        assert L[:, -1].any(axis=1).all()
        weighed = L.any(axis=2)
        assert (weighed.argmax(axis=1) == j_lead).all()


def test_rootscan_imports_no_layer_above_it():
    """The refiner stays route-agnostic: it imports no route, and a route
    hands ``scan_and_refine`` only the scanned function and the window."""
    assert imported_names(SRC / "rootscan.py") & ABOVE_ROOTSCAN == set()
    assert list(inspect.signature(scan_and_refine).parameters) == ["f", "cfg"]


def test_each_audit_takes_only_the_inputs_it_audits():
    """An audit builds every table it compares itself: each ``audit_*``
    takes the parameters and energies it audits, and no precomputed table
    that a report could hand it in place of its own."""
    from rabi_spectra import audit

    assert {name: list(inspect.signature(f).parameters) for name, f in vars(audit).items()
            if name.startswith("audit_") and callable(f)} == {
        "audit_recurrences": ["p_asym", "e_asym", "p_general", "e_general"],
        "audit_fourth_order_operator": ["p", "energy"],
        "audit_general_table": ["p", "energy"],
        "audit_two_photon_table": ["p", "energy"],
        "audit_asymmetric_tables": ["p", "energy"],
        "audit_bcf_tables": ["p", "energy"],
        "audit_reduction_chain": ["p_asym", "p_general", "energy"],
        "audit_appendix": ["nb"],
    }


def gauge_lines(path: Path) -> set:
    """The stripped source lines that name a gauge branch: the strings
    "plus" and "minus", or ``k_branch`` as a name, attribute or argument."""
    text = path.read_text()
    lines = text.splitlines()
    return {lines[node.lineno - 1].strip() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Constant) and node.value in ("plus", "minus")
            or isinstance(node, ast.Name) and node.id == "k_branch"
            or isinstance(node, ast.Attribute) and node.attr == "k_branch"
            or isinstance(node, (ast.keyword, ast.arg)) and node.arg == "k_branch"}


def test_no_module_names_a_gauge_branch():
    """The Wronskian's zeros do not depend on the gauge, so a spectrum scans
    one, and each route hands its k to the builder as a number."""
    assert {path.name: gauge_lines(path) for path in sorted(SRC.glob("*.py"))
            if gauge_lines(path)} == {}


def calls_of(path: Path, name: str) -> list:
    """The line numbers where a module calls ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == name
                 or isinstance(node.func, ast.Attribute) and node.func.attr == name)]


def test_the_import_path_splits_no_partial_fractions():
    """Both routes build their equation by the one map to zeta; only the
    audit and the appendix derivations, which the import leaves out, split a
    parent into partial fractions."""
    after_import = [m.split(".", 1)[1] for m in loaded_modules()[0]
                    if m.startswith("rabi_spectra.")]
    assert "twopoint" in after_import
    assert {m: calls_of(SRC / f"{m}.py", "split_two_poles") for m in after_import
            if calls_of(SRC / f"{m}.py", "split_two_poles")} == {}
    assert calls_of(SRC / "audit.py", "split_two_poles")


def test_cli_imports_the_audit_only_where_diagnose_reads_it():
    assert imported_names(SRC / "cli.py", module_level=True) \
        & {"audit", "diagnose_report", "canonical"} == set()
    assert "audit" in imported_names(SRC / "cli.py")


def test_cli_keeps_no_bound_of_its_own():
    """Each setting is checked by the library call that reads it, so the
    CLI neither imports nor defines a MAX_* bound."""
    tree = ast.parse((SRC / "cli.py").read_text())
    names = imported_names(SRC / "cli.py")
    names.update(t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name))
    assert [n for n in names if n.startswith("MAX_")] == []


def test_no_module_uses_numpy_polynomial():
    """polyops stands in for numpy.polynomial, bit for bit (test_polyops)."""
    used = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):  # np.polynomial.<...>
                names = ["numpy.polynomial"] if node.attr == "polynomial" else []
            else:
                continue
            used += [f"{path.name}: {n}" for n in names
                     if n.startswith("numpy.polynomial")]
    assert used == []


CACHE_MAKERS = {"lru_cache"}


def cache_bounds(path: Path) -> set:
    """(module, innermost enclosing function, maxsize) of each cache a
    module makes with ``lru_cache`` or ``functools.cache``; maxsize is the
    literal bound, the name passed on, or "default" where the call gives
    none."""
    found = set()

    def maker(node):
        return (isinstance(node, ast.Name) and node.id in CACHE_MAKERS
                or isinstance(node, ast.Attribute) and node.attr in CACHE_MAKERS
                or isinstance(node, ast.Attribute) and node.attr == "cache"
                and isinstance(node.value, ast.Name) and node.value.id == "functools")

    def visit(node, owner, called=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and maker(child.func):
                bound = ([kw.value for kw in child.keywords if kw.arg == "maxsize"]
                         or child.args[:1])
                value = "default" if not bound else (
                    bound[0].value if isinstance(bound[0], ast.Constant)
                    else ast.unparse(bound[0]))
                found.add((path.stem, owner, value))
                visit(child, owner, child.func)
            elif maker(child) and child is not called:
                found.add((path.stem, owner, "default"))
            elif isinstance(child, ast.FunctionDef | ast.ClassDef):
                visit(child, child.name)
            elif not isinstance(child, ast.Import | ast.ImportFrom):
                visit(child, owner)
    visit(ast.parse(path.read_text()), None)
    return found


def test_every_cache_is_bounded():
    """A parameter sweep must not grow a cache without limit: each cache is
    a ``functools.lru_cache`` that names a literal whole-number maxsize."""
    bounds = set().union(*(cache_bounds(path) for path in sorted(SRC.glob("*.py"))))
    loose = {b for b in bounds if not (isinstance(b[2], int) and b[2] > 0)}
    assert loose == set()
    assert {b[:2] for b in bounds} >= {("fock", "_eigenvalues"),
                                        ("canonical", "_compose_fourth_order"),
                                        ("canonical", "_asymmetric_second_order"),
                                        ("twopoint", "_zeta_form"),
                                        ("twopoint", "reduction")}


def test_the_route_modules_name_their_row_of_the_route_table():
    """heun and bcf are rows of ``twopoint.ROUTES``: each module holds its
    three public names, each a docstring and one statement, and neither
    makes a cache or builds an equation, by the map to zeta or from a
    parent."""
    for name in ("heun", "bcf"):
        defs = ast.parse((SRC / f"{name}.py").read_text()).body
        assert top_level_names(SRC / f"{name}.py") == {
            f"{name}_spectrum", f"g_function_{name}", f"g_function_{name}_batch"}
        assert all(len(d.body) == 2 for d in defs if isinstance(d, ast.FunctionDef))
    for name in ("heun.py", "bcf.py"):
        assert cache_bounds(SRC / name) == set()
        for builder in ("map_to_zeta", "asymmetric_second_order", "bcf_truncated_parent",
                        "parent"):
            assert calls_of(SRC / name, builder) == [], (name, builder)
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if calls_of(path, "map_to_zeta")] == ["twopoint.py"]


def test_no_module_imports_inspect():
    """Reuse keys on the positional arguments as ``lru_cache`` sees them: no
    module binds a call to its signature."""
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "inspect" in imported_names(path)] == []


def test_errors_come_in_two_kinds():
    """``errors`` defines the base class and its two kinds, and no other
    module defines an exception class: an error's kind says whether the
    input or the numerics failed, and its message says which rule."""
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "rabi_spectra" if path.stem == "__init__" else f"rabi_spectra.{path.stem}")
        defined[path.name] = {name for name, obj in vars(module).items()
                              if isinstance(obj, type) and issubclass(obj, BaseException)
                              and obj.__module__ == module.__name__}
    assert {name: kinds for name, kinds in defined.items() if kinds} == {
        "errors.py": {"RabiSpectraError", "ValidationError", "NumericalError"}}


def test_bare_value_errors_stay_internal():
    """A rule on the caller's input raises ValidationError; ``raise
    ValueError`` is left to polyops' numpy-parity errors and series'
    internal guards."""
    def raises_value_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "ValueError"

    assert {path.name for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and node.exc is not None
            and raises_value_error(node)} == {"polyops.py", "series.py"}


#: one argv per command and method, in the regime each method solves, and
#: a route at delta = 0, which returns the closed-form window; every
#: spectrum reaches its method through ``twopoint.window_spectrum``
REACH_ARGVS = [cmd.split() for cmd in (
    "spectrum --omega 1 --eps 0.1 --g 0.4 --lambda 0.2 --emin -1 --emax 3 --method closed",
    "spectrum --omega 1 --delta 0.3 --eps 0.1 --g 0.2 --lambda 0.1 --emin -1 --emax 3"
    " --method oracle",
    "spectrum --omega 1 --delta 0.4 --eps 0.15 --g 0.6 --emin -1 --emax 4 --method heun"
    " --compare-oracle",
    "spectrum --omega 1 --delta 0.3 --g 0.05 --lambda 0.02 --emin -1 --emax 3 --method bcf",
    "spectrum --omega 1 --delta 0.3 --g 0.05 --lambda 0.02 --emin -1 --emax 3 --method auto",
    "spectrum --omega 1 --eps 0.1 --g 0.6 --emin -1 --emax 3 --method heun",
    "gscan --omega 1 --delta 0.4 --eps 0.15 --g 0.6 --emin -1 --emax 1 --method heun",
    "gscan --omega 1 --delta 0.3 --g 0.05 --lambda 0.02 --emin -1 --emax 1 --method bcf",
    "diagnose --omega 1 --delta 0.3 --eps 0.1 --g 0.2 --lambda 0.1",
    "diagnose --omega 1 --delta 0.3 --eps 0.1 --g 0.2 --lambda 0.1 --self-test")]

#: (file, qualified name) of the functions no command calls
UNREACHED = {
    # the documented public API: the routes' thin names and the methods of
    # the parameter and result types
    *(("heun.py", name) for name in ("heun_spectrum", "g_function_heun",
                                     "g_function_heun_batch")),
    *(("bcf.py", name) for name in ("bcf_spectrum", "g_function_bcf",
                                    "g_function_bcf_batch")),
    ("params.py", "ModelParams.mirrored"),
    ("rootscan.py", "GFunctionSample.ok"),
    ("rootscan.py", "ExcludedInterval.contains"),
    # named by perfbench's hook table
    ("_kernels.py", "roll"),
    # a decorator: it runs at import, on the audit's table checks
    ("audit.py", "_in_float_range"),
}


def defined_functions(path: Path) -> set:
    """(file, qualified name) of each function a module defines, named as
    its code object names it: ``Class.method``, ``outer.<locals>.inner``."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                found.add((path.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)
    visit(ast.parse(path.read_text()), "")
    return found


def test_every_function_in_src_is_reached_by_a_command(capsys):
    """Each CLI command and method runs in process under a profiler, its
    caches cleared first so that no result kept by an earlier call hides a
    function; every function ``src/`` defines must run, but those named in
    UNREACHED, and each of those must not."""
    from rabi_spectra import cli

    # every module is imported before the profiler starts, so that no call
    # made at import counts
    for path in SRC.glob("*.py"):
        module = importlib.import_module(
            "rabi_spectra" if path.stem == "__init__" else f"rabi_spectra.{path.stem}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exits = [cli.main(argv) for argv in REACH_ARGVS]
    finally:
        sys.setprofile(previous)
    assert exits == [0] * (len(REACH_ARGVS) - 1) + [3]  # the self-test fails its gate
    called = {(Path(code.co_filename).name, code.co_qualname) for code in codes
              if Path(code.co_filename).resolve().parent == SRC}
    defined = set().union(*(defined_functions(path) for path in sorted(SRC.glob("*.py"))))
    assert defined - called == UNREACHED


def test_each_spectrum_method_is_one_call_of_the_entry(monkeypatch, capsys):
    """The ``spectrum`` command reaches every method, ``closed`` and
    ``oracle`` too, by one call of ``twopoint.window_spectrum`` with the
    window it is given."""
    from rabi_spectra import cli, twopoint

    calls = []

    def recorded(method, p, e_min, e_max, *args):
        calls.append((method, e_min, e_max))
        return twopoint.window_spectrum(method, p, e_min, e_max, *args)

    monkeypatch.setattr(cli, "window_spectrum", recorded)
    spectra = [argv for argv in REACH_ARGVS if argv[0] == "spectrum"]
    assert [cli.main(argv) for argv in spectra] == [0] * len(spectra)
    assert calls == [("closed", -1.0, 3.0), ("oracle", -1.0, 3.0), ("heun", -1.0, 4.0),
                     ("bcf", -1.0, 3.0), ("bcf", -1.0, 3.0), ("heun", -1.0, 3.0)]
    capsys.readouterr()
