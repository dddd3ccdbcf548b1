"""The spectrum routes stay on one determinant path: they import nothing of
the audit's recurrence and residual checks or of the paper audit.  One
series entry reaches the kernel: only ``series`` calls ``roll_lanes``, and
no module calls the one-lane ``_kernels.roll``.  The root scan is the layer
below the routes: it imports none of them.  The CLI imports the audit only
inside the diagnose command, and keeps no bound of its own."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rabi_spectra"
ROUTES = ("twopoint.py", "heun.py", "bcf.py", "rootscan.py")
FORBIDDEN = {"ode_to_recurrence", "ode_residual", "RecurrenceSpec",
             "audit", "canonical", "special"}
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


def test_rootscan_imports_no_layer_above_it():
    assert imported_names(SRC / "rootscan.py") & ABOVE_ROOTSCAN == set()


def test_cli_imports_the_audit_only_where_diagnose_reads_it():
    assert imported_names(SRC / "cli.py", module_level=True) \
        & {"audit", "diagnose_report", "canonical", "special"} == set()
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
