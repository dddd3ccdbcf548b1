"""Command-line front end: spectra, G-function scans, and diagnostics.

Exit codes: 0 success, 2 validation error (bad parameters or settings,
method/regime mismatch), 3 numerical failure (non-convergence, residual
threshold, overflow, a bcf reduction that breaks down).  Each setting is
checked by the library call that reads it.
Output files are written atomically and floats are serialized with 17
significant digits so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .bcf import bcf_reduction, bcf_spectrum
from .closed_form import uncoupled_spectrum
from .errors import NumericalError, RabiSpectraError, ValidationError
from .fock import oracle_spectrum
from .heun import heun_reduction, heun_spectrum
from .params import ModelParams, RegimeTag, classify_regime, validate_params
from .rootscan import RootScanConfig, _build_grid
from .twopoint import g_function_batch

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
#: the --method choices of the commands that take an energy window; gscan
#: needs a determinant route
METHODS = {"spectrum": ["auto", "oracle", "closed", "heun", "bcf"],
           "gscan": ["auto", "heun", "bcf"]}
#: the route --method auto takes in each regime; every other regime gets bcf
AUTO = {"spectrum": {RegimeTag.UNCOUPLED: "closed", RegimeTag.ASYMMETRIC: "heun"},
        "gscan": {RegimeTag.ASYMMETRIC: "heun"}}
ROUTES = {"heun": heun_spectrum, "bcf": bcf_spectrum}


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _need_window(ns: argparse.Namespace) -> None:
    if ns.emin is None or ns.emax is None:
        raise ValidationError("this method needs --emin and --emax")


def _spectrum_rows(ns: argparse.Namespace, p: ModelParams, method: str):
    rows = []
    if method == "closed":
        plus, minus = uncoupled_spectrum(p, ns.nmax)
        items = [(e, f"branch=+;n={n}") for n, e in enumerate(plus.energies)]
        items += [(e, f"branch=-;n={n}") for n, e in enumerate(minus.energies)]
        items.sort(key=lambda t: t[0])
        energies = [e for e, _ in items]
        flags = [f for _, f in items]
    elif method == "oracle":
        res = oracle_spectrum(p, ns.fock_cutoff, ns.nmax + 1)
        energies = list(res.eigenvalues)
        flags = [f"cutoff={res.cutoff}"] * len(energies)
    else:
        _need_window(ns)
        sr = ROUTES[method](p, ns.emin, ns.emax, ns.grid, zeta_star=ns.zeta_star)
        energies = list(sr.energies)
        flags = list(sr.labels)

    errors = None
    if ns.compare_oracle:
        k = max(len(energies) + 6, 12)
        ev = oracle_spectrum(p, ns.fock_cutoff, k).eigenvalues
        errors = [float(np.min(np.abs(ev - e))) for e in energies]
    for i, e in enumerate(energies):
        row = {"index": i, "energy": float(e), "method": method}
        if errors is not None:
            row["error_vs_oracle"] = errors[i]
        row["flags"] = flags[i]
        rows.append(row)
    header = ["index", "energy", "method"] \
        + (["error_vs_oracle"] if errors is not None else []) + ["flags"]
    return header, rows


def _gscan_rows(ns: argparse.Namespace, p: ModelParams, method: str):
    _need_window(ns)
    header = ["energy", "scaled_g", "scale_log", "flags"]
    rows = []
    if ns.emin >= ns.emax:
        return header, rows
    # built in units of omega, as the routes build theirs
    om = p.omega
    grid = om * _build_grid(RootScanConfig(ns.emin / om, ns.emax / om, ns.grid / om))
    reduce = heun_reduction if method == "heun" else bcf_reduction
    # signed as the spectrum scans it, so sign changes are roots, not poles
    samples = g_function_batch(reduce, p, grid, ns.zeta_star,
                               ns.k_branch if method == "heun" else None, pole_free=True)
    for e, s in zip(grid, samples):
        rows.append({"energy": float(e), "scaled_g": float(s.g_value),
                     "scale_log": float(s.scale_log),
                     "flags": ";".join(sorted(s.flags))})
    return header, rows


def _serialize(header, rows, fmt_name: str, meta: dict) -> str:
    if fmt_name == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt(row[h]) for h in header))
        return "\n".join(lines) + "\n"
    body = {"meta": meta, "rows": [
        {h: (fmt(r[h]) if isinstance(r[h], float) else r[h]) for h in header}
        for r in rows]}
    return json.dumps(body, indent=2) + "\n"


def _write_atomic(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                                   prefix=".rabi-spectra-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _meta(ns: argparse.Namespace, p: ModelParams, method: str) -> dict:
    return {
        "command": ns.command,
        "method": method,
        "omega": fmt(p.omega), "delta": fmt(p.delta), "epsilon": fmt(p.epsilon),
        "g": fmt(p.g), "lambda": fmt(p.lam),
    }


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the options it reads."""
    ap = argparse.ArgumentParser(
        prog="rabi-spectra",
        description="Energy spectra of the two-level + squeezed-mode model")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "gscan", "diagnose"):
        sp = sub.add_parser(name)
        sp.add_argument("--omega", type=float, required=True)
        sp.add_argument("--delta", type=float, default=0.0)
        sp.add_argument("--eps", type=float, default=0.0)
        sp.add_argument("--g", type=float, default=0.0)
        sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
        if name in METHODS:
            sp.add_argument("--emin", type=float, default=None)
            sp.add_argument("--emax", type=float, default=None)
            sp.add_argument("--grid", type=float, default=None,
                            help="scan step (default 0.05*omega)")
            sp.add_argument("--method", default="auto", choices=METHODS[name])
            sp.add_argument("--format", dest="fmt", default="csv",
                            choices=["csv", "json"])
            sp.add_argument("--zeta-star", type=float, default=0.5)
        if name == "spectrum":
            sp.add_argument("--nmax", type=int, default=9)
            sp.add_argument("--compare-oracle", action="store_true")
        if name == "gscan":
            sp.add_argument("--k-branch", default="minus", choices=["plus", "minus"])
        else:
            sp.add_argument("--fock-cutoff", type=int, default=120)
        if name == "diagnose":
            sp.add_argument("--self-test", action="store_true",
                            help="corrupt a recurrence and expect the residual "
                                 "gate to fail")
        sp.add_argument("--out", default=None)
    return ap


def _params(ns: argparse.Namespace) -> ModelParams:
    """Validate the parameters, fill in the default --grid and check the
    window where both edges are given; the library checks every other
    setting where it reads it."""
    params = validate_params(ns.omega, ns.delta, ns.eps, ns.g, ns.lam)
    if "grid" in ns:
        if ns.grid is None:
            ns.grid = 0.05 * ns.omega
        if ns.emin is not None and ns.emax is not None:
            RootScanConfig(ns.emin, ns.emax, ns.grid)
    return params


def _raised_in(exc: BaseException) -> str:
    """module.function of the frame that raised exc."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    return f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"


@np.errstate(all="ignore")  # a non-finite result raises where it is checked
def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        p = _params(ns)
        if ns.command == "diagnose":
            # the paper audit is imported only where it is read
            from .audit import diagnose_report
            report = diagnose_report(p, corrupt=ns.self_test,
                                     fock_cutoff=ns.fock_cutoff)
            report["meta"] = _meta(ns, p, "diagnose")
            _write_atomic(json.dumps(report, indent=2, default=str) + "\n", ns.out)
            if not report["residuals_ok"]:
                print("diagnose: residual threshold exceeded", file=sys.stderr)
                return EXIT_NUMERICAL
            return EXIT_OK
        method = ns.method
        if method == "auto":
            method = AUTO[ns.command].get(classify_regime(p), "bcf")
        rows_of = _spectrum_rows if ns.command == "spectrum" else _gscan_rows
        header, rows = rows_of(ns, p, method)
        _write_atomic(_serialize(header, rows, ns.fmt, _meta(ns, p, method)), ns.out)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:  # diagnose's paper tables square physical parameters
        print(f"numerical failure: overflow in {_raised_in(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RabiSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
