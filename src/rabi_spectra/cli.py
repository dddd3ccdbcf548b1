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

from .errors import NumericalError, RabiSpectraError, ValidationError
from .fock import every_level
from .params import ModelParams, RegimeTag, classify_regime, validate_params
from .twopoint import window_samples, window_spectrum

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


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _spectrum_rows(ns: argparse.Namespace, p: ModelParams, method: str):
    res = window_spectrum(method, p, ns.emin, ns.emax, ns.grid, ns.zeta_star,
                          ns.fock_cutoff)
    ev = every_level(p, ns.fock_cutoff) if ns.compare_oracle else None
    header = ["index", "energy", "method"] + ["error_vs_oracle"] * (ev is not None) \
        + ["flags"]
    rows = [{"index": i, "energy": e, "method": method, "flags": label,
             "error_vs_oracle": None if ev is None else float(np.min(np.abs(ev - e)))}
            for i, (e, label) in enumerate(zip(res.energies.tolist(), res.labels))]
    return header, rows


def _gscan_rows(ns: argparse.Namespace, p: ModelParams, method: str):
    # signed as the spectrum scans it, so sign changes are roots, not poles
    rows = [{"energy": s.energy, "scaled_g": s.g_value, "scale_log": s.scale_log,
             "flags": ";".join(sorted(s.flags))}
            for s in window_samples(method, p, ns.emin, ns.emax, ns.grid, ns.zeta_star)]
    return ["energy", "scaled_g", "scale_log", "flags"], rows


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
            sp.add_argument("--compare-oracle", action="store_true")
        if name != "gscan":
            sp.add_argument("--fock-cutoff", type=int, default=120)
        if name == "diagnose":
            sp.add_argument("--self-test", action="store_true",
                            help="corrupt a recurrence and expect the residual "
                                 "gate to fail")
        sp.add_argument("--out", default=None)
    return ap


@np.errstate(all="ignore")  # a non-finite result raises where it is checked
def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        p = validate_params(ns.omega, ns.delta, ns.eps, ns.g, ns.lam)
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
        if ns.emin is None or ns.emax is None:
            raise ValidationError(f"{ns.command} needs --emin and --emax")
        method = ns.method
        if method == "auto":
            method = AUTO[ns.command].get(classify_regime(p), "bcf")
        rows_of = _spectrum_rows if ns.command == "spectrum" else _gscan_rows
        header, rows = rows_of(ns, p, method)
        _write_atomic(_serialize(header, rows, ns.fmt, _meta(ns, p, method)), ns.out)
        return EXIT_OK
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RabiSpectraError as exc:  # a ValidationError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
