"""Command-line front end: spectra, G-function scans, and diagnostics.

Exit codes: 0 success, 2 validation error (bad parameters, method/regime
mismatch), 3 numerical failure (non-convergence, residual threshold).
Output files are written atomically and floats are serialized with 17
significant digits so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .audit import diagnose_report
from .bcf import bcf_reduction, bcf_spectrum, g_function_bcf_batch
from .closed_form import uncoupled_spectrum
from .errors import NumericalError, RabiSpectraError, RegimeMismatchError, ValidationError
from .fock import MAX_CUTOFF, oracle_spectrum
from .heun import g_function_heun_batch, heun_reduction, heun_spectrum
from .params import ModelParams, RegimeTag, classify_regime, validate_params
from .rootscan import MAX_GRID_POINTS, SpectrumResult
from .twopoint import resonance_ladder

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
#: most closed-form levels per branch a spectrum run asks for
MAX_NMAX = 10 ** 5


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass(frozen=True)
class RunConfig:
    command: str
    method: str
    params: ModelParams
    e_min: float | None
    e_max: float | None
    grid_step: float
    n_max: int
    fock_cutoff: int
    compare_oracle: bool
    fmt: str
    out: str | None
    zeta_star: float
    k_branch: str
    self_test: bool
    verbose: int


def _resolve_method(cfg: RunConfig, for_gscan: bool = False) -> str:
    method = cfg.method
    regime = classify_regime(cfg.params, 1e-10)
    if method == "auto":
        if for_gscan:
            return "heun" if regime.tag in (RegimeTag.ASYMMETRIC,) else "bcf"
        if regime.tag == RegimeTag.UNCOUPLED:
            return "closed"
        if regime.tag == RegimeTag.ASYMMETRIC:
            return "heun"
        return "bcf"
    p = cfg.params
    if method == "closed" and abs(p.delta) > 1e-10 * p.omega:
        raise RegimeMismatchError("method 'closed' requires delta = 0")
    if method == "heun" and abs(p.lam) > 1e-10 * p.omega:
        raise RegimeMismatchError("method 'heun' requires lambda = 0")
    if for_gscan and method in ("closed", "oracle"):
        raise RegimeMismatchError(f"gscan needs a G-function method, got {method!r}")
    return method


def _need_window(cfg: RunConfig) -> None:
    if cfg.e_min is None or cfg.e_max is None:
        raise ValidationError("this method needs --emin and --emax")


def _spectrum_rows(cfg: RunConfig):
    method = _resolve_method(cfg)
    rows = []
    if method == "closed":
        plus, minus = uncoupled_spectrum(cfg.params, cfg.n_max)
        items = [(e, f"branch=+;n={n}") for n, e in enumerate(plus.energies)]
        items += [(e, f"branch=-;n={n}") for n, e in enumerate(minus.energies)]
        items.sort(key=lambda t: t[0])
        energies = [e for e, _ in items]
        flags = [f for _, f in items]
    elif method == "oracle":
        res = oracle_spectrum(cfg.params, cfg.fock_cutoff, cfg.n_max + 1)
        energies = list(res.eigenvalues)
        flags = [f"cutoff={res.cutoff}"] * len(energies)
    elif method == "heun":
        _need_window(cfg)
        sr: SpectrumResult = heun_spectrum(
            cfg.params, cfg.e_min, cfg.e_max, cfg.grid_step,
            zeta_star=cfg.zeta_star)
        energies = list(sr.energies)
        flags = list(sr.labels)
    elif method == "bcf":
        _need_window(cfg)
        sr = bcf_spectrum(cfg.params, cfg.e_min, cfg.e_max, cfg.grid_step,
                          zeta_star=cfg.zeta_star)
        energies = list(sr.energies)
        flags = list(sr.labels)
    else:
        raise ValidationError(f"unknown method {method!r}")

    errors = None
    if cfg.compare_oracle:
        k = max(len(energies) + 6, 12)
        ev = oracle_spectrum(cfg.params, cfg.fock_cutoff, k).eigenvalues
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


def _gscan_rows(cfg: RunConfig):
    method = _resolve_method(cfg, for_gscan=True)
    _need_window(cfg)
    header = ["energy", "scaled_g", "scale_log", "flags"]
    rows = []
    if cfg.e_min >= cfg.e_max:
        return header, rows
    n = int(np.floor((cfg.e_max - cfg.e_min) / cfg.grid_step + 1e-9)) + 1
    grid = [cfg.e_min + i * cfg.grid_step for i in range(n)]
    try:
        reduction = (heun_reduction if method == "heun" else bcf_reduction)(cfg.params)
        ladder = [e for e, _s, _n in resonance_ladder(reduction,
                                                      cfg.e_min - cfg.grid_step,
                                                      cfg.e_max + cfg.grid_step)]
    except RabiSpectraError:
        ladder = []
    if method == "heun":
        samples = g_function_heun_batch(cfg.params, grid, cfg.zeta_star,
                                        cfg.k_branch)
    else:
        samples = g_function_bcf_batch(cfg.params, grid, cfg.zeta_star)
    for e, s in zip(grid, samples):
        flags = set(s.flags)
        # a determinant pole lives at each ladder point; mark its neighborhood
        # so sign changes across it are not read as roots
        if any(abs(e - L) <= 0.5 * cfg.grid_step for L in ladder):
            flags.add("near_resonance")
        rows.append({"energy": float(e), "scaled_g": float(s.g_value),
                     "scale_log": float(s.scale_log),
                     "flags": ";".join(sorted(flags))})
    return header, rows


def _serialize(header, rows, cfg: RunConfig, meta: dict) -> str:
    if cfg.fmt == "csv":
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


def _meta(cfg: RunConfig, method: str) -> dict:
    p = cfg.params
    return {
        "command": cfg.command,
        "method": method,
        "omega": fmt(p.omega), "delta": fmt(p.delta), "epsilon": fmt(p.epsilon),
        "g": fmt(p.g), "lambda": fmt(p.lam),
    }


def build_parser() -> argparse.ArgumentParser:
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
        sp.add_argument("--emin", type=float, default=None)
        sp.add_argument("--emax", type=float, default=None)
        sp.add_argument("--grid", type=float, default=None,
                        help="scan step (default 0.05*omega)")
        sp.add_argument("--method", default="auto",
                        choices=["auto", "oracle", "closed", "heun", "bcf"])
        sp.add_argument("--nmax", type=int, default=9)
        sp.add_argument("--fock-cutoff", type=int, default=120)
        sp.add_argument("--compare-oracle", action="store_true")
        sp.add_argument("--format", dest="fmt", default="csv",
                        choices=["csv", "json"])
        sp.add_argument("--out", default=None)
        sp.add_argument("--zeta-star", type=float, default=0.5)
        sp.add_argument("--k-branch", default="minus", choices=["plus", "minus"])
        sp.add_argument("--self-test", action="store_true",
                        help="diagnose only: corrupt a recurrence and expect "
                             "the residual gate to fail")
        sp.add_argument("-v", "--verbose", action="count", default=0)
    return ap


def _config(ns: argparse.Namespace) -> RunConfig:
    params = validate_params(ns.omega, ns.delta, ns.eps, ns.g, ns.lam)
    grid = ns.grid if ns.grid is not None else 0.05 * ns.omega
    if not (math.isfinite(grid) and grid > 0):
        raise ValidationError(f"--grid must be finite and > 0, got {grid}")
    for name, value in (("--emin", ns.emin), ("--emax", ns.emax)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if ns.emin is not None and ns.emax is not None:
        if ns.emin > ns.emax:
            raise ValidationError(f"--emin {ns.emin} exceeds --emax {ns.emax}")
        if (ns.emax - ns.emin) / grid > MAX_GRID_POINTS:
            raise ValidationError(f"--grid {grid} puts more than {MAX_GRID_POINTS} "
                                  f"points on [--emin, --emax]")
    if not 0 <= ns.nmax <= MAX_NMAX:
        raise ValidationError(f"--nmax must lie in [0, {MAX_NMAX}], got {ns.nmax}")
    if not 1 <= ns.fock_cutoff <= MAX_CUTOFF:
        raise ValidationError(f"--fock-cutoff must lie in [1, {MAX_CUTOFF}], "
                              f"got {ns.fock_cutoff}")
    return RunConfig(ns.command, ns.method, params, ns.emin, ns.emax, grid,
                     ns.nmax, ns.fock_cutoff, ns.compare_oracle, ns.fmt,
                     ns.out, ns.zeta_star, ns.k_branch, ns.self_test,
                     ns.verbose)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = _config(ns)
        if cfg.command == "spectrum":
            header, rows = _spectrum_rows(cfg)
            text = _serialize(header, rows, cfg, _meta(cfg, _resolve_method(cfg)))
            _write_atomic(text, cfg.out)
            return EXIT_OK
        if cfg.command == "gscan":
            header, rows = _gscan_rows(cfg)
            text = _serialize(header, rows, cfg,
                              _meta(cfg, _resolve_method(cfg, for_gscan=True)))
            _write_atomic(text, cfg.out)
            return EXIT_OK
        # diagnose
        report = diagnose_report(cfg.params, corrupt=cfg.self_test,
                                 fock_cutoff=cfg.fock_cutoff)
        report["meta"] = _meta(cfg, "diagnose")
        text = json.dumps(report, indent=2, default=str) + "\n"
        _write_atomic(text, cfg.out)
        if not report["residuals_ok"]:
            print("diagnose: residual threshold exceeded", file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RabiSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
