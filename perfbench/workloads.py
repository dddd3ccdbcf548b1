"""The benchmark's four workloads: seeded inputs, reference spectra computed
before timing starts, one unit call each, and the check of every call.

References come from the benchmark's own dense Hamiltonian (built here, not
by ``rabi_spectra.fock``) diagonalised at two cutoffs that must agree, so the
checks do not lean on the code they check and the traced run sees no ``fock``
work outside the oracle workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rabi_spectra import audit, bcf, fock, heun
from rabi_spectra.params import ModelParams, validate_params

GRID_STEP = 0.05
#: acceptance criterion 2: every heun level within this of the oracle
HEUN_TOL = 1e-6
#: bound on the bcf route's error over the bcf-sweep box (measured maximum
#: about 0.06, at the largest g, lambda and energy); also the edge margin
#: inside which a level counts neither way
BCF_TOL = 0.1
#: converged-oracle tolerance: convergence deltas and agreement with the
#: benchmark's own reference
ORACLE_TOL = 1e-8
#: two reference cutoffs must agree this well on every level used
REF_AGREE = 1e-9

P2 = ModelParams(1.0, 0.4, 0.15, 0.6, 0.0)
DELTA0 = ModelParams(1.0, 0.0, 0.1, 0.4, 0.0)
P3 = ModelParams(1.0, 0.3, 0.0, 0.05, 0.02)
#: bcf case that returns 2 of its 7 levels (avoided crossing the scan misses)
MISSING_LEVELS = ModelParams(1.0, 0.05, 0.0, 0.1, 0.03)


@dataclass(frozen=True)
class Case:
    label: str
    params: ModelParams
    e_min: float = -1.0
    e_max: float = 4.0


@dataclass(frozen=True)
class Outcome:
    """Check result of one unit call."""

    ok: bool        # passed its correctness check
    levels: int     # levels that pass the check
    expected: int   # levels the reference holds
    missing: int    # reference levels with no returned partner
    error: str = ""


def failed_call(expected: int, exc: BaseException) -> Outcome:
    return Outcome(False, 0, expected, expected, f"{type(exc).__name__}: {exc}")


def reference_eigenvalues(p: ModelParams, cutoff: int) -> np.ndarray:
    """All eigenvalues of the Hamiltonian truncated at Fock level ``cutoff``,
    index 2n + s, built independently of ``rabi_spectra.fock``."""
    nf = cutoff + 1
    n = np.arange(nf, dtype=float)
    h = np.diag(np.column_stack((p.omega * n + p.delta,
                                 p.omega * n - p.delta)).ravel())
    up = 2 * np.arange(nf)
    h[up, up + 1] = h[up + 1, up] = p.epsilon
    for k, amp in ((1, p.g * np.sqrt(n[1:])),
                   (2, p.lam * np.sqrt(n[1:-1] * n[2:]))):
        lo, hi = np.arange(nf - k), np.arange(k, nf)
        for a, b in ((2 * lo, 2 * hi + 1), (2 * lo + 1, 2 * hi)):
            h[a, b] = h[b, a] = amp
    return np.linalg.eigvalsh(h)


def _agreed(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    if a.shape != b.shape or np.max(np.abs(a - b), initial=0.0) > REF_AGREE:
        raise RuntimeError(f"reference not converged for {what}")
    return b


def window_reference(case: Case, cutoffs=(150, 200)) -> np.ndarray:
    """Converged reference levels on the case's window (with a margin)."""
    lo, hi = case.e_min - 0.5, case.e_max + 0.5
    evs = [reference_eigenvalues(case.params, n) for n in cutoffs]
    evs = [e[(e > lo) & (e < hi)] for e in evs]
    return _agreed(evs[0], evs[1], case.label)


def match_levels(ref, got, case: Case, tol: float) -> Outcome:
    """Pair returned levels with reference levels one to one within tol.

    A level within tol of a window edge counts neither way.  A returned level
    without a partner fails the call.  A reference level without one is
    missing: it lowers levels_found_frac but does not fail the call, because
    neither route yet certifies that its window is complete (both miss
    levels that the grid scan cannot see, such as two roots in one cell).
    """
    def inside(e):
        e = np.sort(np.asarray(e, dtype=float))
        return e[(e > case.e_min + tol) & (e < case.e_max - tol)]

    free = list(inside(ref))
    expected = len(free)
    matched = spurious = 0
    for e in inside(got):
        j = int(np.argmin(np.abs(np.array(free) - e))) if free else -1
        if j >= 0 and abs(free[j] - e) <= tol:
            free.pop(j)
            matched += 1
        else:
            spurious += 1
    missing = expected - matched
    ok = spurious == 0
    error = "" if ok else (f"{matched}/{expected} levels matched, "
                           f"{spurious} unmatched returned")
    return Outcome(ok, matched, expected, missing, error)


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


class _WindowSweep:
    """Spectrum windows on one route, checked level by level within tol."""

    tol: float

    def reference(self, case: Case):
        return window_reference(case)

    def expected(self, case: Case, ref) -> int:
        return match_levels(ref, [], case, self.tol).expected

    def check(self, case: Case, ref, energies) -> Outcome:
        return match_levels(ref, energies, case, self.tol)


class HeunSweep(_WindowSweep):
    name = "heun-sweep"
    why = ("lambda=0 windows on the confluent-Heun route: reduction, two "
           "derivations and two rollouts per G-eval on two gauges")
    trace_calls = 3
    tol = HEUN_TOL

    def cases(self, rng) -> list:
        out = [Case("P2", P2, -1.0, 4.0), Case("delta0", DELTA0, -1.0, 3.0)]
        for i in range(8):
            p = validate_params(1.0, _u(rng, 0.2, 0.6), _u(rng, 0.0, 0.3),
                                _u(rng, 0.3, 0.9), 0.0)
            out.append(Case(f"draw{i}", p, -1.0, 4.0))
        return out

    def call(self, case: Case):
        return heun.heun_spectrum(case.params, case.e_min, case.e_max,
                                  GRID_STEP).energies


class BcfSweep(_WindowSweep):
    name = "bcf-sweep"
    why = ("small-coupling windows on the bcf route: one gauge, derivation "
           "as costly as rollout, and the missing-level defect")
    trace_calls = 8
    tol = BCF_TOL

    def cases(self, rng) -> list:
        out = [Case("P3", P3, -1.0, 3.0),
               Case("missing-levels", MISSING_LEVELS, -1.0, 3.0)]
        for i in range(6):
            p = validate_params(1.0, _u(rng, 0.05, 0.4), _u(rng, -0.1, 0.1),
                                _u(rng, 0.02, 0.1), _u(rng, 0.005, 0.03))
            out.append(Case(f"draw{i}", p, -1.0, 3.0))
        return out

    def call(self, case: Case):
        return bcf.bcf_spectrum(case.params, case.e_min, case.e_max,
                                GRID_STEP).energies


class DiagnoseBatch:
    name = "diagnose-batch"
    why = ("diagnose reports across all regimes: series at batch size one "
           "plus the printed-vs-derived tables")
    trace_calls = 16
    n_levels = 10  # oracle levels a report carries

    def cases(self, rng) -> list:
        regimes = (
            ("general", lambda: (_u(rng, 0.1, 0.6), _u(rng, -0.3, 0.3),
                                 _u(rng, 0.1, 0.8), _u(rng, 0.05, 0.3))),
            ("heun", lambda: (_u(rng, 0.1, 0.6), _u(rng, -0.3, 0.3),
                              _u(rng, 0.1, 0.8), 0.0)),
            ("closed", lambda: (0.0, _u(rng, -0.3, 0.3), _u(rng, 0.1, 0.8),
                                _u(rng, 0.05, 0.3))),
            ("two-photon", lambda: (_u(rng, 0.1, 0.6), _u(rng, -0.3, 0.3),
                                    0.0, _u(rng, 0.05, 0.3))),
            ("bcf", lambda: (_u(rng, 0.05, 0.4), _u(rng, -0.1, 0.1),
                             _u(rng, 0.02, 0.1), _u(rng, 0.005, 0.03))),
        )
        return [Case(f"{tag}{i}", validate_params(1.0, *draw()))
                for i in range(8) for tag, draw in regimes]

    def reference(self, case: Case):
        return None

    def expected(self, case: Case, ref) -> int:
        return self.n_levels

    def call(self, case: Case):
        return audit.diagnose_report(case.params)

    def check(self, case: Case, ref, report) -> Outcome:
        deltas = np.asarray(report["oracle_convergence"]["deltas"])
        levels = int(np.sum(deltas <= ORACLE_TOL))
        ok = bool(report["residuals_ok"])
        return Outcome(ok, levels, self.n_levels, self.n_levels - levels,
                       "" if ok else "residuals above threshold")


class OracleCollapse:
    name = "oracle-collapse"
    why = ("Fock oracle near spectral collapse over a cutoff ladder to "
           "N=800: dense eigensolve only, every series layer idle")
    trace_calls = 8
    ladder = (200, 400, 800)
    n_levels = 40

    def cases(self, rng) -> list:
        return [Case(f"draw{i}", validate_params(
                    1.0, _u(rng, 0.0, 0.6), _u(rng, -0.3, 0.3),
                    _u(rng, 0.1, 0.6), _u(rng, 0.3, 0.45)))
                for i in range(12)]

    def reference(self, case: Case):
        a, b = (reference_eigenvalues(case.params, n)[:self.n_levels]
                for n in (400, 480))
        return _agreed(a, b, case.label)

    def expected(self, case: Case, ref) -> int:
        return self.n_levels

    def call(self, case: Case):
        for cutoff in self.ladder:
            res = fock.oracle_spectrum(case.params, cutoff, self.n_levels,
                                       cutoff // 2)
        return res

    def check(self, case: Case, ref, res) -> Outcome:
        good = ((np.asarray(res.convergence_deltas) <= ORACLE_TOL)
                & (np.abs(np.asarray(res.eigenvalues) - ref) <= ORACLE_TOL))
        levels = int(np.sum(good))
        ok = levels == self.n_levels
        return Outcome(ok, levels, self.n_levels, self.n_levels - levels,
                       "" if ok else f"{levels}/{self.n_levels} levels converged")


WORKLOADS = {w.name: w for w in (HeunSweep(), BcfSweep(), DiagnoseBatch(),
                                 OracleCollapse())}
