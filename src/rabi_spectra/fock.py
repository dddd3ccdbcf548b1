"""Independent ground truth: dense diagonalization in a truncated Fock basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, NegativeCutoffError
from .params import ModelParams


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Dense symmetric matrix over spin (x) Fock(0..N); index = 2 n + s."""

    cutoff: int
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return 2 * (self.cutoff + 1)


@dataclass(frozen=True)
class OracleResult:
    eigenvalues: np.ndarray
    cutoff: int
    convergence_deltas: np.ndarray
    reference_cutoff: int


def build_hamiltonian(p: ModelParams, cutoff: int) -> TruncatedHamiltonian:
    """Matrix of the Hamiltonian with spin blocks omega*n +- delta on the
    diagonal and the spin-flip coupling g(a+a†) + lam(a²+a†²) + eps.

    <n+1|a†|n> = sqrt(n+1), <n+2|a†²|n> = sqrt((n+1)(n+2)).  Built
    symmetrically, so H == H.T bit-exactly.
    """
    if cutoff < 0:
        raise NegativeCutoffError(f"cutoff must be >= 0, got {cutoff}")
    n_f = cutoff + 1
    dim = 2 * n_f
    h = np.zeros((dim, dim))
    for n in range(n_f):
        h[2 * n, 2 * n] = p.omega * n + p.delta
        h[2 * n + 1, 2 * n + 1] = p.omega * n - p.delta
        _set_flip(h, n, n, p.epsilon)
    for n in range(n_f - 1):
        _set_flip(h, n, n + 1, p.g * np.sqrt(n + 1.0))
    for n in range(n_f - 2):
        _set_flip(h, n, n + 2, p.lam * np.sqrt((n + 1.0) * (n + 2.0)))
    return TruncatedHamiltonian(cutoff, h)


def _set_flip(h: np.ndarray, n: int, m: int, amp: float) -> None:
    """Spin-flip matrix element between Fock levels n and m (symmetrized)."""
    pairs = {(min(2 * n, 2 * m + 1), max(2 * n, 2 * m + 1)),
             (min(2 * n + 1, 2 * m), max(2 * n + 1, 2 * m))}
    for (i, j) in sorted(pairs):
        h[i, j] += amp
        h[j, i] += amp


def eigenvalues(p: ModelParams, cutoff: int) -> np.ndarray:
    ham = build_hamiltonian(p, cutoff)
    try:
        return np.linalg.eigvalsh(ham.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(str(exc)) from exc


def oracle_spectrum(p: ModelParams, cutoff: int = 120, k: int = 10,
                    delta_n: int = 40) -> OracleResult:
    """Lowest k eigenvalues plus convergence deltas against cutoff - delta_n."""
    if cutoff < 1:
        raise NegativeCutoffError(f"cutoff must be >= 1, got {cutoff}")
    if k > 2 * (cutoff + 1):
        raise NegativeCutoffError(
            f"requested {k} eigenvalues from dimension {2 * (cutoff + 1)}")
    ev = eigenvalues(p, cutoff)[:k]
    ref_cut = max(cutoff - delta_n, 0)
    ev_ref = eigenvalues(p, ref_cut)[:min(k, 2 * (ref_cut + 1))]
    deltas = np.abs(ev[:ev_ref.size] - ev_ref)
    return OracleResult(ev, cutoff, deltas, ref_cut)
