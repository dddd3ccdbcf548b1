"""Independent ground truth: dense diagonalization in a truncated Fock basis.

The eigenvalues of the last few (parameters, cutoff) pairs are kept, read-only,
never the matrix: a cutoff ladder whose reference cutoff is the previous
step's cutoff reuses that step's solve, so the ladder 200, 400, 800 with
``delta_n = cutoff // 2`` makes four eigensolves, not six.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .params import ModelParams, memoized, whole

#: largest cutoff a Hamiltonian is built for: dimension 8002, a 512 MB matrix
MAX_CUTOFF = 4000


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
    if not cutoff >= 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    if not cutoff <= MAX_CUTOFF:
        raise ValidationError(f"cutoff must be <= {MAX_CUTOFF}, got {cutoff}")
    cutoff = whole("cutoff", cutoff)
    n = np.arange(cutoff + 1, dtype=float)
    up = 2 * np.arange(n.size)  # index of Fock level n with s = 0
    h = np.zeros((2 * n.size, 2 * n.size))
    h[up, up] = p.omega * n + p.delta
    h[up + 1, up + 1] = p.omega * n - p.delta
    # spin flips between Fock levels n and n + k
    for k, amp in ((0, p.epsilon), (1, p.g * np.sqrt(n[1:])),
                   (2, p.lam * np.sqrt(n[1:-1] * n[2:]))):
        lo = up[:up.size - k]
        for i, j in ((lo, lo + 2 * k + 1), (lo + 1, lo + 2 * k)):
            h[i, j] = h[j, i] = amp
    return TruncatedHamiltonian(cutoff, h)


@memoized(4)
def eigenvalues(p: ModelParams, cutoff: int) -> np.ndarray:
    """All eigenvalues at ``cutoff``, ascending, as a shared read-only array."""
    ham = build_hamiltonian(p, cutoff)
    try:
        ev = np.linalg.eigvalsh(ham.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(str(exc)) from exc
    ev.setflags(write=False)
    return ev


def oracle_spectrum(p: ModelParams, cutoff: int = 120, k: int = 10,
                    delta_n: int = 40) -> OracleResult:
    """Lowest k eigenvalues plus convergence deltas against cutoff - delta_n.

    Needs whole numbers cutoff >= 1 (and at most MAX_CUTOFF, checked by
    :func:`build_hamiltonian`), k in [1, 2 (cutoff + 1)] and delta_n >= 0;
    anything else raises ValidationError.  Each cutoff is solved once
    while it stays among the last few: a ladder whose reference cutoff is
    the previous step's cutoff reuses that solve.  The arrays returned are
    the caller's own.
    """
    if not cutoff >= 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    cutoff = whole("cutoff", cutoff)
    if not 1 <= k <= 2 * (cutoff + 1):
        raise ValidationError(
            f"k must lie in [1, {2 * (cutoff + 1)}] (the dimension), got {k}")
    k = whole("k", k)
    if not delta_n >= 0:
        raise ValidationError(f"delta_n must be >= 0, got {delta_n}")
    delta_n = whole("delta_n", delta_n)
    ev = eigenvalues(p, cutoff)[:k].copy()
    ref_cut = max(cutoff - delta_n, 0)
    ev_ref = eigenvalues(p, ref_cut)[:k]
    deltas = np.abs(ev[:ev_ref.size] - ev_ref)
    return OracleResult(ev, cutoff, deltas, ref_cut)
