"""Independent ground truth: diagonalization in a truncated Fock basis.

The Hamiltonian is built once per solve, as its lower band in the index
2 n + s with s = 0, 1 the sigma_x eigenstates: every coupling is a
sigma_x spin flip and keeps s there, so the band has half-width 4.  From
cutoff :data:`BANDED_FROM` up its eigenvalues come from LAPACK's banded
solvers, run on that band; below it they come from a dense ``eigvalsh`` of
the matrix it expands to.  A caller that needs only the lowest k levels
asks for k: on the band, where k is small against the dimension
(:data:`BISECT_RATIO`), the levels are found by bisection with Sturm counts
instead of the full QL sweep.  The eigenvalues of the last few (parameters,
cutoff, k) lookups are kept, read-only, never the matrix: a cutoff ladder
whose reference cutoff is the previous step's cutoff reuses that step's
solve, so the ladder 200, 400, 800 with ``delta_n = cutoff // 2`` and
k = 40 makes four eigensolves, not six: 100 dense, 200 and 400 on the band
in full, 800 on the band by bisection.

Timings below are medians on a 2-core x86_64 machine with OpenBLAS 0.3.31,
near spectral collapse (lam 0.3 to 0.45).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .params import ModelParams, real, whole

#: largest cutoff a Hamiltonian is built for: dimension 8002, a 320 kB band,
#: and a 512 MB matrix where ``.matrix`` is asked for
MAX_CUTOFF = 4000
#: smallest cutoff solved on the band.  At cutoff 200 the banded solve takes
#: 4.5–4.7 ms against 9–10 ms dense (16.5–16.8 against 46–50 ms at 400),
#: but importing scipy.linalg costs 0.23 s and 27 MB of RSS (28 -> 56 MB),
#: more than a dense solve at the default cutoff 120 (3.5 ms), so smaller
#: cutoffs stay dense and never load scipy
BANDED_FROM = 200
#: a banded solve for the lowest k of dim levels bisects where
#: ``BISECT_RATIO * k < dim``, else it runs the full ``?sbevd``.  On the
#: half-width-4 band, after the band-to-tridiagonal reduction (about
#: 6–7 ns dim^2 from dim 802 up) bisection costs about 0.3–0.4 us dim per
#: level and the full QL sweep about 14–20 ns dim^2; fitted crossovers lie
#: at dim = 22 k, 24 k and 20 k for dim 402, 802 and 1602.  For k = 40:
#: 44–46 against 65–69 ms at cutoff 800 (dim 1602), but 17.3–18.8 against
#: 15.4–16.8 ms at 400 (dim 802) and 6.5–8.0 against 4.0–4.7 ms at 200,
#: where the full solve stays
BISECT_RATIO = 23


def dimension(cutoff: int) -> int:
    """Size of the truncated basis, spin (x) Fock(0..cutoff)."""
    return 2 * (cutoff + 1)


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Symmetric matrix over Fock(0..N) (x) the sigma_x eigenstates
    (|up> +- |down>)/sqrt 2, index = 2 n + s, held as its lower band:
    ``band[d, j] = H[j + d, j]`` for d = 0..4."""

    cutoff: int
    band: np.ndarray

    @property
    def dimension(self) -> int:
        return dimension(self.cutoff)

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, expanded from the band, symmetric bit-exactly."""
        dim = self.dimension
        h = np.zeros((dim, dim))
        j = np.arange(dim)
        for d, row in enumerate(self.band[:dim]):
            h[j[d:], j[:dim - d]] = h[j[:dim - d], j[d:]] = row[:dim - d]
        return h


@dataclass(frozen=True)
class OracleResult:
    eigenvalues: np.ndarray
    cutoff: int
    convergence_deltas: np.ndarray
    reference_cutoff: int


def build_hamiltonian(p: ModelParams, cutoff: int) -> TruncatedHamiltonian:
    """Band of the Hamiltonian omega a†a + delta sigma_z + eps sigma_x +
    [g(a + a†) + lam(a² + a†²)] sigma_x in the sigma_x basis.

    omega*n +- eps on the diagonal, delta between (n, +) and (n, -) at
    offset 1, +-g sqrt(n+1) between Fock levels n and n + 1 at offset 2, and
    +-lam sqrt((n+1)(n+2)) between n and n + 2 at offset 4; offset 3 is
    zero.  The cutoff must be a whole number in [0, MAX_CUTOFF], checked
    before any array is made.
    """
    if not real("cutoff", cutoff) >= 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    if not cutoff <= MAX_CUTOFF:
        raise ValidationError(f"cutoff must be <= {MAX_CUTOFF}, got {cutoff}")
    cutoff = whole("cutoff", cutoff)
    n = np.arange(cutoff + 1, dtype=float)
    band = np.zeros((5, 2 * n.size))
    band[0, 0::2] = p.omega * n + p.epsilon
    band[0, 1::2] = p.omega * n - p.epsilon
    band[1, 0::2] = p.delta
    # Fock levels n and n + k, for n = 0..cutoff - k, at offset 2 k
    for k, amp in ((1, p.g * np.sqrt(n[1:])), (2, p.lam * np.sqrt(n[1:-1] * n[2:]))):
        end = 2 * max(n.size - k, 0)
        band[2 * k, 0:end:2] = amp
        band[2 * k, 1:end:2] = -amp
    return TruncatedHamiltonian(cutoff, band)


def eigenvalues(p: ModelParams, cutoff: int, k: int | None = None) -> np.ndarray:
    """The lowest min(k, dim) eigenvalues at ``cutoff`` (all of them where
    k is None), ascending, as a shared read-only array: from the band at
    cutoffs of at least BANDED_FROM, by bisection where BISECT_RATIO * k <
    dim, else dense from the expanded matrix.  cutoff and k are read as
    whole numbers before the cache is looked up, and a k that is not one
    >= 1 raises ValidationError."""
    if k is not None:
        if not real("k", k) >= 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        k = whole("k", k)
    return _eigenvalues(p, whole("cutoff", cutoff), k)


def every_level(p: ModelParams, cutoff: int) -> np.ndarray:
    """All 2 (cutoff + 1) levels at ``cutoff``, as :func:`eigenvalues` shares
    them, once the cutoff passes :func:`oracle_spectrum`'s rule (>= 1)."""
    if not real("cutoff", cutoff) >= 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    return eigenvalues(p, cutoff)


@functools.lru_cache(maxsize=4)
def _eigenvalues(p: ModelParams, cutoff: int, k: int | None) -> np.ndarray:
    ham = build_hamiltonian(p, cutoff)
    dim = ham.dimension
    k = dim if k is None else min(k, dim)
    try:
        if cutoff < BANDED_FROM:
            ev = np.linalg.eigvalsh(ham.matrix)[:k]
        else:
            from scipy.linalg import eigvals_banded
            if BISECT_RATIO * k < dim:
                ev = eigvals_banded(ham.band, lower=True, select="i",
                                    select_range=(0, k - 1))
            else:
                ev = eigvals_banded(ham.band, lower=True)[:k]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(str(exc)) from exc
    ev.setflags(write=False)
    return ev


def oracle_spectrum(p: ModelParams, cutoff: int = 120, k: int = 10,
                    delta_n: int = 40) -> OracleResult:
    """Lowest k eigenvalues plus convergence deltas against cutoff - delta_n.

    Needs whole numbers cutoff >= 1 (and at most MAX_CUTOFF, checked by
    :func:`build_hamiltonian`), k in [1, 2 (cutoff + 1)] and delta_n >= 0;
    anything else raises ValidationError.  Both cutoffs are asked for k
    levels, so a reference cutoff with fewer levels gives fewer deltas.
    Each (cutoff, k) is solved once while it stays among the last few: a
    ladder whose reference cutoff is the previous step's cutoff reuses that
    solve.  The arrays returned are the caller's own.
    """
    if not real("cutoff", cutoff) >= 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    cutoff = whole("cutoff", cutoff)
    if not 1 <= real("k", k) <= dimension(cutoff):
        raise ValidationError(
            f"k must lie in [1, {dimension(cutoff)}] (the dimension), got {k}")
    k = whole("k", k)
    if not real("delta_n", delta_n) >= 0:
        raise ValidationError(f"delta_n must be >= 0, got {delta_n}")
    delta_n = whole("delta_n", delta_n)
    ev = eigenvalues(p, cutoff, k).copy()
    ref_cut = max(cutoff - delta_n, 0)
    ev_ref = eigenvalues(p, ref_cut, k)
    deltas = np.abs(ev[:ev_ref.size] - ev_ref)
    return OracleResult(ev, cutoff, deltas, ref_cut)
