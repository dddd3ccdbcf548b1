"""Physical parameters, validation, units of omega, regime classification
and the bounded memo of results per parameter set."""

from __future__ import annotations

import enum
import functools
import inspect
import math
from dataclasses import dataclass, replace

from .errors import ValidationError
from .rootscan import SpectrumResult

#: |coupling| / omega up to which a coupling counts as zero: the one rule
#: behind the regime routing, every route's own check and the closed form
#: that the determinant routes return where delta vanishes
VANISHING_TOL = 1e-10
#: largest |coupling| / omega: the square of each ratio stays finite
MAX_RATIO = 1e150


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the two-level + squeezed-mode Hamiltonian.

    omega    mode frequency (> 0)
    delta    half level-splitting
    epsilon  spontaneous-transition bias
    g        linear coupling
    lam      squeezing (two-photon) coupling

    Every field must be finite, omega > 0 and each coupling at most
    MAX_RATIO omega, else ValidationError.  A real discrete spectrum
    additionally needs |2*lam| < omega, which :func:`validate_params`
    enforces; direct construction is allowed so diagnostics (e.g. the
    divergence guard of the Fock oracle) can probe the forbidden region.
    """

    omega: float
    delta: float
    epsilon: float
    g: float
    lam: float

    def __post_init__(self):
        for name in ("omega", "delta", "epsilon", "g", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.omega > 0:
            raise ValidationError(f"omega must be > 0, got {self.omega}")
        for name in ("delta", "epsilon", "g", "lam"):
            if abs(getattr(self, name)) > MAX_RATIO * self.omega:
                raise ValidationError(f"|{name}| / omega must be at most {MAX_RATIO:g}, "
                                      f"got {getattr(self, name)} / {self.omega}")

    def mirrored(self) -> "ModelParams":
        """Parameters of the other spin sector: (eps, g, lam) -> -(eps, g, lam)."""
        return ModelParams(self.omega, self.delta, -self.epsilon, -self.g, -self.lam)


def validate_params(omega: float, delta: float, epsilon: float,
                    g: float, lam: float) -> ModelParams:
    """Build :class:`ModelParams` and enforce |2*lambda| < omega, each rule
    raising ValidationError."""
    p = ModelParams(omega, delta, epsilon, g, lam)
    require_weak_squeeze(p)
    return p


def require_weak_squeeze(p: ModelParams) -> None:
    """ValidationError unless |2*lambda| < omega, where the ladder spacing
    sqrt(omega^2 - 4 lambda^2) is real and the spectrum bounded below."""
    if abs(2.0 * p.lam) >= p.omega:
        raise ValidationError(
            f"|2*lambda| = {abs(2 * p.lam)} >= omega = {p.omega}: "
            "sqrt(omega^2 - 4 lambda^2) is not real positive")


def in_units_of_omega(p: ModelParams, *energies) -> tuple:
    """(p, *energies), each energy divided by p.omega: the parameters and
    energies the routes work at.  :func:`times_omega` takes the answer back."""
    w = p.omega
    return (ModelParams(1.0, p.delta / w, p.epsilon / w, p.g / w, p.lam / w),
            *(e / w for e in energies))


def times_omega(res: SpectrumResult, omega: float) -> SpectrumResult:
    """A spectrum in units of omega in the caller's units: its energies,
    report and ladder multiplied by ``omega``."""
    rep, ladder = res.report, res.metadata["ladder"]
    return replace(res, energies=res.energies * omega, report=replace(
        rep, roots=rep.roots * omega, suspects=tuple(s * omega for s in rep.suspects),
        excluded=tuple(replace(iv, lo=iv.lo * omega, hi=iv.hi * omega)
                       for iv in rep.excluded),
        brackets=tuple((a * omega, b * omega) for a, b in rep.brackets)),
        metadata={**res.metadata, "ladder": [(e * omega, s, m) for e, s, m in ladder]})


def whole(name: str, value) -> int:
    """A count as an int: whole numbers (20.0 and numpy integers too) pass,
    anything else raises ValidationError.  Called where the count is read."""
    if not (math.isfinite(value) and value == int(value)):
        raise ValidationError(f"{name} must be a whole number, got {value}")
    return int(value)


def memoized(maxsize: int):
    """Decorator keeping the last ``maxsize`` results of a pure function of
    hashable arguments, such as a parameter set and an energy.

    Entries are keyed on the arguments bound to the signature, defaults
    filled in, so ``eigenvalues(p, c)`` and ``eigenvalues(p, cutoff=c,
    k=None)`` share one (``functools.lru_cache`` keys them apart).  Callers share each result,
    so the function must return immutable values.  Unhashable arguments
    bypass the cache.
    """
    def wrap(fn):
        signature = inspect.signature(fn)
        cached = functools.lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            key = signature.bind(*args, **kwargs)
            key.apply_defaults()
            try:
                hash(key.args)
            except TypeError:
                return fn(*key.args)
            return cached(*key.args)
        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call
    return wrap


class RegimeTag(enum.Enum):
    UNCOUPLED = "uncoupled"      # delta = 0
    ASYMMETRIC = "asymmetric"    # lam = 0
    TWO_PHOTON = "two_photon"    # g = 0
    GENERAL = "general"


def vanishes(p: ModelParams, coupling: float) -> bool:
    """Whether ``coupling`` counts as zero next to p.omega (VANISHING_TOL)."""
    return abs(coupling) <= VANISHING_TOL * p.omega


def classify_regime(p: ModelParams) -> RegimeTag:
    """Deterministic routing by which couplings vanish."""
    if vanishes(p, p.delta):
        return RegimeTag.UNCOUPLED
    if vanishes(p, p.lam):
        return RegimeTag.ASYMMETRIC
    if vanishes(p, p.g):
        return RegimeTag.TWO_PHOTON
    return RegimeTag.GENERAL
