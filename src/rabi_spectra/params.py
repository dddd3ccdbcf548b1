"""Physical parameters, validation, units of omega and regime classification."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

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

    Each field is kept as a finite Python float (:func:`real`), so a
    parameter set hashes; omega must be > 0 and each coupling at most
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
            value = real(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
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


def require_weak_squeeze(p: ModelParams) -> ModelParams:
    """p as given once |2*lambda| < omega, where the ladder spacing
    sqrt(omega^2 - 4 lambda^2) is real and the spectrum bounded below, else
    ValidationError: the bcf rule, which hands a tiny lambda over as it is."""
    if abs(2.0 * p.lam) >= p.omega:
        raise ValidationError(
            f"|2*lambda| = {abs(2 * p.lam)} >= omega = {p.omega}: "
            "sqrt(omega^2 - 4 lambda^2) is not real positive")
    return p


def require_no_squeeze(p: ModelParams) -> ModelParams:
    """p with lambda read as 0 once it vanishes next to omega, else
    ValidationError: the heun rule."""
    if not vanishes(p, p.lam):
        raise ValidationError(f"heun route needs lambda = 0, got {p.lam}")
    return replace(p, lam=0.0)


def in_units_of_omega(p: ModelParams, *energies) -> tuple:
    """(p, *energies), each energy divided by p.omega: the parameters and
    energies the routes work at."""
    w = p.omega
    return (ModelParams(1.0, p.delta / w, p.epsilon / w, p.g / w, p.lam / w),
            *(e / w for e in energies))


def real(name: str, value) -> float:
    """A Python or numpy real number or a 0-d real array as a Python float;
    anything else, a str too, raises ValidationError naming ``name``."""
    if isinstance(value, (float, int, numbers.Real)) or isinstance(value, np.ndarray) \
            and value.ndim == 0 and value.dtype.kind in "biuf":
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ValidationError(f"{name} must be a real number in the float range, got {value!r}")


def whole(name: str, value) -> int:
    """A count as an int: whole numbers (20.0 and numpy integers too) pass,
    anything else raises ValidationError.  Called where the count is read."""
    if not (math.isfinite(real(name, value)) and value == int(value)):
        raise ValidationError(f"{name} must be a whole number, got {value}")
    return int(value)


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
