"""Exception hierarchy for rabi_spectra.

Validation errors (bad inputs, regime mismatches) are distinct from numerical
failures so the CLI can map them to exit codes 2 and 3 respectively.
"""


class RabiSpectraError(Exception):
    """Base class for all package errors."""


class ValidationError(RabiSpectraError):
    """Invalid parameters or a method/regime mismatch."""


class NumericalError(RabiSpectraError):
    """A numerical procedure failed (non-convergence, lost precision, ...)."""


# --- parameter validation -------------------------------------------------

class NonPositiveOmegaError(ValidationError):
    pass


class SqueezeTooStrongError(ValidationError):
    """|2*lambda| >= omega: the discrete spectrum is not bounded below."""


class LambdaZeroError(ValidationError):
    pass


class LambdaNotZeroError(ValidationError):
    pass


class DeltaNotZeroError(ValidationError):
    pass


class GZeroError(ValidationError):
    pass


class GNotZeroError(ValidationError):
    pass


class NegativeCutoffError(ValidationError):
    pass


# --- local series ---------------------------------------------------------

class IrregularPointError(ValidationError):
    """Series expansion requested at an irregular singular point."""


class EvalPointOutOfDiskError(ValidationError):
    """Evaluation point outside the series' convergence disk."""


class PoleInBError(ValidationError):
    """Kummer 1F1 with b a nonpositive integer."""


class NonConvergedError(NumericalError):
    pass


class ComplexSingularityError(NumericalError):
    """The reduced equation's singularity location q is imaginary here."""


class DegenerateQError(NumericalError):
    """Singularities collide (q ~ 0); the two-point gluing breaks down."""


class EigensolverError(NumericalError):
    pass
