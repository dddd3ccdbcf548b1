"""Exception hierarchy for rabi_spectra.

Two kinds: a ValidationError says the input broke a rule, a NumericalError
that a numerical procedure failed; the message names the rule or the
failure.  The CLI maps them to exit codes 2 and 3.
"""


class RabiSpectraError(Exception):
    """Base class for all package errors."""


class ValidationError(RabiSpectraError):
    """Invalid parameters or a method/regime mismatch."""


class NumericalError(RabiSpectraError):
    """A numerical procedure failed (non-convergence, lost precision, ...)."""
