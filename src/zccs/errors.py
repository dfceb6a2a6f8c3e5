"""Exception types raised across the package."""


class ZccsError(Exception):
    """Base class for all errors raised by this package."""


class DeltaMismatch(ZccsError):
    """Cyclotomic integers over different root orders were combined."""


class InvalidModulus(ZccsError):
    """The sequence alphabet modulus q must be an even integer >= 2."""


class ParseError(ZccsError):
    """Malformed Boolean-function text, or a variable index out of range."""


class ArityError(ZccsError):
    """An argument vector has the wrong length for the function."""


class NotSecondOrder(ZccsError):
    """A function of degree > 2 was used where a graph is required."""


class NotAPath(ZccsError):
    """Deleting the given vertices does not leave a weight-q/2 path."""


class InvalidGamma(ZccsError):
    """The chosen reference vertex is not an end vertex of the path."""


class TruncateError(ZccsError):
    """Requested truncation length is empty or exceeds the sequence."""


class ShapeError(ZccsError):
    """Sequences or codes disagree in length, count, or root order."""


class InvalidParams(ZccsError):
    """Construction parameters violate their constraints (e.g. p not prime)."""


class InvalidZ(ZccsError):
    """A zero-correlation-zone width outside [1, N] was requested."""


class NotAZccs(ZccsError):
    """An operation required a verified ZCCS but the check failed."""


class FileFormatError(ZccsError):
    """A code-set file is malformed or self-inconsistent."""
