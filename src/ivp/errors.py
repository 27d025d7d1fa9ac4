"""Exception types shared across the library."""


class IvpError(Exception):
    """Base class for all library-specific errors."""


class PreconditionError(IvpError, ValueError):
    """An argument violated a documented precondition."""


class ResourceLimitError(IvpError):
    """An exact computation would exceed a configured enumeration cap.

    Raised instead of returning a possibly-wrong answer.  The message
    carries the cap that was hit and the size that was requested.
    """

    def __init__(self, message, requested=None, cap=None):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


class InvariantError(IvpError):
    """An internal invariant failed: a bug, reported instead of a wrong
    answer."""

