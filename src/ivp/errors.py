"""Exception types shared across the library, and the one check of a
resource against its configured cap."""


class IvpError(Exception):
    """Base class for all library-specific errors."""


class PreconditionError(IvpError, ValueError):
    """An argument violated a documented precondition."""


class ResourceLimitError(IvpError):
    """An exact computation would exceed a configured cap.

    Raised by ``charge`` only, instead of returning a possibly-wrong
    answer.  The message names the amount asked, the Config field that
    caps it and the cap's value; ``requested`` and ``cap`` hold the two
    numbers.
    """

    def __init__(self, message, requested=None, cap=None):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


def charge(config, field: str, amount: int, what: str) -> None:
    """Refuse `amount` of `what` when it passes the Config cap `field`.

    Every cap admits an amount equal to it.  A passing call formats no
    string, so hot loops may charge each step.  An amount of over 2000 bits
    may pass the printing limit on integers and is written by its bit length.
    """
    cap = getattr(config, field)
    if amount > cap:
        bits = amount.bit_length()
        shown = f"a {bits}-bit number" if bits > 2000 else amount
        raise ResourceLimitError(
            f"{shown} {what}, over the {field.replace('_', ' ')} "
            f"({field} = {cap})", amount, cap)


class InvariantError(IvpError):
    """An internal invariant failed: a bug, reported instead of a wrong
    answer."""
