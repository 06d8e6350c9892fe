"""Exception types shared across the package, and the one integer rule."""

import numbers


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class RepresentationError(ValueError):
    """A function cannot be represented in the requested space to tolerance."""


class InsufficientDataError(ValueError):
    """Too few usable modes or samples to perform the requested fit/check."""


class ModeRangeError(ValueError):
    """A mode index outside the converged range was requested."""


# What a command reports as "error: <message>" and exit code 1.
REFUSALS = (InvalidArgumentError, InsufficientDataError, ModeRangeError)


def check_integer(value, name: str) -> None:
    """Refuse, by its name, a size or a seed that is not an integer; numpy
    integers are integers."""
    if not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
