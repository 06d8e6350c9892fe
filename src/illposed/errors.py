"""Exception types shared across the package, the one integer rule, and the
one base of its immutable values."""

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


class Frozen:
    """Base of the package's immutable values: __init__ sets each field once,
    through object.__setattr__, and assigning or deleting one afterwards
    raises AttributeError.  A subclass lists its fields in __slots__, or
    keeps a __dict__ for its cached properties, which write to it directly."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
