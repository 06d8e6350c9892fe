"""Exception types shared across the package."""


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
