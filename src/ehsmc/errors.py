"""The exception type for bad input."""


class InputError(ValueError):
    """A system, formula, name, interval or bound supplied from outside
    is invalid. The CLI reports it as a usage error (exit status 2). It
    is a ValueError, so handlers written for ValueError still catch it;
    programming errors are never raised as InputError."""
