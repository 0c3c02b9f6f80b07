"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when caller-supplied data violates an operation's contract."""

