"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when caller-supplied data violates an operation's contract."""


class PreconditionError(InputError):
    """Raised by a check whose precondition the complex does not meet; the
    message is the reason, which the command line reports as a skip."""
