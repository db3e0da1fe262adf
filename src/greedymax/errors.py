"""Exception types shared across the package, and the one check of k."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class LimitError(RuntimeError):
    """Raised when an exhaustive routine is asked to exceed its size guard."""


def check_k(k: int) -> None:
    """Raise InputError unless k >= 1."""
    if k < 1:
        raise InputError("k must be a positive integer")
