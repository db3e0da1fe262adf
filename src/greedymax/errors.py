"""Exception types shared across the package, the one check of k, and the
one rule of every size guard, whose message names the value that failed."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class LimitError(RuntimeError):
    """Raised when an instance exceeds a size guard (``check_limit``)."""


def check_k(k: int) -> None:
    """Raise InputError unless k >= 1."""
    if k < 1:
        raise InputError("k must be a positive integer")


def check_limit(what: str, value: int, limit: int) -> None:
    """Raise LimitError when value exceeds limit."""
    if value > limit:
        raise LimitError(f"{what} {value} exceeds guard {limit}")
