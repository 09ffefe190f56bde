"""Error types shared across the package, and the integer check behind
every count argument."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class CapacityError(ValueError):
    """Instance exceeds a configured size cap (ground set, vertex count, ...)."""


class SearchFailure(RuntimeError):
    """A bounded scan or search ran past its cap without settling the answer."""


def require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an int, at least ``low`` and at
    most ``high`` when given.  A bool is refused although it is an int:
    True is no count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{name} must be <= {high}, got {value}")
