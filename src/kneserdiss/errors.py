"""Error types shared across the package, and ``require_int``, the one
check of an integer argument: a count, an index or an element.  Only the
per-item tests of hot loops, such as edge endpoints, are written inline."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class CapacityError(ValueError):
    """Instance exceeds a configured size cap (ground set, vertex count, ...)."""


class SearchFailure(RuntimeError):
    """A bounded scan or search ran past its cap without settling the answer."""


def require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an int in [low, high], where
    no ``high`` means no upper end.  A bool is refused although it is an
    int: True is no count."""
    if isinstance(value, bool):
        raise DomainError(f"{name} {value!r} is a bool, not an int")
    if not isinstance(value, int):
        raise DomainError(f"{name} {value!r} is not an int")
    if value < low or high is not None and value > high:
        top = "inf" if high is None else _decimal(high)
        raise DomainError(f"{name} {_decimal(value)} out of range [{_decimal(low)}, {top}]")


def _decimal(value: int) -> str:
    """``value`` in decimal, or by its bit length when it has more digits
    than the interpreter converts to a string (4,300 by default)."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
