"""Error types shared across the package; ``require_int``, the one check
of an integer argument: a count, an index or an element; and
``_require_kneser``, the one check of the parameters of K(n, k).  Only the
per-item tests of hot loops, such as edge endpoints, are written inline."""

# str() of an int stops at 4,300 digits by default; 2**14_000 has 4,215, so
# every reported value, at most a small multiple of C(n, k), still prints
MAX_VALUE_BITS = 14_000


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


def _require_kneser(n: int, k: int, min_k: int = 1) -> None:
    """Raise DomainError unless n >= 2k >= 2 * min_k, both ints, and
    CapacityError if C(n, k) may have more than MAX_VALUE_BITS bits."""
    require_int("n", n, 0)
    require_int("k", k, min_k)
    if n < 2 * k:
        raise DomainError(f"need n >= 2k >= {2 * min_k}, got n={_decimal(n)} k={_decimal(k)}")
    # C(n, k) < 2**n and C(n, k) <= n**k; checked before any binomial
    if min(n, k * n.bit_length()) > MAX_VALUE_BITS:
        raise CapacityError(
            f"C(n,k) may pass 2**{MAX_VALUE_BITS}, past the digits an integer prints "
            f"with (n has {n.bit_length()} bits, k has {k.bit_length()})"
        )


def _decimal(value: int) -> str:
    """``value`` in decimal, or by its bit length when it has more digits
    than the interpreter converts to a string (4,300 by default)."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
