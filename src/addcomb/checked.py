"""Range-enforced integer arithmetic.

Python integers never wrap, so "overflow" here means leaving the declared
working range: set elements live in signed 64-bit, energy accumulators and
curve intermediates in signed 128-bit.  Violations raise loudly instead of
silently producing numbers the rest of the toolchain is not specified for.
"""

from __future__ import annotations

from .errors import IntegerOverflowError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
INT128_MIN = -(1 << 127)
INT128_MAX = (1 << 127) - 1


def check_int(value: object, context: str = "value") -> int:
    """value itself when it is an int; a bool or any other type (a float
    from JSON, say) is a ValueError, never truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{context} {value!r} is not an integer")
    return value


def check_int64(value: int, context: str = "value") -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise IntegerOverflowError(f"{context} {value} outside signed 64-bit range")
    return value


def check_int128(value: int, context: str = "value") -> int:
    if value < INT128_MIN or value > INT128_MAX:
        raise IntegerOverflowError(f"{context} {value} outside signed 128-bit range")
    return value


def checked_add(a: int, b: int) -> int:
    s = a + b
    if s < INT64_MIN or s > INT64_MAX:
        raise IntegerOverflowError(f"{a} + {b} overflows signed 64-bit")
    return s


def checked_sub(a: int, b: int) -> int:
    s = a - b
    if s < INT64_MIN or s > INT64_MAX:
        raise IntegerOverflowError(f"{a} - {b} overflows signed 64-bit")
    return s


def checked_mul(a: int, b: int) -> int:
    p = a * b
    if p < INT64_MIN or p > INT64_MAX:
        raise IntegerOverflowError(f"{a} * {b} overflows signed 64-bit")
    return p


def checked_neg(a: int) -> int:
    if -a > INT64_MAX:
        raise IntegerOverflowError(f"-({a}) overflows signed 64-bit")
    return -a
