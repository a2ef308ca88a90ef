"""Exception types shared across the toolkit, and the one rule that refuses a bad argument.

An argument is an integer (NumPy's too) in a ``range``, or a real number
between two bounds; anything else raises ``ValueError`` with one message
form, ``"{name} must be {what}, got {value!r}"``.
"""

import numbers
import operator

__all__ = ["PgmFormatError", "DimensionMismatchError", "DegenerateInputError"]


class PgmFormatError(ValueError):
    """A byte stream is not a decodable PGM image."""


class DimensionMismatchError(ValueError):
    """An operation needed images of identical dimensions but got different ones."""


class DegenerateInputError(ValueError):
    """Inputs are structurally valid but the requested result is undefined."""


def require_int(name: str, value, allowed: range, what: str) -> int:
    """``value`` as an ``int``, if it is an integer (NumPy's too) in ``allowed``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or number not in allowed:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return number


def require_real(name: str, value, least: float, most: float, what: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number in [least, most], so never NaN.

    It is compared as a ``float``: NumPy would cast a bound to a float32 value's
    type, where -sys.float_info.max overflows to -inf.  An integer past every
    float is refused.
    """
    try:
        ok = isinstance(value, numbers.Real) and least <= float(value) <= most
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")
