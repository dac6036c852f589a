"""Exact rational parsing and formatting helpers.

Floats are rejected deliberately: every comparison in this toolkit must be
exact, and a float like 0.3 is not the rational 3/10.  Decimal strings are
converted exactly instead.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# Most digits, and largest exponent size, a rational token may carry: the
# exact value of '1e-3000000' alone takes seconds to build.
RATIONAL_DIGITS_LIMIT = 1000


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or numeric string to an exact Fraction."""
    if isinstance(value, bool):
        raise InputError(f"expected a rational number, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"refusing float {value!r}: pass an exact rational such as "
            f"Fraction(3, 10) or the string '0.3'"
        )
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"expected a rational number, got {type(value).__name__}")


def as_ratio(value, what: str) -> Fraction:
    """:func:`as_fraction`, refusing values outside [0, 1] as ``what``."""
    v = as_fraction(value)
    if not 0 <= v <= 1:
        raise InputError(f"{what} must lie in [0, 1], got {v}")
    return v


def parse_rational(text: str) -> Fraction:
    """Parse '3', '-2/7', '0.25' or '5e-3' into an exact Fraction; tokens
    past ``RATIONAL_DIGITS_LIMIT`` are refused before any big-number work."""
    text = text.strip()
    _, marker, exponent = text.lower().partition("e")
    try:
        scale = abs(int(exponent)) if marker else 0
    except ValueError:
        scale = 0  # malformed; Fraction reports it below
    if max(scale, sum(c.isdigit() for c in text)) > RATIONAL_DIGITS_LIMIT:
        raise InputError(
            f"rational {text[:40]!r} is too large: it may carry at most "
            f"{RATIONAL_DIGITS_LIMIT} digits and an exponent of that size"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'p/q', or just 'p' when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
