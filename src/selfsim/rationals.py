"""Rational scalar helpers.

The scalar type everywhere in this package is :class:`fractions.Fraction`,
which already guarantees lowest terms and a positive denominator.  This
module adds the ``p/q`` text form used by spec files and reports.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SelfsimError


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer ``"p"``) into a Fraction."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    """Render a Fraction as ``p/q``, or ``p`` when the denominator is 1;
    SelfsimError when a part exceeds ``sys.get_int_max_str_digits()``."""
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise SelfsimError(f"rational too long to print: {exc}") from exc
