"""Rational scalar helpers.

The scalar type everywhere in this package is :class:`fractions.Fraction`,
which already guarantees lowest terms and a positive denominator.  This
module adds the ``p/q`` text form used by spec files and reports, and
integer-root enclosures used by the dimension solver.
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


def iroot(n: int, q: int) -> int:
    """Floor of the q-th root of a nonnegative integer, by Newton iteration."""
    if n < 0 or q < 1:
        raise ValueError("iroot needs n >= 0 and q >= 1")
    if n in (0, 1) or q == 1:
        return n
    # initial guess from bit length, then monotone Newton descent
    x = 1 << ((n.bit_length() + q - 1) // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    while x ** q > n:
        x -= 1
    return x


def qth_root_bounds(x: Fraction, q: int, scale: int) -> tuple[Fraction, Fraction]:
    """Outward rational bounds on x**(1/q) with denominator ``scale``.

    Requires x >= 0.  The returned pair (lo, hi) satisfies
    lo <= x**(1/q) <= hi and hi - lo <= 2/scale.
    """
    if x < 0:
        raise ValueError("qth_root_bounds needs x >= 0")
    num = x.numerator * scale ** q
    den = x.denominator
    lo = iroot(num // den, q)
    hi_target = -((-num) // den)  # ceil(num/den)
    hi = iroot(hi_target, q)
    if hi ** q < hi_target:
        hi += 1
    return Fraction(lo, scale), Fraction(hi, scale)
