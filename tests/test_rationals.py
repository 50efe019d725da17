from fractions import Fraction

import pytest

from selfsim.rationals import format_rational, parse_rational


def test_parse_fraction_and_integer():
    assert parse_rational("3/10") == Fraction(3, 10)
    assert parse_rational("-1/5") == Fraction(-1, 5)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("0") == Fraction(0)


def test_parse_normalizes():
    assert parse_rational("2/10") == Fraction(1, 5)


def test_parse_rejects_garbage():
    for bad in ("", "a/b", "1/0", "1.5", "1/2/3", "/3"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(bad)


def test_format_round_trip():
    for value in (Fraction(3, 10), Fraction(-1, 5), Fraction(4), Fraction(0)):
        assert parse_rational(format_rational(value)) == value


def test_format_integers_without_slash():
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-2)) == "-2"
