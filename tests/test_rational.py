import random
from fractions import Fraction

import pytest

from fedsched.rational import _ticks_texts, format_rational, format_ticks, parse_rational


def test_parse_integer():
    assert parse_rational("7") == Fraction(7)


def test_parse_fraction():
    assert parse_rational("4999/1000") == Fraction(4999, 1000)


def test_parse_signs():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+5/10") == Fraction(1, 2)


def test_parse_reduces_to_lowest_terms():
    assert parse_rational("4/8") == Fraction(1, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "1.5", " 1", "1 ", "a", "1/", "/2", "1//2", "1/-2", "1e3", "nan", "1\n", "3/4\n"],
)
def test_rejects_non_rational_strings(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_rejects_non_strings():
    with pytest.raises(ValueError):
        parse_rational(3)  # type: ignore[arg-type]


def test_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_integer():
    assert format_rational(Fraction(10)) == "10"
    assert format_rational(7) == "7"


def test_format_subclasses_and_other_rationals_as_before():
    class Loud(int):
        def __str__(self):
            return "loud"

    class Tagged(Fraction):
        def __str__(self):
            return "tagged"

    assert format_rational(True) == "1"
    assert format_rational(False) == "0"
    assert format_rational(Loud(7)) == "7"
    assert format_rational(Tagged(6, 4)) == "3/2"
    assert format_rational(Tagged(-4, 2)) == "-2"
    assert format_rational(0.75) == "3/4"


def test_format_lowest_terms():
    assert format_rational(Fraction(10, 4)) == "5/2"
    assert format_rational(Fraction(-2, 6)) == "-1/3"


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        value = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert parse_rational(format_rational(value)) == value


def test_a_column_of_ticks_reads_as_each_tick_alone():
    values = range(-50, 51)
    for scale in range(1, 13):
        assert _ticks_texts(values, scale) == [format_ticks(v, scale) for v in values], scale
