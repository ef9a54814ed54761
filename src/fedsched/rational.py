"""Exact rational values and their text encoding.

All times, demands and processor speeds that enter or leave this package
are arbitrary-precision rationals (``fractions.Fraction``); inside, the
decision layers compare them as exact ints on one tick per task set.  So
comparisons that sit exactly on ceiling-function discontinuities are
decided without rounding.  Files and CLI streams encode rationals with the grammar:
optional sign, digits, optionally "/" followed by digits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational-string such as ``"7"`` or ``"-3/4"``.

    Rejects anything outside the grammar (decimals, whitespace, empty
    strings) and zero denominators.
    """
    if not isinstance(text, str) or _RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational-string: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational-string: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction | int) -> str:
    """Encode a rational as ``"p"`` or ``"p/q"`` in lowest terms."""
    # exact type checks: a Fraction or int is already in lowest terms, and
    # isinstance against the numeric ABCs costs more than the formatting
    if type(value) is not Fraction and type(value) is not int:
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_ticks(ticks: int, scale: int) -> str:
    """``format_rational(Fraction(ticks, scale))`` for ``scale > 0``,
    without building the ``Fraction``: machine output is written from
    the int tick counts of the engines."""
    g = gcd(ticks, scale)
    if g == scale:
        return str(ticks // scale)
    return f"{ticks // g}/{scale // g}"
