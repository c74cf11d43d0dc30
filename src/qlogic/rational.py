"""Exact rational plumbing shared by the whole package.

All probabilities and spectrum values are `fractions.Fraction`.  Decimal
literals are parsed exactly ("0.3" means 3/10), so axiom checks can use
`==` instead of a tolerance.  Binary floats are rejected at the boundary:
`Fraction(0.3)` is not 3/10 and would silently corrupt every identity.
"""

from __future__ import annotations

import math
from fractions import Fraction


#: caps on rational literals, so that neither parsing nor the integers the
#: validators build from them can grow without bound ("1e-1000000" alone
#: would take a third of a second to read)
MAX_LITERAL_CHARS = 256
MAX_LITERAL_EXPONENT = 256


def check_literal(text: str) -> str:
    """Return `text` stripped, or raise ValueError when it is longer than
    MAX_LITERAL_CHARS or its decimal exponent exceeds MAX_LITERAL_EXPONENT
    in magnitude.  Whether it is a literal at all is left to Fraction."""
    text = text.strip()
    if len(text) > MAX_LITERAL_CHARS:
        raise ValueError(f"rational literal has {len(text)} characters, "
                         f"more than {MAX_LITERAL_CHARS}")
    _, e, exponent = text.lower().partition("e")
    if e:
        try:
            magnitude = abs(int(exponent))
        except ValueError:  # not a literal; Fraction will say so
            magnitude = 0
        if magnitude > MAX_LITERAL_EXPONENT:
            raise ValueError(f"rational literal exponent {exponent} exceeds "
                             f"{MAX_LITERAL_EXPONENT} in magnitude")
    return text


def frac(value) -> Fraction:
    """Coerce int / str / Fraction to an exact Fraction.

    Accepts "7", "n/d" and decimal strings, within the caps of
    :func:`check_literal`.  Floats and bools are refused: pass the literal
    as a string if decimal notation is what you mean.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"refusing bool {value!r}: pass 0 or 1")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = check_literal(value)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a string or Fraction to stay exact")
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def common_denominator(values) -> tuple[tuple, int]:
    """The rationals in `values` as integer numerators over their least
    common denominator, and that denominator; None (a missing entry) stays
    None.  gcd(den, *numerators) is 1, so equal sequences give equal
    tables, and sums, equalities and orderings carry over to the
    numerators.
    """
    den = math.lcm(*(v.denominator for v in values if v is not None))
    return tuple(None if v is None else v.numerator * (den // v.denominator)
                 for v in values), den


def reduced(num, den: int) -> tuple[tuple[int, ...], int]:
    """The integer table num / den in lowest terms."""
    g = math.gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(v // g for v in num), den // g


def fmt(q: Fraction) -> str:
    """Canonical text form: bare integer or 'n/d'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fmt_float(x: float) -> str:
    """Locale-independent rendering with 9 decimal digits."""
    return f"{x:.9f}"
