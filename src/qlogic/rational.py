"""Exact rational plumbing shared by the whole package.

All probabilities and spectrum values are `fractions.Fraction`.  Decimal
literals are parsed exactly ("0.3" means 3/10), so axiom checks can use
`==` instead of a tolerance.  Binary floats are rejected at the boundary:
`Fraction(0.3)` is not 3/10 and would silently corrupt every identity.

Every rational literal, in a model file or passed to :func:`frac`, is read
by :func:`read_literal` against one grammar, the one `Fraction(str)` uses
from Python 3.12 on: an optional sign, then an integer `n`, a fraction
`n/d` (spaces allowed around `/`) or a decimal with optional fractional
part and exponent (`.5`, `5.`, `1.5E-2`); digit groups may be separated by
single underscores (`1_000`), and any Unicode decimal digit counts.  The
grammar does not depend on the Python version, as `Fraction(str)` does.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import SizeOutOfRange


#: caps on rational literals, so that neither parsing nor the integers the
#: validators build from them can grow without bound ("1e-1000000" alone
#: would take a third of a second to read)
MAX_LITERAL_CHARS = 256
MAX_LITERAL_EXPONENT = 256

#: cap on the bit length of the common denominator of one table: the
#: literal caps bound each cell, but the lcm of n^2 distinct denominators
#: would grow with the cell count (sampled stock tables stay under 210 bits)
MAX_DENOMINATOR_BITS = 1 << 16


def check_literal(text: str) -> str:
    """Return `text` stripped, or raise ValueError when it is longer than
    MAX_LITERAL_CHARS or its decimal exponent exceeds MAX_LITERAL_EXPONENT
    in magnitude.  Whether it is a literal at all is left to
    :func:`read_literal`."""
    text = text.strip()
    if len(text) > MAX_LITERAL_CHARS:
        raise ValueError(f"rational literal has {len(text)} characters, "
                         f"more than {MAX_LITERAL_CHARS}")
    _, e, exponent = text.lower().partition("e")
    if e:
        try:
            magnitude = abs(int(exponent))
        except ValueError:  # not a literal; read_literal will say so
            magnitude = 0
        if magnitude > MAX_LITERAL_EXPONENT:
            raise ValueError(f"rational literal exponent {exponent} exceeds "
                             f"{MAX_LITERAL_EXPONENT} in magnitude")
    return text


class NotALiteral(ValueError):
    """Text within the caps of :func:`check_literal` that is no literal of
    the grammar, or names no rational (a zero denominator)."""


_DIGITS = r"(?:\d+(?:_\d+)*)"
_LITERAL = re.compile(rf"""
    (?P<sign>[-+]?)
    (?=\d|\.\d)                 # a digit first, or right after the point
    (?P<num>{_DIGITS}?)
    (?:
        \s*/\s*(?P<den>{_DIGITS})
    |
        (?:\.(?P<decimal>{_DIGITS}?))?
        (?:E(?P<exp>[-+]?{_DIGITS}))?
    )
""", re.VERBOSE | re.IGNORECASE)


def read_literal(text: str) -> Fraction:
    """The exact value of one rational literal (see the module docstring).

    Raises ValueError with :func:`check_literal`'s message when `text` is
    over its caps, and :class:`NotALiteral` when it is no literal.  The
    length cap is checked first; a plain `n` or `n/d` of decimal digits is
    then read directly, and the exponent cap is checked only for a token
    that has an exponent or does not match the grammar at all.
    """
    token = text.strip()
    if len(token) > MAX_LITERAL_CHARS:
        check_literal(token)  # raises: over the length cap
    num, slash, den = token.partition("/")
    if num.isdecimal() and (den.isdecimal() or not slash):
        den = int(den) if slash else None
        if den != 0:  # a zero denominator is refused below
            return Fraction(int(num), den)
    match = _LITERAL.fullmatch(token)
    if match is None or match["exp"]:
        check_literal(token)
    if match is None:
        raise NotALiteral(f"not a rational literal: {text!r}")
    sign, num, den, decimal, exp = match.group("sign", "num", "den",
                                               "decimal", "exp")
    num = int(num or "0")
    if den is not None:
        den = int(den)
        if den == 0:
            raise NotALiteral(f"not a rational literal: {text!r}")
    else:
        den = 1
        if decimal:
            decimal = decimal.replace("_", "")
            scale = 10 ** len(decimal)
            num, den = num * scale + int(decimal), scale
        if exp:
            exp = int(exp)
            if exp >= 0:
                num *= 10 ** exp
            else:
                den *= 10 ** -exp
    if sign == "-":
        num = -num
    return Fraction(num, den)


def frac(value) -> Fraction:
    """Coerce int / str / Fraction to an exact Fraction.

    Strings are read by :func:`read_literal`.  Floats and bools are
    refused: pass the literal as a string if decimal notation is what you
    mean.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"refusing bool {value!r}: pass 0 or 1")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return read_literal(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a string or Fraction to stay exact")
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def bounded_lcm(dens) -> int:
    """The lcm of the distinct positive integers `dens`; raises
    SizeOutOfRange as soon as it passes MAX_DENOMINATOR_BITS bits, so the
    work spent on a table it refuses is bounded too."""
    lcm = 1
    for d in dens:
        lcm = math.lcm(lcm, d)
        if lcm.bit_length() > MAX_DENOMINATOR_BITS:
            raise SizeOutOfRange(f"the common denominator of a table exceeds "
                                 f"{MAX_DENOMINATOR_BITS} bits")
    return lcm


def common_denominator(values) -> tuple[tuple, int]:
    """The rationals in `values` as integer numerators over their least
    common denominator, and that denominator; None (a missing entry) stays
    None.  gcd(den, *numerators) is 1, so equal sequences give equal
    tables, and sums, equalities and orderings carry over to the
    numerators.
    """
    ratios = [None if v is None else v.as_integer_ratio() for v in values]
    den = bounded_lcm({r[1] for r in ratios if r is not None})
    return tuple([None if r is None else r[0] * (den // r[1])
                  for r in ratios]), den


def reduced(num, den: int) -> tuple[tuple[int, ...], int]:
    """The integer table num / den in lowest terms."""
    g = math.gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple([v // g for v in num]), den // g


def fmt(q: Fraction) -> str:
    """Canonical text form: bare integer or 'n/d'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fmt_float(x: float) -> str:
    """Locale-independent rendering with 9 decimal digits."""
    return f"{x:.9f}"
