"""Exact rational plumbing shared by the whole package.

All probabilities and spectrum values are `fractions.Fraction`.  Decimal
literals are parsed exactly ("0.3" means 3/10), so axiom checks can use
`==` instead of a tolerance.  Binary floats are rejected at the boundary:
`Fraction(0.3)` is not 3/10 and would silently corrupt every identity.
"""

from __future__ import annotations

from fractions import Fraction


def frac(value) -> Fraction:
    """Coerce int / str / Fraction to an exact Fraction.

    Accepts "7", "n/d" and decimal strings.  Floats are refused: pass the
    literal as a string if decimal notation is what you mean.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a string or Fraction to stay exact")
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def fmt(q: Fraction) -> str:
    """Canonical text form: bare integer or 'n/d'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fmt_float(x: float) -> str:
    """Locale-independent rendering with 9 decimal digits."""
    return f"{x:.9f}"
