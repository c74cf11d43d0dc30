"""`read_literal` against a reference: the reader as it was when every
token went through the grammar's regex, kept here verbatim.  The two must
agree on every input, in value and type or in exception class and message.
`read_literal` leaves the value of a token outside its fast paths to
`Fraction(str)`, so this decoder is an independent check of that route.

Unlike the comparison with `Fraction(str)` in test_rational.py, this one
runs on every supported Python.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic.rational import (
    MAX_LITERAL_CHARS,
    MAX_LITERAL_EXPONENT,
    NotALiteral,
    read_literal,
)
from test_rational import literals


def reference_check_literal(text: str) -> str:
    text = text.strip()
    if len(text) > MAX_LITERAL_CHARS:
        raise ValueError(f"rational literal has {len(text)} characters, "
                         f"more than {MAX_LITERAL_CHARS}")
    _, e, exponent = text.lower().partition("e")
    if e:
        try:
            magnitude = abs(int(exponent))
        except ValueError:
            magnitude = 0
        if magnitude > MAX_LITERAL_EXPONENT:
            raise ValueError(f"rational literal exponent {exponent} exceeds "
                             f"{MAX_LITERAL_EXPONENT} in magnitude")
    return text


_DIGITS = r"(?:\d+(?:_\d+)*)"
_LITERAL = re.compile(rf"""
    (?P<sign>[-+]?)
    (?=\d|\.\d)
    (?P<num>{_DIGITS}?)
    (?:
        \s*/\s*(?P<den>{_DIGITS})
    |
        (?:\.(?P<decimal>{_DIGITS}?))?
        (?:E(?P<exp>[-+]?{_DIGITS}))?
    )
""", re.VERBOSE | re.IGNORECASE)


def reference_read_literal(text: str) -> Fraction:
    match = _LITERAL.fullmatch(reference_check_literal(text))
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


def outcome(read, text: str):
    try:
        value = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return (type(value), type(value.numerator), type(value.denominator),
            value)


def short_id(value):
    """Test ids for tokens too long to read; pytest's own for the rest."""
    if isinstance(value, str) and len(value) > 20:
        return f"{ascii(value[:3])[1:-1]}...{len(value)}-chars"
    return None


def assert_agrees(text: str) -> None:
    assert outcome(read_literal, text) == outcome(reference_read_literal, text)


EDGE_CASES = [
    "1" * 256, "1" * 257, "1/" + "1" * 255, "1/" + "1" * 254, " " + "1" * 256,
    "1e256", "1e257", "1e-257", "1E+0256", "x e 999", "x e 9", "e", "1e",
    "5/0", "0/0", "0/00", "-5/0", "0", "00", "007/008", "10/4", "-3/6",
    "１２/３", "٣/٤", "٣", "²", "²/3", "5/", "/5", "/", "", " ", "\t7/8\n",
    "1/2/3", "1//2", "1 /2", "1/ 2", "1_0/2", "1/2_0", "+1/2", "1.5", ".5",
    "-.5e-3", "+.0e0", "1_0e1_0", "1e+0_1", "5/0_0", "1_000.000_1",
    "3\u2003/\u20034", "-0", "+0/5", "٣.٥e١", "1.5E-2",
    "-1", "+1", "-3/4", "+3/4", "-1.5", "+0.25", "-0.0", "-١/٣", "-1/0",
    "-", "+", "- 1", "--1", "-+1", "+-1", "-1/-2", "-1/+2", "-/2", "-.",
]


@pytest.mark.parametrize("text", EDGE_CASES, ids=short_id)
def test_edge_cases(text):
    assert_agrees(text)


@pytest.mark.parametrize("text,expected", [
    ("1" * 256, Fraction(int("1" * 256))),
    ("1" * 257, ValueError),
    ("1/" + "1" * 255, ValueError),
    ("1e256", Fraction(10**256)),
    ("1e257", ValueError),
    ("x e 999", ValueError),
    ("x e 9", NotALiteral),
    ("5/0", NotALiteral),
    ("0/0", NotALiteral),
    ("１２/３", Fraction(4)),
    ("٣/٤", Fraction(3, 4)),
    ("²", NotALiteral),
    ("", NotALiteral),
    ("-.5e-3", Fraction(-1, 2000)),
    ("1_000.000_1", Fraction(10000001, 10000)),
    ("٣.٥e١", Fraction(35)),
    ("3\u2003/\u20034", Fraction(3, 4)),
    ("5/0_0", NotALiteral),
    ("-1", Fraction(-1)),
    ("+7", Fraction(7)),
    ("-3/6", Fraction(-1, 2)),
    ("-0.12", Fraction(-3, 25)),
    ("+2.5", Fraction(5, 2)),
    ("-0", Fraction(0)),
    ("-", NotALiteral),
    ("- 1", NotALiteral),
    ("--1", NotALiteral),
    ("-1/0", NotALiteral),
], ids=short_id)
def test_edge_cases_read_as_documented(text, expected):
    """The caps come before the grammar: `x e 999` is over the exponent cap
    though it is no literal."""
    if isinstance(expected, Fraction):
        assert read_literal(text) == expected
        return
    with pytest.raises(ValueError) as exc:
        read_literal(text)
    assert type(exc.value) is expected


@settings(deadline=None, max_examples=500)
@given(st.one_of(
    literals,
    st.from_regex(r"\A\s*\d{1,12}(/\d{1,12})?\s*\Z"),
    st.text(st.sampled_from("0123456789/ e²١٣"), max_size=8),
    st.text(max_size=8),
))
def test_agrees_with_the_reference(text):
    assert_agrees(text)
