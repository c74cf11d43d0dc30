"""Rational literals: one grammar on every supported Python, read once per
model file; and the Fractions of table-built `values`."""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import conditional_from_smap, random_smap
from qlogic.errors import ParseError
from qlogic.modelfile import parse_model_text, realize_model
from qlogic.rational import NotALiteral, check_literal, frac, read_literal

#: token -> value, or ParseError where the token is no literal; the first
#: two read differently under `Fraction(str)` on Python 3.10 and 3.11
TOKENS = {
    "1_0/20": F(1, 2),
    "1 / 2": F(1, 2),
    ".5": F(1, 2),
    "5.": F(5),
    "+3": F(3),
    "-0": F(0),
    "1e1_0": F(10**10),
    "1.5E-2": F(3, 200),
    "٣/٤": F(3, 4),  # Arabic-Indic digits
    "0x10": ParseError,
    "1/0": ParseError,
    "nan": ParseError,
}

HEADER = "[logic]\nelements a a' b b'\ncomplement a a'\ncomplement b b'\n"


def state_text(value: str) -> str:
    return f"{HEADER}[state m]\na = {value}\n"


@pytest.mark.parametrize("token", TOKENS)
def test_literal_grammar(token):
    expected = TOKENS[token]
    if expected is ParseError:
        with pytest.raises(ParseError, match=f"line 6: bad number {token!r}"):
            parse_model_text(state_text(token))
        with pytest.raises(NotALiteral,
                           match=f"not a rational literal: {token!r}"):
            frac(token)
        return
    assert read_literal(token) == frac(token) == expected
    assert parse_model_text(state_text(token)).states["m"] == {"a": expected}


literals = st.one_of(
    st.text(st.sampled_from("0123456789_./eE+- \t٣x"), max_size=12),
    st.from_regex(r"\A[-+]?\d*(\.\d*)?([eE][-+]?\d{1,3})?\Z"),
    st.from_regex(r"\A[-+]?\d+(_\d+)* ?/ ?\d+(_\d+)*\Z"),
)


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="Fraction(str) reads this grammar from 3.12 on")
@settings(deadline=None, max_examples=300)
@given(literals)
def test_read_literal_matches_fraction(text):
    """Within the caps of `check_literal`, which Fraction does not have."""
    try:
        check_literal(text)
    except ValueError:
        with pytest.raises(ValueError):
            read_literal(text)
        return
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            read_literal(text)
    else:
        assert read_literal(text) == expected


@settings(deadline=None, max_examples=200)
@given(literals)
def test_frac_agrees_with_the_parser(text):
    try:
        value = frac(text)
    except ValueError:
        with pytest.raises(ParseError):
            parse_model_text(state_text(text.strip()))
    else:
        parsed = parse_model_text(state_text(text.strip()))
        assert parsed.states["m"] == {"a": value}


#: a state, a conditional state and an s-map on mo(2) whose cells hold
#: only 0, 1, H = 1/2 and Q = 1/4
TABLES = """\
[state m]
a = H
a' = H
b = H
b' = H
[cond f]
a | a = 1
a' | a = 0
b | a = H
b' | a = H
[smap p]
a , a = H
a' , a' = H
b , b = H
b' , b' = H
a , b = Q
a' , b = Q
a , b' = Q
a' , b' = Q
b , a = Q
b' , a = Q
b , a' = Q
b' , a' = Q
a , a' = 0
a' , a = 0
b , b' = 0
b' , b = 0
"""


def test_repeated_literals_read_like_distinct_spellings():
    """Each value spelled one way throughout, or four ways in turn."""
    repeated = TABLES.replace("H", "1/2").replace("Q", "1/4")
    spellings = {"H": itertools.cycle(["0.5", "1/2", "2/4", "5e-1"]),
                 "Q": itertools.cycle(["0.25", "1/4", "2/8", "25e-2"])}
    varied = re.sub("[HQ]", lambda m: next(spellings[m[0]]), TABLES)
    one, other = (parse_model_text(HEADER + text) for text in (repeated, varied))
    assert one.sections == other.sections
    assert (one.states, one.conds, one.smaps) \
        == (other.states, other.conds, other.smaps)
    first, second = realize_model(one), realize_model(other)
    assert (first.states, first.conds, first.smaps) \
        == (second.states, second.conds, second.smaps)


def test_table_built_values_are_the_per_cell_fractions(sampled_lattices):
    for logic in sampled_lattices.values():
        p = random_smap(logic, 3)
        names, n = logic.names, len(logic)
        assert p.values == {(a, b): F(p.num[i * n + j], p.den)
                            for i, a in enumerate(names)
                            for j, b in enumerate(names)}
        f = conditional_from_smap(p)
        assert f.values == {(b, names[a]): F(v, den)
                            for a, (num, den) in f.columns.items()
                            for b, v in zip(names, num)}
