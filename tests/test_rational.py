"""Rational literals: one grammar on every supported Python, read once per
model file; and the Fractions of table-built `values`."""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import conditional_from_smap, gen_mo, random_smap, smap_from_conditional
from qlogic.errors import ParseError, SizeOutOfRange
from qlogic.modelfile import parse_model_text, realize_model
from qlogic.rational import (
    MAX_DENOMINATOR_BITS,
    NotALiteral,
    bounded_lcm,
    check_literal,
    common_denominator,
    fmt,
    fmt_ratio,
    frac,
    read_literal,
)
from qlogic.smaps import SMap
from qlogic.states import ConditionalState, conditional_system_generated

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


# -- the cap on a table's common denominator ----------------------------------


def _distinct_odd(count: int, bits: int) -> list[int]:
    """`count` distinct odd integers of `bits` bits, seeded."""
    rng = random.Random(5)
    return [rng.getrandbits(bits - 1) | 1 << (bits - 1) | 1 for _ in range(count)]


def test_bounded_lcm_is_the_lcm_within_the_cap():
    shared = _distinct_odd(1, 2000)[0]
    dens = {shared * k for k in range(1, 60)}  # 118,000 bits in all
    assert sum(d.bit_length() for d in dens) > MAX_DENOMINATOR_BITS
    assert bounded_lcm(dens) == math.lcm(*dens)
    assert bounded_lcm({4, 6, 9}) == 36 and bounded_lcm(set()) == 1


def test_a_common_denominator_over_the_cap_is_refused():
    dens = _distinct_odd(100, 800)
    with pytest.raises(SizeOutOfRange, match=f"exceeds {MAX_DENOMINATOR_BITS} bits"):
        common_denominator([F(1, d) for d in dens])
    assert common_denominator([F(1, d) for d in dens[:50]])[1] == math.lcm(*dens[:50])
    logic = gen_mo(4)
    names = logic.names
    cells = dict(zip(((a, b) for a in names for b in names), map(F, [1] * 100, dens)))
    with pytest.raises(SizeOutOfRange):
        SMap(logic, cells)


def test_the_cross_column_denominator_is_bounded():
    logic = gen_mo(2)
    cs = conditional_system_generated(logic, logic.nonzero_elements)
    dens = _distinct_odd(len(logic) - 1, MAX_DENOMINATOR_BITS // 4)
    columns = {logic.index(a): ((1,) * len(logic), d)
               for a, d in zip(cs.sorted_members(), dens)}
    f = ConditionalState.from_columns(logic, cs, columns)
    with pytest.raises(SizeOutOfRange):
        smap_from_conditional(f)
    with pytest.raises(SizeOutOfRange):
        f._common_columns


_BIG = 10 ** 200


@settings(deadline=None, max_examples=300)
@given(st.one_of(
    st.fractions(),
    st.builds(F, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.integers(-_BIG, _BIG),
    st.booleans()))
def test_fmt_prints_the_lowest_terms_it_is_given(q):
    """A Fraction, an int or a bool is in lowest terms already, so `fmt`
    prints its parts as they are, which is what `fmt_ratio` gives after its
    gcd."""
    assert fmt(q) == fmt_ratio(q.numerator, q.denominator)


def test_fmt_of_bools_and_floats():
    assert (fmt(True), fmt(False)) == ("1", "0")
    assert fmt(F(-6, 4)) == "-3/2" and fmt(F(0)) == "0" and fmt(-7) == "-7"
    with pytest.raises(AttributeError):
        fmt(0.5)
