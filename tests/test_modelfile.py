"""Parsing, completion, and the emit/parse roundtrip."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import (
    build_logic,
    conditional_from_smap,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    random_smap,
    random_state,
)
from qlogic.errors import (
    C1Violation,
    MissingTableEntry,
    ParseError,
    S3Violation,
    UnknownElement,
)
from qlogic.generators import infer_blocks
from qlogic.lattice import ONE, ZERO, is_element_name
from qlogic.modelfile import (
    ModelFile,
    _completion_plan,
    emit_model,
    load_model,
    parse_model,
    parse_model_text,
    realize_cond,
    realize_logic,
    realize_model,
    realize_observable,
    realize_smap,
    realize_state,
)
from qlogic.rational import read_literal
from qlogic.repro import fixture_text
from test_completion_reference import assert_same, is_bound
from test_literal_reference import outcome, reference_read_literal

MINIMAL = """\
[logic]
elements 0 1 a a'   # bounds may also be listed explicitly
complement a a'

[state m]
a = 0.25
a' = 3/4
"""


def test_parse_minimal():
    parsed = parse_model_text(MINIMAL)
    assert parsed.elements == ["0", "1", "a", "a'"]
    assert parsed.complements == [("a", "a'")]
    assert parsed.sections == [("state", "m")]
    assert parsed.states["m"] == {"a": F(1, 4), "a'": F(3, 4)}


def test_decimals_parse_exactly():
    parsed = parse_model_text(MINIMAL.replace("0.25", "0.1"))
    assert parsed.states["m"]["a"] == F(1, 10)  # not the binary float


@pytest.mark.parametrize("text", [
    "0.12", "00.500", "0.0", "٣.٤", "１.５", " 2.75 ", "1.", ".5", "1.2.3",
    "1._5", "1_0.5", "-0.5", "+0.5", "1.5e1", "1.5/2", "².5", "1 .5",
])
def test_plain_decimals_read_like_the_grammar(text):
    """A plain `n.m` is read without the grammar, to the same value; any
    other token near it still gets the grammar's value or error."""
    assert outcome(read_literal, text) == outcome(reference_read_literal, text)


def test_state_completion_fills_bounds():
    model = realize_model(parse_model_text(MINIMAL))
    m = model.states["m"]
    assert m("0") == 0 and m("1") == 1 and m("a") == F(1, 4)


def test_missing_inner_entry_is_an_error():
    text = MINIMAL.replace("a' = 3/4\n", "")
    with pytest.raises(MissingTableEntry):
        realize_model(parse_model_text(text))


def test_fixture_parses_with_all_sections():
    parsed = parse_model_text(fixture_text("2.1"))
    assert parsed.sections == [("cond", "f"), ("smap", "p"),
                               ("observable", "x"), ("observable", "y")]
    assert parsed.conds["f"]["b", "a'"] == F(11, 30)
    assert parsed.smaps["p"]["b'", "a"] == F(8, 25)
    assert parsed.observables["x"] == {F(-1): "a", F(1): "a'"}


def test_smap_completion_derives_bound_rows(example21):
    # the fixture only writes the 16 atom entries; realization recovers
    # the 0- and 1-rows and columns additively
    p = example21.smaps["p"]
    assert p("1", "b") == F(3, 10)
    assert p("a", "1") == F(2, 5)
    assert p("1", "1") == 1
    assert p("0", "b'") == 0 and p("b'", "0") == 0


def test_smap_completion_reads_every_value_first(example21):
    """The omitted cells are filled after every given value is read, so
    Fractions, ints and literal strings realize to the same s-map."""
    logic = gen_mo(1)
    strings = {("a", "a"): "0.2", ("a", "a'"): "0", ("a'", "a"): "0",
               ("a'", "a'"): "0.8"}
    fractions = {key: F(v) for key, v in strings.items()}
    mixed = {**fractions, ("a", "a'"): 0, ("a'", "a"): 0, ("a", "a"): "1/5"}
    p = realize_smap(logic, fractions)
    assert realize_smap(logic, strings) == realize_smap(logic, mixed) == p
    assert p("a", "1") == p("1", "a") == F(1, 5) and p("1", "1") == 1
    # the fixture's own literals ("0.12", "0"), read as strings
    section = fixture_text("2.1").split("[smap p]")[1].split("[observable")[0]
    literals = {}
    for line in section.strip().splitlines():
        key, _, value = line.partition(" = ")
        u, _, v = key.partition(" , ")
        literals[u, v] = value
    p = example21.smaps["p"]
    assert len(literals) == 16 and realize_smap(p.logic, literals) == p
    ints = {k: int(v) if v in ("0", "1") else F(v) for k, v in literals.items()}
    assert realize_smap(p.logic, ints) == p


def test_cond_completion_fills_trivial_rows(example21):
    f = example21.conds["f"]
    for a in f.cs.sorted_members():
        assert f("0", a) == 0
        assert f("1", a) == 1


def test_inconsistent_explicit_bound_row_caught(mo2):
    text = fixture_text("2.1") + "\n[smap q]\n" + "\n".join(
        f"{u} , {v} = {val}" for (u, v), val in
        parse_model_text(fixture_text("2.1")).smaps["p"].items()) + "\n1 , b = 0.9\n"
    parsed = parse_model_text(text)
    with pytest.raises(S3Violation):
        realize_smap(realize_logic(parsed), parsed.table("smap", "q"))


# -- parse failures, with line numbers ----------------------------------------


@pytest.mark.parametrize("text,line,needle", [
    ("elements 0 1\n", 1, "before any section"),
    ("[logic\nelements 0 1\n", 1, "unterminated"),
    ("[widget w]\n", 1, "unknown section kind"),
    ("[logic]\n[logic]\n", 2, "duplicate"),
    ("[logic]\nelements 0 1 x y\ncomplement x y\n[state m]\n[state m]\n", 5,
     "duplicate"),
    ("[logic]\nelements 0 1 x y\nrank x 3\n", 3, "unknown directive"),
    ("[logic]\nelements 0 1 x y\ncomplement x\n", 3, "two elements"),
    ("[logic]\nelements 0 1 x\nelements a,b\n", 3, "bad element name"),
    ("[logic]\nelements 0 1 p->q\n", 2, "bad element name"),
    ("[logic]\nelements 0 1 x [y]\n", 2, "bad element name"),
    ("[logic]\nelements 0 1 x y\ncomplement x y\n[state m]\nx = 1/0\n", 5,
     "bad number"),
    ("[logic]\nelements 0 1 x y\ncomplement x y\n[state m]\nx 1\n", 5,
     "expected '='"),
    ("[logic]\nelements 0 1 x y\ncomplement x y\n[state m]\nx = 1\nx = 1\n",
     6, "duplicate entry"),
    ("[logic]\nelements 0 1 x y\ncomplement x y\n[cond f]\nx = 1\n", 5,
     "expected 'b | a"),
    ("[logic]\nelements 0 1 x y\ncomplement x y\n[smap p]\nx x = 1\n", 5,
     "expected 'a , b"),
    ("[logic]\nelements 0 1 x y\ncomplement x y\n[observable o]\n1 = x\n", 5,
     "value -> element"),
    ("[]\n", 1, "empty section header"),
    ("[logic x]\n", 1, "takes no name"),
    ("[state]\n", 1, "needs exactly one name"),
    ("[state m]\n", None, "no [logic] section"),
    ("[logic]\nelements\n", 2, "lists names"),
    ("[logic]\nelements 0 1 a\norder a\n", 3, "order takes two"),
])
def test_parse_errors(text, line, needle):
    with pytest.raises(ParseError) as exc:
        parse_model_text(text)
    assert exc.value.line == line
    assert needle in str(exc.value)


XY = "[logic]\nelements 0 1 x y\ncomplement x y\n"


@pytest.mark.parametrize("body,line,message", [
    # a bad number and an unknown name on one line: the number
    ("[state m]\nz = 1/0\n", 5, "bad number '1/0'"),
    ("[cond f]\nz | w = nan\n", 5, "bad number 'nan'"),
    ("[smap p]\nz , w = 0x1\n", 5, "bad number '0x1'"),
    ("[observable o]\n1/0 -> z\n", 5, "bad number '1/0'"),
    # two unknown names on one line: the left one
    ("[cond f]\nz | w = 1\n", 5, "unknown element 'z'"),
    ("[cond f]\nx | w = 1\n", 5, "unknown element 'w'"),
    ("[smap p]\nz , w = 1\n", 5, "unknown element 'z'"),
    ("[smap p]\nx , w = 1\n", 5, "unknown element 'w'"),
    # faults on two lines of one section: the earlier line
    ("[state m]\nx = 1\nz = 1\nx = 1/0\n", 6, "unknown element 'z'"),
    ("[smap p]\nx , x = 1/0\nz , x = 1\n", 5, "bad number '1/0'"),
    ("[observable o]\n1 -> x\n2 x\n3 -> z\n", 6,
     "expected 'value -> element'"),
    # faults in two sections: the section earlier in the file
    ("[state m]\nx = 1/0\n[smap p]\nz , x = 1\n", 5, "bad number '1/0'"),
    ("[smap p]\nz , x = 1\n[state m]\nx = 1/0\n", 5, "unknown element 'z'"),
    ("[observable o]\n1 -> z\n[cond f]\nx = 1\n", 5, "unknown element 'z'"),
    # a duplicate entry after a bad line: the bad line, and the other way
    ("[state m]\nx = 1/0\nx = 1\nx = 1\n", 5, "bad number '1/0'"),
    ("[cond f]\nx | y = 1\nx | y = 1\nx | y = 1/0\n", 6,
     "duplicate entry for ('x', 'y')"),
    ("[observable o]\n1 -> x\n1 -> y\n1/0 -> x\n", 6,
     "duplicate entry for 1"),
    # each kind's own separator: an observable's arrow is no '='
    ("[state m]\nx -> 1\n", 5, "expected '='"),
    ("[cond f]\nx | y -> 1\n", 5, "expected '='"),
    # a duplicate key, printed as the table keys it
    ("[state m]\nx = 1\nx = 0\n", 6, "duplicate entry for x"),
    ("[smap p]\nx , y = 0\nx , y = 0\n", 6, "duplicate entry for ('x', 'y')"),
    # ... also after another entry, for each kind
    ("[state m]\nx = 1\ny = 0\nx = 1\n", 7, "duplicate entry for x"),
    ("[cond f]\nx | x = 1\ny | x = 0\nx | x = 1\n", 7,
     "duplicate entry for ('x', 'x')"),
    ("[smap p]\nx , x = 1\nx , y = 0\nx , x = 1\n", 7,
     "duplicate entry for ('x', 'x')"),
    ("[observable o]\n1 -> x\n2 -> y\n1 -> y\n", 7, "duplicate entry for 1"),
])
def test_parse_reports_the_first_fault(body, line, message):
    """Fields are read left to right except that a line's number comes
    before its names; lines and sections in file order."""
    with pytest.raises(ParseError) as exc:
        parse_model_text(XY + body)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


def test_bounds_may_be_left_out_of_elements():
    model = realize_model(parse_model_text(MINIMAL.replace("0 1 a a'", "a a'")))
    assert model.logic.names == ("a", "a'", ZERO, ONE)
    assert model.states["m"](ONE) == 1


def test_empty_smap_on_the_two_element_logic():
    # no complement pair between 0 and 1 to add over: p(1, 1) = 1 is set
    model = realize_model(parse_model_text("[logic]\nelements 0 1\n[smap p]\n"))
    p = model.smaps["p"]
    assert p(ONE, ONE) == 1
    assert p(ZERO, ONE) == p(ONE, ZERO) == p(ZERO, ZERO) == 0


@pytest.mark.parametrize("prefix,breaks", [
    (b"", ["\n"]),
    (b"", ["\r\n"]),
    (b"", ["\r"]),
    (b"", ["\n", "\r\n", "\r", "\r\n", "\x0b", "\u2028"]),
    (b"\xef\xbb\xbf", ["\r\n"]),
])
def test_a_file_reads_as_its_text_whatever_its_line_breaks(tmp_path, prefix,
                                                            breaks):
    """The bytes are decoded as they are, with no newline translation:
    `str.splitlines` alone finds the lines, so every break it knows reads
    like a line feed, and a leading byte-order mark is cut."""
    text = fixture_text("2.1")
    lines = text.split("\n")
    path = tmp_path / "example21.qlm"
    path.write_bytes(prefix + "".join(
        line + breaks[i % len(breaks)] for i, line in enumerate(lines)).encode())
    assert parse_model(path) == parse_model_text(text)


def test_unknown_element_token():
    with pytest.raises(UnknownElement) as exc:
        parse_model_text("[logic]\nelements 0 1 x y\ncomplement x z\n")
    assert exc.value.token == "z" and exc.value.line == 3
    with pytest.raises(UnknownElement) as exc:
        parse_model_text(MINIMAL + "b = 1/2\n")
    assert exc.value.token == "b"


def test_duplicate_section_kinds_are_separate_namespaces():
    text = (MINIMAL
            + "\n[cond m]\na | a = 1\na' | a = 0\nb | a = 0\n")
    # same name under a different kind is allowed
    parsed = parse_model_text(text.replace("b | a = 0\n", ""))
    assert ("cond", "m") in parsed.sections


# -- the s-map completion plan ----------------------------------------------


def test_completion_on_a_horizontal_sum_of_unequal_blocks():
    """A complete table, its inner cells alone, and those with one
    complement-pair cell cut; the two-element logic and `pasting12` are
    among the reference's own inputs."""
    logic = horizontal_sum([3, 4])
    for full in (dict(random_smap(logic, seed).values) for seed in range(3)):
        inner = {k: v for k, v in full.items() if not is_bound(k)}
        c = next(e for e in logic.names if e not in (ZERO, ONE))
        holed = {k: v for k, v in inner.items() if k != (c, logic.complement(c))}
        assert assert_same(logic, full) == assert_same(logic, inner)
        assert assert_same(logic, holed)[0] is MissingTableEntry


def test_each_logic_has_its_own_completion_plan(pasting12):
    logics = [gen_boolean(1), gen_boolean(2), gen_boolean(3), gen_mo(2),
              gen_mo(3), horizontal_sum([2, 3]), horizontal_sum([3, 4]),
              pasting12]
    plans = [_completion_plan(logic) for logic in logics]
    assert len({id(plan) for plan in plans}) == len(plans)
    for logic, plan in zip(logics, plans):
        assert _completion_plan(logic) is plan
        assert repr(_completion_plan.__wrapped__(logic)) == repr(plan)


# -- emission ------------------------------------------------------------------


def _reparse(model: ModelFile) -> ModelFile:
    return realize_model(parse_model_text(emit_model(model)))


def test_emit_parse_roundtrip_fixture(example21):
    again = _reparse(example21)
    assert again.logic == example21.logic
    assert again.conds["f"].values == example21.conds["f"].values
    assert again.smaps["p"].values == example21.smaps["p"].values
    assert (again.observables["x"].assignment
            == example21.observables["x"].assignment)
    assert (again.observables["y"].assignment
            == example21.observables["y"].assignment)


def test_emit_parse_roundtrip_generated(tmp_path):
    logic = gen_mo(3)
    model = ModelFile(logic,
                      {"m": random_state(logic, 5)},
                      {},
                      {"p": random_smap(logic, 5)},
                      {})
    path = tmp_path / "generated.qlm"
    path.write_text(emit_model(model), encoding="utf-8")
    again = realize_model(parse_model(path))
    assert again.logic == logic
    assert again.states["m"].values == model.states["m"].values
    assert again.smaps["p"].values == model.smaps["p"].values
    assert load_model(path) == again == model


#: element names from the whole token grammar, bounds excluded
element_names = st.text(min_size=1, max_size=5).filter(
    lambda s: is_element_name(s) and s not in (ZERO, ONE))

SHAPES = {"mo-2": lambda: gen_mo(2), "boolean-3": lambda: gen_boolean(3),
          "hs-2-3": lambda: horizontal_sum([2, 3])}


def _renamed(logic, rename):
    """`logic` with every element other than the bounds renamed."""
    def new(e):
        return e if e in (ZERO, ONE) else rename[e]
    return build_logic([new(e) for e in logic.names],
                       [(new(a), new(b)) for a, b in logic.covers()],
                       [(new(a), new(logic.complement(a))) for a in logic.names])


@settings(deadline=None, max_examples=40)
@given(shape=st.sampled_from(sorted(SHAPES)), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_emit_parse_realize_is_identity(shape, data, seed):
    base = SHAPES[shape]()
    inner = [e for e in base.names if e not in (ZERO, ONE)]
    fresh = data.draw(st.lists(element_names, min_size=len(inner),
                               max_size=len(inner), unique=True))
    logic = _renamed(base, dict(zip(inner, fresh)))
    p = random_smap(logic, seed)
    block = infer_blocks(logic)[0]
    values = data.draw(st.lists(st.fractions(-10, 10, max_denominator=12),
                                min_size=len(block), max_size=len(block),
                                unique=True))
    model = ModelFile(logic, {"m": random_state(logic, seed)},
                      {"f": conditional_from_smap(p)}, {"p": p},
                      {"x": realize_observable(logic, dict(zip(values, block)))})
    again = _reparse(model)
    assert again.logic == logic
    assert again.states["m"] == model.states["m"]
    assert again.conds["f"] == model.conds["f"]
    assert again.smaps["p"] == model.smaps["p"]
    assert again.observables["x"] == model.observables["x"]


def test_emitted_cond_roundtrip(example21):
    model = ModelFile(example21.logic, {}, {"f": example21.conds["f"]}, {}, {})
    again = _reparse(model)
    assert again.conds["f"].cs == example21.conds["f"].cs
    assert again.conds["f"].values == example21.conds["f"].values


def test_realize_cond_column_must_be_complete(mo2):
    table = {("a", "a"): F(1), ("a'", "a"): F(0)}
    with pytest.raises(C1Violation) as exc:
        realize_cond(mo2, table)
    assert isinstance(exc.value.cause, MissingTableEntry)


def test_realize_cond_names_the_first_inner_hole_of_an_unwritten_column(mo2):
    """The written columns a and b generate 1, a' and b' too; the unwritten
    column 1 gets its 0 and 1 rows filled like the others, so the witness
    is its first inner row, not a row the file may leave out."""
    table = {("a", "a"): 1, ("a'", "a"): 0, ("b", "a"): "0.2", ("b'", "a"): "0.8",
             ("a", "b"): "0.4", ("a'", "b"): "0.6", ("b", "b"): 1, ("b'", "b"): 0}
    with pytest.raises(C1Violation) as exc:
        realize_cond(mo2, table)
    assert str(exc.value) == "f(., 1) is not a state: state table has no entry for a"


def test_realize_state_keeps_explicit_bounds(mo2):
    table = {"a": F(2, 5), "a'": F(3, 5), "b": F(3, 10), "b'": F(7, 10),
             "0": F(0), "1": F(1)}
    assert realize_state(mo2, table)("a") == F(2, 5)
