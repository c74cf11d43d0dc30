"""Lattice construction and the decision procedures built on it."""

from __future__ import annotations

import random
from itertools import combinations
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlogic
from qlogic import build_logic, cli, gen_boolean, gen_mo, horizontal_sum
from qlogic import generators, lattice
from qlogic.errors import (
    AxiomViolation,
    BadElementName,
    ComplementConflict,
    CycleInOrder,
    MissingBounds,
    MissingComplement,
    MissingMeetOrJoin,
    SizeOutOfRange,
    UnknownElementError,
)
from qlogic.lattice import NAME_RULE, ONE, ZERO, QuantumLogic
from qlogic.modelfile import ModelFile, emit_model, parse_model_text, realize_logic


def test_mo2_structure(mo2):
    assert mo2.names == ("0", "1", "a", "a'", "b", "b'")
    assert mo2.atoms() == ("a", "a'", "b", "b'")
    assert mo2.complement("a") == "a'"
    assert mo2.complement("b'") == "b"
    assert mo2.meet("a", "b") == ZERO
    assert mo2.join("a", "b") == ONE
    assert mo2.meet("a", ONE) == "a"
    assert mo2.join("a", ZERO) == "a"
    # the public names resolve, and submodules are not among them
    for name in qlogic.__all__:
        assert not isinstance(getattr(qlogic, name), ModuleType), name


def test_mo2_covers_are_bound_edges(mo2):
    assert set(mo2.covers()) == (
        {(ZERO, e) for e in mo2.atoms()} | {(e, ONE) for e in mo2.atoms()})


def test_orthogonality(mo2):
    assert mo2.is_orthogonal("a", "a'")
    assert not mo2.is_orthogonal("a", "b")
    assert mo2.is_orthogonal(ZERO, "a")
    assert not mo2.is_orthogonal(ONE, "a")
    assert not mo2.is_orthogonal("a", "a")


def test_compatibility_on_mo2(mo2):
    assert mo2.is_compatible("a", "a'")
    assert not mo2.is_compatible("a", "b")
    assert not mo2.is_compatible("b'", "a")
    for e in mo2.names:
        assert mo2.is_compatible(ZERO, e)
        assert mo2.is_compatible(e, ONE)


def test_boolean_is_fully_compatible(boolean3):
    for a in boolean3.names:
        for b in boolean3.names:
            assert boolean3.is_compatible(a, b)


def test_unknown_element(mo2):
    with pytest.raises(UnknownElementError):
        mo2.meet("a", "zz")
    with pytest.raises(UnknownElementError):
        mo2.index("")
    with pytest.raises(UnknownElementError) as exc:
        build_logic(["0", "1", "x", "y"], order=[("x", "zz")],
                    complements=[("x", "y")])
    assert exc.value.token == "zz"


def test_join_all_and_meet_all(boolean3):
    assert boolean3.join_all([]) == ZERO
    assert boolean3.meet_all([]) == ONE
    assert boolean3.join_all(["s1", "s2", "s3"]) == ONE
    assert boolean3.meet_all(["s12", "s13"]) == "s1"


def test_structural_equality(mo2, example21):
    assert mo2 == example21.logic
    assert mo2 != gen_mo(3)
    assert mo2 != object()
    assert list(mo2) == list(mo2.names)
    assert repr(mo2) == "QuantumLogic(6 elements: 0, 1, a, a', b, b')"


# -- constructor rejections --------------------------------------------------


def test_bad_names():
    # whitespace and the model-file separators would not survive emission,
    # and a name with an unprintable character prints like another name
    for name in ("a b", "", "a,b", "c|d", "x=y", "p->q", "x#", "[y]", "z]", 7,
                 "a\u200b", "b\ufeff", "\u200b", "c\x00", "d\x1b[0m"):
        with pytest.raises(BadElementName):
            build_logic(["0", "1", name])
    with pytest.raises(BadElementName) as exc:
        build_logic(["0", "1", "a", "a\u200b", "b", "b\ufeff"], [],
                    [("a", "a\u200b"), ("b", "b\ufeff")])
    assert str(exc.value) == f"element names must be {NAME_RULE}, got 'a\\u200b'"
    with pytest.raises(BadElementName):
        build_logic(["0", "1", "x#", "[y]"], [], [("x#", "[y]")])
    with pytest.raises(BadElementName):
        build_logic(["0", "1", "a", "a"])
    with pytest.raises(MissingBounds):
        build_logic(["0", "a"])


def test_size_cap():
    names = ["0", "1"] + [f"e{i}" for i in range(63)]
    with pytest.raises(SizeOutOfRange):
        build_logic(names)


def test_order_cycle():
    with pytest.raises(CycleInOrder):
        build_logic(["0", "1", "x", "y"], order=[("x", "y"), ("y", "x")],
                    complements=[("x", "y")])


def test_not_a_lattice():
    # x, y < u, v: (x, y) has no least upper bound, (u, v) no greatest lower
    with pytest.raises(MissingMeetOrJoin) as exc:
        build_logic(["0", "1", "x", "y", "u", "v"],
                    order=[("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")],
                    complements=[("x", "y"), ("u", "v")])
    assert exc.value.kind in ("meet", "join")
    assert {exc.value.a, exc.value.b} in ({"x", "y"}, {"u", "v"})


def test_missing_and_conflicting_complements():
    with pytest.raises(MissingComplement):
        build_logic(["0", "1", "x", "y"], complements=[])
    with pytest.raises(ComplementConflict):
        build_logic(["0", "1", "x", "y", "z", "w"],
                    complements=[("x", "y"), ("x", "z"), ("z", "w")])


def test_complement_must_reverse_order():
    # complement fixed on a chain cannot reverse the order
    with pytest.raises(AxiomViolation) as exc:
        build_logic(["0", "1", "x", "y"], order=[("x", "y")],
                    complements=[("x", "y")])
    assert exc.value.axiom in ("ii", "iii", "iv", "v")
    # the benzene ring with x and y given each other's complements: x <= y,
    # but y's complement x' is not below x's complement y'
    with pytest.raises(AxiomViolation) as exc:
        build_logic(["0", "1", "x", "y", "y'", "x'"],
                    order=[("x", "y"), ("y'", "x'")],
                    complements=[("x", "y'"), ("y", "x'")])
    assert exc.value.axiom == "iv"
    assert exc.value.witnesses == ("x", "y")


def test_benzene_ring_fails_orthomodularity():
    # 0 < x < y < 1 and 0 < y' < x' < 1: orthocomplemented, not orthomodular
    with pytest.raises(AxiomViolation) as exc:
        build_logic(["0", "1", "x", "y", "y'", "x'"],
                    order=[("x", "y"), ("y'", "x'")],
                    complements=[("x", "x'"), ("y", "y'")])
    assert exc.value.axiom == "v"
    assert set(exc.value.witnesses) == {"x", "y"}


def test_bounds_are_implicit():
    logic = build_logic(["0", "1", "x", "y"], complements=[("x", "y")])
    assert logic.leq(ZERO, "x") and logic.leq("x", ONE)
    assert logic.complement(ZERO) == ONE


# -- laws that hold on every built logic (checked, not assumed) --------------


@pytest.mark.parametrize("make", [lambda: gen_mo(3), lambda: gen_boolean(3)])
def test_de_morgan(make):
    logic = make()
    for a in logic.names:
        for b in logic.names:
            assert (logic.complement(logic.join(a, b))
                    == logic.meet(logic.complement(a), logic.complement(b)))
            assert (logic.complement(logic.meet(a, b))
                    == logic.join(logic.complement(a), logic.complement(b)))


@pytest.mark.parametrize("make", [lambda: gen_mo(4), lambda: gen_boolean(3)])
def test_orthomodular_law_explicit(make):
    logic = make()
    for a in logic.names:
        for b in logic.names:
            if logic.leq(a, b):
                assert logic.join(a, logic.meet(logic.complement(a), b)) == b


def test_compatible_relations(mo3):
    for a in mo3.names:
        for b in mo3.names:
            compat = mo3.is_compatible(a, b)
            assert compat == mo3.is_compatible(b, a)
            if mo3.leq(a, b) or mo3.is_orthogonal(a, b):
                assert compat


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_meet_join_are_lattice_bounds(data):
    logic = data.draw(st.sampled_from([gen_mo(4), gen_boolean(3)]))
    a = data.draw(st.sampled_from(logic.names))
    b = data.draw(st.sampled_from(logic.names))
    m, j = logic.meet(a, b), logic.join(a, b)
    assert logic.leq(m, a) and logic.leq(m, b)
    assert logic.leq(a, j) and logic.leq(b, j)
    for c in logic.names:
        if logic.leq(c, a) and logic.leq(c, b):
            assert logic.leq(c, m)
        if logic.leq(a, c) and logic.leq(b, c):
            assert logic.leq(j, c)


def test_atoms_of_boolean(boolean3):
    assert boolean3.atoms() == ("s1", "s2", "s3")
    for r in (2,):
        for s, t in combinations(boolean3.atoms(), r):
            assert boolean3.is_orthogonal(s, t)


# -- bound tables against a brute-force reference -----------------------------


def _reference_bound_tables(names, leq):
    """Meet and join tables by brute force over every common bound, built in
    the order `build_logic` needs them: the whole meet table, then the
    join table.  Returns (meet, join), or (kind, a, b) of the first pair
    without a bound."""
    n = len(names)
    tables = []
    for kind, below in (("meet", lambda c, g: leq[c][g]),
                        ("join", lambda c, g: leq[g][c])):
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                common = [c for c in range(n) if below(c, i) and below(c, j)]
                best = [g for g in common if all(below(c, g) for c in common)]
                if not best:
                    return kind, names[i], names[j]
                table[i][j] = best[0]
        tables.append(table)
    return tuple(tables)


def _library_bound_tables(names, leq):
    try:
        return (lattice._bound_table(names, leq, "meet"),
                lattice._bound_table(names, [list(c) for c in zip(*leq)], "join"))
    except MissingMeetOrJoin as exc:
        return exc.kind, exc.a, exc.b


def _random_order(rng, names, bounds):
    """A generating order on `names`: random edges along a random linear
    extension (so no cycles).  With `bounds` of 1 the first element of that
    extension is a least element, with 2 the last is also a greatest."""
    n = len(names)
    line = rng.sample(range(n), n)
    density = rng.choice((0.15, 0.3, 0.5))
    pairs = {(line[x], line[y]) for x in range(n) for y in range(x + 1, n)
             if rng.random() < density}
    if bounds >= 1:
        pairs |= {(line[0], k) for k in range(n)}
    if bounds == 2:
        pairs |= {(k, line[-1]) for k in range(n)}
    return lattice._closure(n, pairs)


def test_bound_tables_match_reference_on_random_orders():
    rng = random.Random(20031)
    outcomes = {"meet": 0, "join": 0, "lattice": 0}
    for trial in range(400):
        names = [f"e{k}" for k in range(rng.randint(1, 9))]
        leq = _random_order(rng, names, bounds=trial % 3)
        expected = _reference_bound_tables(names, leq)
        assert _library_bound_tables(names, leq) == expected, (trial, leq)
        outcomes[expected[0] if isinstance(expected[0], str) else "lattice"] += 1
    # orders without a least element lack meets, those with one can
    # still lack joins
    assert min(outcomes.values()) >= 20, outcomes


def test_bound_tables_match_reference_on_stock_lattices(pasting12):
    for logic in (gen_mo(3), gen_boolean(3), horizontal_sum([3, 4]), pasting12):
        meet, join = _reference_bound_tables(logic.names, logic._leq)
        assert [list(row) for row in logic._meet] == meet
        assert [list(row) for row in logic._join] == join


def test_build_logic_reports_the_first_missing_bound():
    # build_logic adds 0 and 1; in a bounded finite order a pair without a
    # join means some pair without a meet, so the meet scan reports first
    rng = random.Random(7)
    reported = 0
    for _ in range(300):
        names = ["0", "1"] + [f"e{k}" for k in range(rng.randint(4, 8))]
        inner = names[2:]
        order = [(a, b) for a, b in combinations(rng.sample(inner, len(inner)), 2)
                 if rng.random() < 0.5]
        index = {name: i for i, name in enumerate(names)}
        pairs = {(index[a], index[b]) for a, b in order}
        pairs |= {(0, k) for k in range(len(names))} | {(k, 1) for k in range(len(names))}
        expected = _reference_bound_tables(names, lattice._closure(len(names), pairs))
        if not isinstance(expected[0], str):
            continue
        with pytest.raises(MissingMeetOrJoin) as exc:
            build_logic(names, order)
        assert (exc.value.kind, exc.value.a, exc.value.b) == expected
        reported += 1
    assert reported >= 50


# -- the memo -----------------------------------------------------------------


def test_equal_descriptions_share_one_logic():
    elements, complements = ["0", "1", "x", "x'"], [("x", "x'")]
    assert (build_logic(elements, [], complements)
            is build_logic(tuple(elements), (), tuple(complements)))
    assert gen_mo(4) is gen_mo(4)
    text = emit_model(ModelFile(gen_mo(3), {}, {}, {}, {}))
    assert (realize_logic(parse_model_text(text))
            is realize_logic(parse_model_text(text)))


def test_a_permuted_order_gives_an_equal_logic():
    elements, order, complements = generators._boolean_block(
        3, lambda s: "s" + "".join(map(str, s)))
    logic = build_logic(["0", "1", *elements], order, complements)
    permuted = build_logic(["0", "1", *elements], order[::-1], complements)
    assert permuted == logic and hash(permuted) == hash(logic)
    assert permuted._meet == logic._meet and permuted._join == logic._join


def test_a_refused_description_is_refused_again_and_not_kept():
    description = (["0", "1", "x", "y"], [("x", "y"), ("y", "x")], [("x", "y")])
    kept = lattice._memo.cache_info().currsize
    for _ in range(2):
        with pytest.raises(CycleInOrder):
            build_logic(*description)
    assert lattice._memo.cache_info().currsize == kept


@pytest.mark.parametrize("description", [
    (["0", "1", ["x"]],),                               # a list as a name
    (["0", "1", "x", "x'"], [("x", "x'", "1")]),        # an order entry of length 3
    (["0", "1", "x", "x'"], [5]),                       # an int as an order entry
    (["0", "1", "x", "x'"], [("x", "zz")]),             # an unknown token
])
def test_unusual_inputs_raise_what_the_builder_raises(description):
    with pytest.raises(Exception) as uncached:
        lattice._build_logic(*description)
    for _ in range(2):
        with pytest.raises(Exception) as memoized:
            build_logic(*description)
        assert type(memoized.value) is type(uncached.value)
        assert str(memoized.value) == str(uncached.value)


def test_descriptions_the_memo_cannot_key_are_built_afresh():
    elements, complements = ["0", "1", "x", "x'"], [("x", "x'")]
    logic = build_logic(elements, [], complements)
    for other in (build_logic(iter(elements), (), iter(complements)),
                  build_logic(elements, [], [list(complements[0])])):
        assert other == logic and other is not logic


def test_the_memo_keeps_at_most_its_bound():
    bound = lattice._memo.cache_info().maxsize
    for k in range(bound + 5):
        build_logic(["0", "1", f"x{k}", f"y{k}"], [], [(f"x{k}", f"y{k}")])
    assert lattice._memo.cache_info().currsize == bound


def test_repeated_check_requests_build_the_compatibility_table_once(
        monkeypatch, capsys):
    lattice._memo.cache_clear()
    calls = []
    is_compatible = QuantumLogic.is_compatible
    monkeypatch.setattr(QuantumLogic, "is_compatible",
                        lambda self, a, b: calls.append(1) or is_compatible(self, a, b))
    counts = []
    for seed in ("0", "1"):
        assert cli.main(["check", "mo", "4", "--trials", "2", "--seed", seed]) == 0
        counts.append(len(calls))
    first, second = counts[0], counts[1] - counts[0]
    assert first - second == len(gen_mo(4)) ** 2  # the table, in the first only
