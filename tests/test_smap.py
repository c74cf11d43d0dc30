"""S-map validation and the two conversions."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import (
    classical_smap,
    conditional_from_smap,
    gen_boolean,
    gen_mo,
    random_smap,
    random_state,
    smap_from_conditional,
    validate_conditional_state,
    validate_smap,
    validate_state,
)
from qlogic.errors import (
    DegenerateDiagonal,
    DomainTooSmall,
    MissingTableEntry,
    S1Violation,
    S2Violation,
    S3Violation,
    ValueOutOfRange,
)
from qlogic.lattice import ONE, ZERO
from qlogic.rational import bounded_lcm
from qlogic.states import (
    ConditionalState,
    ConditionalSystem,
    conditional_system_generated,
)


def test_fixture_smap(example21):
    p = example21.smaps["p"]
    assert p("a", "b") == F(3, 25)
    assert p("b", "a") == F(2, 25)
    assert p("a", "b") != p("b", "a")  # simultaneous measurement, ordered
    nu = p.diagonal_state()
    assert nu("a") == F(2, 5) and nu("b'") == F(7, 10)
    assert p != object()
    assert repr(p) == f"SMap(logic={p.logic!r}, values={p.values!r})"


def test_diagonal_majorizes_rows(example21):
    p = example21.smaps["p"]
    nu = p.diagonal_state()
    for a in p.logic.names:
        for b in p.logic.names:
            assert p(a, b) <= nu(b)
            assert p(a, b) <= nu(a)  # p(a,b) <= p(a, 1) = nu(a)


def _tamper(p, a, b, value):
    values = dict(p.values)
    values[a, b] = F(value)
    return values


def test_s1_violation(example21):
    p = example21.smaps["p"]
    with pytest.raises(S1Violation) as exc:
        validate_smap(p.logic, _tamper(p, "1", "1", "99/100"))
    assert exc.value.value == F(99, 100)


def test_s2_violation(example21):
    p = example21.smaps["p"]
    with pytest.raises(S2Violation) as exc:
        validate_smap(p.logic, _tamper(p, "a", "a'", "1/100"))
    assert (exc.value.a, exc.value.b) == ("a", "a'")


def test_s3_violation_names_all_three_elements(example21):
    p = example21.smaps["p"]
    with pytest.raises(S3Violation) as exc:
        validate_smap(p.logic, _tamper(p, "b", "a", "1/10"))
    witness = {exc.value.a, exc.value.b, exc.value.c}
    assert "b" in witness or "a" in witness
    assert exc.value.lhs != exc.value.rhs


def test_smap_range_and_totality(example21):
    p = example21.smaps["p"]
    with pytest.raises(ValueOutOfRange):
        validate_smap(p.logic, _tamper(p, "a", "b", "-1/50"))
    short = dict(p.values)
    del short["a", "b"]
    with pytest.raises(MissingTableEntry):
        validate_smap(p.logic, short)


# -- conversions --------------------------------------------------------------


def test_conditional_to_smap_matches_fixture(example21):
    f = example21.conds["f"]
    p = example21.smaps["p"]
    assert smap_from_conditional(f).values == p.values


def test_smap_to_conditional_matches_fixture(example21):
    f = example21.conds["f"]
    p = example21.smaps["p"]
    back = conditional_from_smap(p)
    assert back.cs == f.cs
    assert back.values == f.values


def test_recovered_conditional_is_column_renormalization(example21):
    p = example21.smaps["p"]
    f = conditional_from_smap(p)
    nu = p.diagonal_state()
    for b in f.cs.sorted_members():
        for a in p.logic.names:
            assert f(a, b) == p(a, b) / nu(b)


def test_conversion_needs_total_conditioning(mo2, example21):
    f = example21.conds["f"]
    sub_cs = conditional_system_generated(mo2, {"a"})
    sub_values = {(b, a): f.values[b, a] for (b, a) in f.values if a in sub_cs}
    sub = validate_conditional_state(mo2, sub_cs, sub_values)
    with pytest.raises(DomainTooSmall) as exc:
        smap_from_conditional(sub)
    assert exc.value.missing == "1"  # first nonzero element outside the cs


def test_a_full_size_system_without_a_nonzero_element_is_refused(mo3):
    """A system of as many members as the full one, with "0" or an unknown
    name in place of one or two nonzero elements, is too small; the witness
    is the first nonzero element it lacks, in index order."""
    f = conditional_from_smap(random_smap(mo3, 0))
    nonzero = mo3.names[1:]
    assert mo3.names[0] == ZERO and f.cs.members == frozenset(nonzero)
    assert conditional_from_smap(random_smap(mo3, 1)).cs is f.cs  # kept
    for k, stand_ins in ((1, {"0"}), (1, {"zz"}), (2, {"0", "zz"})):
        for lost in combinations(nonzero, k):
            members = frozenset(f.cs.members - set(lost) | stand_ins)
            assert len(members) == len(nonzero)
            hand_built = ConditionalState.from_columns(
                mo3, ConditionalSystem(mo3, members), f.columns)
            with pytest.raises(DomainTooSmall) as exc:
                smap_from_conditional(hand_built)
            assert exc.value.missing == lost[0], (lost, stand_ins)


def test_vanishing_diagonal_blocks_recovery(mo2):
    # nu(b) = 0 forces the whole b row and column to 0
    values = {}
    nu = {"0": F(0), "1": F(1), "a": F(1, 2), "a'": F(1, 2),
          "b": F(0), "b'": F(1)}
    for u in mo2.names:
        for v in mo2.names:
            if u == v:
                values[u, v] = nu[u]
            elif mo2.is_orthogonal(u, v):
                values[u, v] = F(0)
    for u in ("a", "a'"):
        values[u, "b"] = values["b", u] = F(0)
        values[u, "b'"] = values["b'", u] = nu[u]
        values[u, "1"] = values["1", u] = nu[u]
    for v in ("b", "b'"):
        values[v, "1"] = values["1", v] = nu[v]
    values["1", "1"] = F(1)
    for u in mo2.names:
        values[u, "0"] = values["0", u] = F(0)
    p = validate_smap(mo2, values)
    with pytest.raises(DegenerateDiagonal) as exc:
        conditional_from_smap(p)
    assert exc.value.element == "b"


def test_classical_smap_is_symmetric_meet_measure(boolean3):
    m = validate_state(boolean3, {
        "0": 0, "s1": "1/2", "s2": "1/3", "s3": "1/6",
        "s12": "5/6", "s13": "2/3", "s23": "1/2", "1": 1})
    p = classical_smap(m)
    for a in boolean3.names:
        for b in boolean3.names:
            assert p(a, b) == m(boolean3.meet(a, b))
            assert p(a, b) == p(b, a)


def test_classical_smap_fails_off_boolean(mo2):
    m = validate_state(mo2, {"0": 0, "1": 1, "a": "0.4", "a'": "0.6",
                             "b": "0.3", "b'": "0.7"})
    with pytest.raises(S3Violation):
        classical_smap(m)


def test_independence_product_rule(example21):
    p = example21.smaps["p"]
    assert p.is_independent_pair("a", "b")
    assert not p.is_independent_pair("b", "a")
    # complements inherit the verdict
    assert p.is_independent_pair("a'", "b")
    assert p.is_independent_pair("a", "b'")


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_random_roundtrip(sampled_lattices, seed):
    # the conversions trust their input, so each output is validated here
    for logic in sampled_lattices.values():
        p = random_smap(logic, seed)
        nu = p.diagonal_state()
        assert validate_state(logic, nu.values) == nu
        f = conditional_from_smap(p)
        assert validate_conditional_state(logic, f.cs, f.values) == f
        p2 = smap_from_conditional(f)
        assert validate_smap(logic, p2.values) == p2
        assert p2.values == p.values


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_random_boolean_smap_is_classical(seed):
    logic = gen_boolean(2)
    p = random_smap(logic, seed)
    m = p.diagonal_state()
    for a in logic.names:
        for b in logic.names:
            assert p(a, b) == m(logic.meet(a, b))


def test_deterministic_generation(mo3):
    assert random_smap(mo3, 421).values == random_smap(mo3, 421).values
    assert random_state(mo3, 421).values == random_state(mo3, 421).values
    assert random_smap(mo3, 421).values != random_smap(mo3, 422).values


def _two_atom_smap(logic, mass, cross=()):
    """The s-map on a horizontal sum of two-atom blocks from its atom cells:
    p(x, x) = mass[x], 0 on the other atom of x's block, `cross` or else
    mass[x] mass[y] across blocks; every other cell by additivity, with 1
    the join of the first block's atoms."""
    cross = dict(cross)

    def atoms(x, y):
        if x == y or logic.is_orthogonal(x, y):
            return mass[x] if x == y else 0
        return cross.get((x, y), mass[x] * mass[y])

    below = {ZERO: (), ONE: logic.atoms()[:2], **{x: (x,) for x in mass}}
    return validate_smap(logic, {
        (u, v): sum(atoms(x, y) for x in below[u] for y in below[v])
        for u in logic.names for v in logic.names})


def _weights_gcd(f) -> int:
    """gcd(d_1 lcm(d_b), w_0, ..., w_{n-1}) for f's columns N_b / d_b, with
    w_b = N_1[b] lcm(d_b) / d_b: the factor the conversion divides out."""
    columns, n = f.columns, len(f.logic)
    one, d_one = columns[f.logic.index(ONE)]
    common = bounded_lcm({d for _, d in columns.values()})
    return math.gcd(d_one * common, *(one[b] * (common // columns[b][1])
                                      for b in columns))


def _assert_converts_back(p):
    f = conditional_from_smap(p)
    q = smap_from_conditional(f)
    assert q == p
    assert math.gcd(q.den, *q.num) == 1
    names = p.logic.names
    assert all(q(a, b) == (0 if b == ZERO else f(a, b) * f(b, ONE))
               for a in names for b in names)
    return f


def test_conversion_on_large_distinct_denominators():
    """Eight two-atom blocks, atom masses x and 1 - x with a distinct
    denominator of about 40 digits per block, a product across blocks: the
    weights share a factor of about 320 digits with the denominator."""
    rng, logic, mass = random.Random(0), gen_mo(8), {}
    for a in logic.atoms()[::2]:
        d = rng.randrange(10 ** 39, 10 ** 40)
        mass[a] = F(rng.randrange(1, d), d)
        mass[logic.complement(a)] = 1 - mass[a]
    f = _assert_converts_back(_two_atom_smap(logic, mass))
    assert len(str(_weights_gcd(f))) > 300


def test_conversion_when_the_weights_share_no_factor():
    """On mo(2), p(a, b) = 1/6 and p(b, a) = 1/4 with every atom at 1/2:
    the columns' denominators are 2 and 3 and the weights' gcd is 1."""
    logic = gen_mo(2)
    mass = dict.fromkeys(logic.atoms(), F(1, 2))
    cross = {("a", "b"): F(1, 6), ("a", "b'"): F(1, 3), ("a'", "b"): F(1, 3),
             ("a'", "b'"): F(1, 6)}
    cross.update(dict.fromkeys([("b", "a"), ("b", "a'"), ("b'", "a"),
                                ("b'", "a'")], F(1, 4)))
    f = _assert_converts_back(_two_atom_smap(logic, mass, cross))
    assert _weights_gcd(f) == 1
