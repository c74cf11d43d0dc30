"""States, conditional systems, and conditional states."""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import (
    classical_conditional,
    conditional_from_smap,
    conditional_state_from_partition,
    conditional_system_generated,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    random_smap,
    validate_conditional_state,
    validate_conditional_system,
    validate_state,
)
from qlogic.errors import (
    AdditivityViolation,
    AlphaNotConcentrated,
    BoundsViolation,
    C1Violation,
    C2Violation,
    C3Violation,
    InvalidConditionalSystem,
    MissingTableEntry,
    NotOrthogonal,
    PreconditionFailed,
    QLogicError,
    UnknownElementError,
    ValidationError,
    ValueOutOfRange,
    WeightsInvalid,
    ZeroInSeed,
)

MO2_DIAGONAL = {"0": 0, "1": 1, "a": "0.4", "a'": "0.6", "b": "0.3", "b'": "0.7"}


def test_validate_state_exact_from_strings(mo2):
    m = validate_state(mo2, MO2_DIAGONAL)
    assert m("a") == F(2, 5)
    assert m("b'") == F(7, 10)
    assert sum(v for _, v in m.items()) == F(3)  # 0 + 1 + two complement pairs


def test_a_state_cannot_be_changed_after_validation(mo2):
    m = validate_state(mo2, MO2_DIAGONAL)
    for name in ("a", "zz"):
        with pytest.raises(TypeError):
            m.values[name] = F(9)
    assert m("a") == F(2, 5) and "zz" not in m.values
    assert m.values == {a: F(v) for a, v in MO2_DIAGONAL.items()}
    assert list(m.values) == list(MO2_DIAGONAL)  # input order
    assert validate_state(mo2, m.values) == m


def test_floats_are_rejected(mo2):
    with pytest.raises(TypeError):
        validate_state(mo2, dict(MO2_DIAGONAL, a=0.4))


def test_non_rational_values_are_rejected(mo2):
    for bad, error in (("abc", ValueError), ("1ex", ValueError), ([1], TypeError)):
        with pytest.raises(error):
            validate_state(mo2, dict(MO2_DIAGONAL, a=bad))


def test_bools_are_rejected(mo2):
    with pytest.raises(TypeError):
        validate_state(mo2, dict(MO2_DIAGONAL, **{"1": True}))


def test_state_missing_entry(mo2):
    values = dict(MO2_DIAGONAL)
    del values["b'"]
    with pytest.raises(MissingTableEntry) as exc:
        validate_state(mo2, values)
    assert exc.value.key == "b'"


def test_state_range_and_bounds(mo2):
    with pytest.raises(ValueOutOfRange):
        validate_state(mo2, dict(MO2_DIAGONAL, a="7/5", b="-0.6"))
    with pytest.raises(BoundsViolation):
        validate_state(mo2, dict(MO2_DIAGONAL, **{"0": "1/100"}))
    with pytest.raises(BoundsViolation):
        validate_state(mo2, dict(MO2_DIAGONAL, **{"1": "99/100"}))


def test_state_additivity_witness(mo2):
    with pytest.raises(AdditivityViolation) as exc:
        validate_state(mo2, dict(MO2_DIAGONAL, b="0.35"))
    assert {exc.value.a, exc.value.b} == {"b", "b'"}
    assert exc.value.lhs == 1 and exc.value.rhs == F(21, 20)


# -- conditional systems ------------------------------------------------------


def test_cs_closure_from_two_atoms(mo2):
    cs = conditional_system_generated(mo2, {"a", "b"})
    assert set(cs.members) == {"a", "a'", "b", "b'", "1"}


def test_cs_rejects_zero(mo2):
    with pytest.raises(ZeroInSeed):
        conditional_system_generated(mo2, {"0", "a"})
    with pytest.raises(ZeroInSeed):
        validate_conditional_system(mo2, {"0"})


def test_cs_missing_relative_complement(mo2):
    with pytest.raises(InvalidConditionalSystem) as exc:
        validate_conditional_system(mo2, {"a", "1"})
    assert "relative complement" in str(exc.value)


def test_cs_missing_join(mo2):
    with pytest.raises(InvalidConditionalSystem) as exc:
        validate_conditional_system(mo2, {"a", "b", "a'", "b'"})
    assert "join" in str(exc.value)


def _reference_validate_cs(logic, members):
    """Two-loop conditional-system check on element names: the first
    missing join or relative complement over ordered pairs of members in
    index order."""
    members = frozenset(members)
    for a in members:
        logic.index(a)
    if "0" in members:
        raise ZeroInSeed()
    ordered = sorted(members, key=logic.index)
    for a in ordered:
        for b in ordered:
            j = logic.join(a, b)
            if j not in members:
                raise InvalidConditionalSystem(
                    f"not closed under join: {a} v {b} = {j} is missing")
            if logic.lt(a, b):
                rc = logic.meet(logic.complement(a), b)
                if rc not in members:
                    raise InvalidConditionalSystem(
                        f"not closed under relative complement: "
                        f"{a} < {b} but {a}' ^ {b} = {rc} is missing")
    return members


def _reference_generated_cs(logic, seed):
    """Fixed-point closure on element names: passes over ordered pairs of
    members that add each missing join and relative complement, until a
    pass adds nothing."""
    members = set(seed)
    for a in members:
        logic.index(a)
    if "0" in members:
        raise ZeroInSeed()
    changed = True
    while changed:
        changed = False
        current = sorted(members, key=logic.index)
        for a in current:
            for b in current:
                j = logic.join(a, b)
                if j not in members:
                    members.add(j)
                    changed = True
                if logic.lt(a, b):
                    rc = logic.meet(logic.complement(a), b)
                    if rc not in members:
                        members.add(rc)
                        changed = True
    return frozenset(members)


def _outcome(check, logic, members):
    """Members of the accepted system, or the error class and message."""
    try:
        result = check(logic, members)
    except QLogicError as exc:
        return type(exc), str(exc)
    return getattr(result, "members", result)


def test_cs_closure_matches_reference(pasting12):
    lattices = [gen_mo(n) for n in (2, 3, 4)] + [gen_boolean(n) for n in (3, 4)]
    lattices += [horizontal_sum([3, 3]), horizontal_sum([3, 4]), pasting12]
    rng = random.Random(2003)
    rejected = set()
    for logic in lattices:
        for _ in range(60):
            members = rng.sample(logic.names, rng.randint(1, min(7, len(logic))))
            if rng.random() < 0.1:
                members.append("zz")
            expected = _outcome(_reference_validate_cs, logic, members)
            assert _outcome(validate_conditional_system, logic, members) == expected
            if isinstance(expected, tuple):  # closure failures by reason
                rejected.add(expected[1].split(":")[0]
                             if expected[0] is InvalidConditionalSystem
                             else expected[0])
            closed = _outcome(_reference_generated_cs, logic, members)
            assert _outcome(conditional_system_generated, logic, members) == closed
            if isinstance(closed, frozenset):
                assert _outcome(validate_conditional_system, logic, closed) == closed
    assert rejected == {"not closed under join",
                        "not closed under relative complement",
                        ZeroInSeed, UnknownElementError}


# -- conditional states -------------------------------------------------------


def test_fixture_conditional_state(example21):
    f = example21.conds["f"]
    assert f("b", "a'") == F(11, 30)
    assert f("b'", "1") == F(7, 10)
    column = f.condition("b")
    assert column("a") == F(2, 5) and column("1") == 1
    with pytest.raises(MissingTableEntry) as exc:
        f.condition("0")
    assert exc.value.key == ("*", "0")
    # the system may also be given as its plain member set
    assert validate_conditional_state(f.logic, set(f.cs.members), f.values) == f
    assert f != object()
    assert repr(f.cs) == "ConditionalSystem({1, a, a', b, b'})"
    assert repr(f) == (f"ConditionalState(logic={f.logic!r}, cs={f.cs!r}, "
                       f"values={f.values!r})")


def test_independence_definition(example21):
    f = example21.conds["f"]
    # f(a | 1) = f(a | b): knowing b does not move a
    assert f.is_independent("a", "b", "1")
    # but f(b | 1) != f(b | a): the relation is one-sided
    assert not f.is_independent("b", "a", "1")
    with pytest.raises(PreconditionFailed):
        f.is_independent("a'", "a", "b")  # f(b | a) != 1


def _tampered(example21, **changes):
    f = example21.conds["f"]
    values = dict(f.values)
    for compact, v in changes.items():
        b, a = compact.split("_")
        values[b, a] = F(v)
    return f.logic, f.cs, values


def test_c1_violation(example21):
    logic, cs, values = _tampered(example21, b_a="3/10")
    with pytest.raises(C1Violation) as exc:
        validate_conditional_state(logic, cs, values)
    assert exc.value.a == "a"
    assert isinstance(exc.value.cause, AdditivityViolation)


def test_c2_violation(example21):
    logic, cs, values = _tampered(example21, **{"a_a": "9/10", "a'_a": "1/10"})
    with pytest.raises(C2Violation) as exc:
        validate_conditional_state(logic, cs, values)
    assert exc.value.a == "a" and exc.value.value == F(9, 10)


def test_c3_violation(example21):
    logic, cs, values = _tampered(example21, **{"b_1": "1/4", "b'_1": "3/4"})
    with pytest.raises(C3Violation) as exc:
        validate_conditional_state(logic, cs, values)
    assert set(exc.value.family) == {"a", "a'"}
    assert exc.value.b == "b"
    assert exc.value.lhs == F(1, 4) and exc.value.rhs == F(3, 10)


def _family_law_failure(logic, members, table):
    """Brute-force decomposition law over every family of >= 2 mutually
    orthogonal members whose join is a member; returns the first failing
    (family, b), or None.  `members` is in index order."""

    def families(prefix, rest):
        for i, c in enumerate(rest):
            if all(logic.is_orthogonal(x, c) for x in prefix):
                family = prefix + (c,)
                if len(family) >= 2:
                    yield family
                yield from families(family, rest[i + 1:])

    for family in families((), members):
        j = reduce(logic.join, family)
        if j not in members:
            continue
        for b in logic.names:
            if table[b, j] != sum(table[a, j] * table[b, a] for a in family):
                return family, b
    return None


@pytest.mark.parametrize("logic", [gen_boolean(3), horizontal_sum([3, 3])],
                         ids=["boolean-3", "hs-3-3"])
@settings(deadline=None, max_examples=30)
@given(seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
       data=st.data())
def test_pair_checks_cover_orthogonal_families(logic, seeds, data):
    # these lattices have orthogonal families of three or more members;
    # columns of another conditional state keep C1 and C2, so only the
    # decomposition law can fail
    base, other = (conditional_from_smap(random_smap(logic, s)) for s in seeds)
    members = base.cs.sorted_members()
    swapped = data.draw(st.lists(st.sampled_from(members), min_size=1,
                                 max_size=3, unique=True))
    table = dict(base.values)
    for a in swapped:
        for b in logic.names:
            table[b, a] = other(b, a)
    try:
        validate_conditional_state(logic, base.cs, table)
    except C3Violation as exc:
        a, c = exc.family
        j = logic.join(a, c)
        assert logic.is_orthogonal(a, c) and j in base.cs
        assert exc.lhs == table[exc.b, j]
        assert exc.rhs == table[a, j] * table[exc.b, a] + table[c, j] * table[exc.b, c]
        assert exc.lhs != exc.rhs
    else:
        assert _family_law_failure(logic, members, table) is None


def test_entry_outside_cs(mo2, example21):
    f = example21.conds["f"]
    cs = conditional_system_generated(mo2, {"a"})
    values = {(b, a): f.values[b, a] for (b, a) in f.values if a in cs}
    values["a", "b"] = F(2, 5)
    with pytest.raises(InvalidConditionalSystem):
        validate_conditional_state(mo2, cs, values)


# -- construction from an orthogonal partition --------------------------------


def _alpha(mo2, on, b_mass):
    off = {"a": "a'", "a'": "a"}[on]
    return validate_state(mo2, {"0": 0, "1": 1, on: 1, off: 0,
                                "b": b_mass, "b'": 1 - F(b_mass)})


def test_partition_rebuilds_fixture(mo2, example21):
    f = example21.conds["f"]
    alpha1 = _alpha(mo2, "a", F(1, 5))
    alpha2 = _alpha(mo2, "a'", F(11, 30))
    built = conditional_state_from_partition(
        mo2, ["a", "a'"], [alpha1, alpha2], [F(2, 5), F(3, 5)])
    assert set(built.cs.members) == {"a", "a'", "1"}
    for d in mo2.names:
        for m in built.cs.sorted_members():
            assert built(d, m) == f(d, m)


def test_partition_weight_is_conditional_probability(mo2):
    alpha1 = _alpha(mo2, "a", F(1, 2))
    alpha2 = _alpha(mo2, "a'", F(1, 3))
    built = conditional_state_from_partition(
        mo2, ["a", "a'"], [alpha1, alpha2], [F(1, 4), F(3, 4)])
    assert built("a", "1") == F(1, 4)
    assert built("b", "1") == F(1, 4) * F(1, 2) + F(3, 4) * F(1, 3)


def test_partition_rejections(mo2):
    alpha1 = _alpha(mo2, "a", F(1, 5))
    alpha2 = _alpha(mo2, "a'", F(1, 5))
    with pytest.raises(NotOrthogonal,
                       match="^elements for 'a' and 'b' are not orthogonal$"):
        conditional_state_from_partition(
            mo2, ["a", "b"], [alpha1, alpha2], [F(1, 2), F(1, 2)])
    with pytest.raises(AlphaNotConcentrated):
        conditional_state_from_partition(
            mo2, ["a", "a'"], [alpha2, alpha1], [F(1, 2), F(1, 2)])
    with pytest.raises(WeightsInvalid):
        conditional_state_from_partition(
            mo2, ["a", "a'"], [alpha1, alpha2], [F(1, 2), F(1, 3)])
    with pytest.raises(WeightsInvalid):
        conditional_state_from_partition(
            mo2, ["a", "a'"], [alpha1, alpha2], [F(3, 2), F(-1, 2)])
    with pytest.raises(WeightsInvalid):
        conditional_state_from_partition(mo2, ["a"], [alpha1], [])


# -- the classical route ------------------------------------------------------


def test_classical_conditioning_is_bayes(boolean3):
    m = validate_state(boolean3, {
        "0": 0, "s1": "1/2", "s2": "1/3", "s3": "1/6",
        "s12": "5/6", "s13": "2/3", "s23": "1/2", "1": 1})
    f = classical_conditional(m)
    assert f("s1", "s12") == F(3, 5)
    assert f("s12", "s3") == 0
    for d in boolean3.names:
        assert f(d, "1") == m(d)


def test_classical_conditioning_fails_off_boolean(mo2):
    m = validate_state(mo2, MO2_DIAGONAL)
    # meet-based conditioning contradicts additivity once b is split by
    # the incompatible pair (a, a')
    with pytest.raises(ValidationError):
        classical_conditional(m)


@settings(deadline=None, max_examples=40)
@given(w=st.tuples(*[st.integers(1, 50)] * 3))
def test_random_boolean_states_validate(w):
    logic = gen_boolean(3)
    total = sum(w)
    atom_mass = dict(zip(("s1", "s2", "s3"), (F(x, total) for x in w)))
    values = {"0": F(0), "1": F(1)}
    values.update(atom_mass)
    values["s12"] = atom_mass["s1"] + atom_mass["s2"]
    values["s13"] = atom_mass["s1"] + atom_mass["s3"]
    values["s23"] = atom_mass["s2"] + atom_mass["s3"]
    m = validate_state(logic, values)
    f = classical_conditional(m)
    # conditioning then weighting recovers the state (Bayes both ways)
    for d in logic.names:
        assert f(d, "s12") * m("s12") == m(logic.meet(d, "s12"))
