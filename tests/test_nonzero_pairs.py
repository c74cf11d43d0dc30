"""The validators on lattices whose bounds are not at indices 0 and 1.

`QuantumLogic._orth_pairs` keeps only the orthogonal pairs of two nonzero
elements.  A pair with 0 only restates that the value at 0 is 0, which the
bounds checks (states, C1) and S2 establish before any pair is walked; S2
reads the 0 row and column itself.  Here the validators meet the
name-keyed reference validators of test_validator_reference.py on lattices
that put 0 and 1 elsewhere, on perturbed tables and on tables with mass in
the 0 row or column, and `_orth_pairs` meets a brute-force list.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qlogic import (
    build_logic,
    conditional_from_smap,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    random_smap,
    validate_conditional_state,
    validate_smap,
    validate_state,
)
from qlogic.lattice import ONE, ZERO
from qlogic.modelfile import parse_model_text, realize_logic
from test_validator_reference import (
    outcome,
    pasting_smap,
    perturb,
    reference_conditional,
    reference_smap,
    reference_state,
)


def nonzero_orthogonal_pairs(logic) -> tuple:
    """(i, j, index of the join) for each orthogonal pair of nonzero
    elements i < j, found by name."""
    names = logic.names
    return tuple((i, j, logic.index(logic.join(a, b)))
                 for i, a in enumerate(names) for j, b in enumerate(names)
                 if i < j and ZERO not in (a, b) and logic.is_orthogonal(a, b))


def permuted(logic, seed):
    """The same lattice with its elements declared in a shuffled order
    that moves both bounds off indices 0 and 1."""
    names = list(logic.names)
    rng = random.Random(seed)
    while names.index(ZERO) < 2 or names.index(ONE) < 2:
        rng.shuffle(names)
    return build_logic(names, logic.covers(),
                       [(a, logic.complement(a)) for a in names])


@pytest.fixture(scope="module")
def shifted(pasting12):
    """Lattices with their bounds elsewhere, each with three valid s-maps."""
    declared = realize_logic(parse_model_text(
        "[logic]\nelements a a' b b'\ncomplement a a'\ncomplement b b'\n"))
    assert declared.names == ("a", "a'", "b", "b'", ZERO, ONE)
    out = {"declared-mo-2": (declared, [random_smap(declared, s) for s in range(3)])}
    for label, stock in (("hs-3-3", horizontal_sum([3, 3])),
                         ("boolean-3", gen_boolean(3))):
        logic = permuted(stock, label)
        out[label] = (logic, [validate_smap(logic, random_smap(stock, s).values)
                              for s in range(3)])
    logic = permuted(pasting12, "pasting-12")
    rng = random.Random("pasting-12")
    out["pasting-12"] = (logic, [pasting_smap(logic, rng) for _ in range(3)])
    return out


def test_orth_pairs_are_the_nonzero_orthogonal_pairs(pasting12, shifted):
    stock = [gen_mo(n) for n in range(1, 9)] + [gen_boolean(n) for n in range(1, 5)]
    stock += [horizontal_sum(shape) for shape in ([3, 3], [2, 3, 4], [4, 4, 4], [5, 5])]
    stock += [pasting12] + [logic for logic, _ in shifted.values()]
    for logic in stock:
        assert logic._orth_pairs == nonzero_orthogonal_pairs(logic), logic
    assert [len(logic._orth_pairs) for logic in
            (gen_mo(8), gen_boolean(4), horizontal_sum([4, 4, 4]))] == [8, 25, 75]


def zero_mass(rng, table, events) -> dict:
    """A copy of `table` with a positive value at one or two cells of the
    0 row or column, or at 0 itself for a state; `events` are the
    elements that may pair with 0."""
    out = dict(table)
    for _ in range(rng.randint(1, 2)):
        if isinstance(next(iter(out)), str):
            key = ZERO
        else:
            e = rng.choice(events)
            key = rng.choice(((ZERO, e), (e, ZERO)))
        out[key] = F(rng.randint(1, 9), 10)
    return out


TABLES_PER_LATTICE = 150


@pytest.mark.parametrize("kind", ["state", "smap", "cond"])
def test_validators_match_reference_off_the_first_indices(shifted, kind):
    s2_witnesses, zero_faults = set(), set()
    for label, (logic, smaps) in shifted.items():
        rng = random.Random(f"{kind}-{label}")
        if kind == "state":
            bases = [p.diagonal_state().values for p in smaps]
            check, reference, events = validate_state, reference_state, logic.names
        elif kind == "smap":
            bases = [p.values for p in smaps]
            check, reference, events = validate_smap, reference_smap, logic.names
        else:
            conds = [conditional_from_smap(p) for p in smaps]
            cs = conds[0].cs
            assert all(f.cs == cs for f in conds)
            bases = [f.values for f in conds]
            events = cs.sorted_members()

            def check(lg, v):
                return validate_conditional_state(lg, cs, v)

            def reference(lg, v):
                return reference_conditional(lg, cs, v)

        assert all(outcome(reference, logic, base)[0] == "ok" for base in bases)
        for trial in range(TABLES_PER_LATTICE):
            base, other = rng.sample(bases, 2)
            if trial % 2:
                table = zero_mass(rng, base, events)
            else:
                table = perturb(rng, base, other)
            got = outcome(check, logic, table)
            assert got == outcome(reference, logic, table), (label, trial)
            if got[0] == "S2Violation":
                s2_witnesses.add((got[2]["a"] == ZERO, got[2]["b"] == ZERO))
            if trial % 2 and got[0] != "ok":
                zero_faults.add(got[0])
    if kind == "smap":
        # witnesses at (0, 0), elsewhere in the 0 row or column, and off both
        assert s2_witnesses == {(True, True), (True, False), (False, True),
                                (False, False)}, s2_witnesses
    expected = {"state": "BoundsViolation", "smap": "S2Violation",
                "cond": "C1Violation"}[kind]
    assert expected in zero_faults, zero_faults
