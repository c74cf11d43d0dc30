"""`modelfile.realize_smap` against a reference: the completion as it was
when it filled the omitted cells into a copy of the name-keyed table with
Fraction sums, before any value was read, kept here verbatim.  On seeded
partial tables both must return an equal s-map (the same `num` and `den`)
or raise the same error class with the same message and witnesses.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qlogic import gen_boolean, gen_mo, horizontal_sum, random_smap
from qlogic.errors import (
    MissingTableEntry,
    QLogicError,
    S1Violation,
    S3Violation,
    ValueOutOfRange,
)
from qlogic.lattice import ONE, ZERO
from qlogic.modelfile import realize_smap
from qlogic.smaps import SMap, validate_smap
from test_cli import pasting_model


def reference_realize_smap(logic, table: dict) -> SMap:
    values = dict(table)
    inner = [e for e in logic.names if e not in (ZERO, ONE)]
    for e in logic.names:
        values.setdefault((ZERO, e), Fraction(0))
        values.setdefault((e, ZERO), Fraction(0))
    if inner:  # c' is inner too: it is 0 only for c = 1, 1 only for c = 0
        c, d = inner[0], logic.complement(inner[0])
        for e in inner:
            if (e, ONE) not in values and (e, c) in values and (e, d) in values:
                values[e, ONE] = values[e, c] + values[e, d]
            if (ONE, e) not in values and (c, e) in values and (d, e) in values:
                values[ONE, e] = values[c, e] + values[d, e]
        if (ONE, ONE) not in values and all(
                (u, v) in values for u in (c, d) for v in (c, d)):
            values[ONE, ONE] = sum(values[u, v] for u in (c, d) for v in (c, d))
    else:
        values.setdefault((ONE, ONE), Fraction(1))
    return validate_smap(logic, values)


def outcome(realize, logic, table) -> tuple:
    try:
        p = realize(logic, table)
    except QLogicError as exc:
        return type(exc), str(exc), vars(exc)
    return p.num, p.den


def assert_same(logic, table):
    """Both completions agree on `table`; returns the outcome."""
    got = outcome(realize_smap, logic, table)
    assert got == outcome(reference_realize_smap, logic, table), table
    return got


def is_bound(key) -> bool:
    return ZERO in key or ONE in key


@pytest.fixture(scope="module")
def full_tables(pasting12):
    """(label, logic, complete name-keyed table): seeded s-maps on the
    stock shapes, and the two-valued mixture on the pasting lattice."""
    shapes = {f"mo-{n}": gen_mo(n) for n in range(1, 5)}
    shapes.update({f"boolean-{n}": gen_boolean(n) for n in range(2, 5)})
    shapes["hs-2-3"] = horizontal_sum([2, 3])
    tables = [(f"{label}/{seed}", logic, dict(random_smap(logic, seed).values))
              for label, logic in shapes.items() for seed in range(3)]
    tables.append(("pasting-12", pasting12, pasting_model(pasting12)[1]))
    return tables


def test_omitted_bound_rows_and_columns(full_tables):
    for label, logic, full in full_tables:
        rng = random.Random(label)
        inner = {k: v for k, v in full.items() if not is_bound(k)}
        some = {k: v for k, v in full.items()
                if not is_bound(k) or rng.random() < 0.5}
        for table in (full, inner, some):
            assert assert_same(logic, table) == (
                SMap(logic, full).num, SMap(logic, full).den), label


def test_a_missing_complement_pair_cell_stops_completion(full_tables):
    for label, logic, full in full_tables:
        rng = random.Random(label)
        inner = [e for e in logic.names if e not in (ZERO, ONE)]
        c, d = inner[0], logic.complement(inner[0])
        e = rng.choice(inner)
        for hole in ((e, c), (e, d), (c, e), (d, e)):
            table = {k: v for k, v in full.items()
                     if not is_bound(k) and k != hole}
            assert assert_same(logic, table)[0] is MissingTableEntry, label


def test_a_given_bound_cell_that_contradicts_the_sum(full_tables):
    raised = set()
    for label, logic, full in full_tables:
        rng = random.Random(label)
        e = rng.choice([e for e in logic.names if e not in (ZERO, ONE)])
        for key in ((e, ONE), (ONE, e), (ONE, ONE)):
            for shift in (Fraction(-1, 7), Fraction(1, 7)):
                table = {k: v for k, v in full.items() if not is_bound(k)}
                table[key] = min(max(full[key] + shift, Fraction(0)),
                                 Fraction(1))
                if table[key] != full[key]:
                    raised.add(assert_same(logic, table)[0])
    assert raised == {S1Violation, S3Violation}


def test_out_of_range_and_negative_cells(full_tables):
    for label, logic, full in full_tables:
        rng = random.Random(label)
        cells = [k for k in full if not is_bound(k)]
        for value in (Fraction(-1, 5), Fraction(6, 5), Fraction(-3)):
            table = {k: v for k, v in full.items() if not is_bound(k)}
            table[rng.choice(cells)] = value
            assert assert_same(logic, table)[0] is ValueOutOfRange, label


@pytest.mark.parametrize("table", [
    {},
    {(ONE, ONE): Fraction(1)},
    {(ONE, ONE): Fraction(1, 2)},
    {(ZERO, ONE): Fraction(1, 3)},
    {(ONE, ZERO): Fraction(-1)},
    {(ONE, ONE): Fraction(1), (ZERO, ZERO): Fraction(0)},
])
def test_the_two_element_logic(table):
    logic = gen_boolean(1)
    assert logic.names == (ZERO, ONE)
    assert_same(logic, table)
