"""The name-keyed constructors and the conditional-state checks on a
44-element lattice, against name-keyed references.

`State`, `SMap` and `ConditionalState` read their input entry by entry:
each name is resolved (for a conditional state b, then whether a is in the
system), and only then is the value coerced with `frac`.  The reference
below does exactly that by name, through `logic.index` and `frac`; on
`horizontal_sum([4, 4, 4])` both must raise the same error class with the
same message and token, or hold the same values.

`validate_conditional_state` and `realize_cond` are compared with the
name-keyed validator of test_validator_reference.py on perturbed tables,
among them tables that break C1 in the last column only, so the scan
must reach the last column to find the witness.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qlogic import (
    conditional_from_smap,
    horizontal_sum,
    random_smap,
    validate_conditional_state,
)
from qlogic.errors import InvalidConditionalSystem
from qlogic.lattice import ONE, ZERO
from qlogic.modelfile import realize_cond
from qlogic.rational import frac
from qlogic.smaps import SMap
from qlogic.states import (
    ConditionalState,
    State,
    conditional_system_generated,
)
from test_validator_reference import outcome, perturb, reference_conditional

WIDE = horizontal_sum([4, 4, 4])
SYSTEM = conditional_from_smap(random_smap(WIDE, 0)).cs
LAST = SYSTEM.sorted_members()[-1]


# -- the constructors ---------------------------------------------------------


def reference_entries(kind, values) -> dict:
    """{key: frac(value)}, resolving each entry's names before its value."""
    logic, table = WIDE, {}
    for key, v in values.items():
        if kind == "state":
            logic.index(key)
        elif kind == "smap":
            a, b = key
            logic.index(a), logic.index(b)
        else:
            b, a = key
            logic.index(b)
            if a not in SYSTEM:
                raise InvalidConditionalSystem(
                    f"entry ({b} | {a}) conditions outside the conditional system")
        table[key] = frac(v)
    return table


def construct(kind, values) -> dict:
    if kind == "state":
        return dict(State(WIDE, values).values)
    if kind == "smap":
        return dict(SMap(WIDE, values).values)
    return dict(ConditionalState(WIDE, SYSTEM, values).values)


def result(call, kind, values) -> tuple:
    try:
        return "ok", call(kind, values)
    except Exception as exc:  # any class, compared by name
        return type(exc).__name__, str(exc), getattr(exc, "token", None)


class Entries:
    """A table handed over as (key, value) pairs, so a key may be
    unhashable."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


class Half(F):
    """A Fraction subclass, which `frac` hands back as it is."""


def keys(kind) -> list:
    names = WIDE.names
    if kind == "state":
        return list(names)
    if kind == "smap":
        return [(a, b) for a in names for b in names]
    return [(b, a) for a in SYSTEM.sorted_members() for b in names]


def unknown(kind) -> list:
    """Keys naming no element of WIDE, or (for a conditional state) an
    event outside its system, in each position of the key."""
    b = WIDE.names[5]
    return {"state": ["zz"], "smap": [("zz", b), (b, "zz"), ("zz", "yy")],
            "cond": [("zz", LAST), (b, "zz"), (b, ZERO), ("zz", "yy")]}[kind]


def unhashable(kind) -> list:
    b = WIDE.names[5]
    return {"state": [[b]], "smap": [([b], b), (b, [b])],
            "cond": [([b], LAST), (b, [LAST])]}[kind]


def cases(kind) -> dict:
    full = keys(kind)
    first = full[0]
    out = {"valid": Entries([(key, F(1, 3)) for key in full])}
    for n, key in enumerate(unknown(kind)):
        out[f"unknown-last-{n}"] = Entries([(k, 0) for k in full] + [(key, 0)])
        out[f"float-before-unknown-{n}"] = Entries([(first, 0.5), (key, 0)])
    for n, key in enumerate(unhashable(kind)):
        out[f"unhashable-{n}"] = Entries([(first, 0), (key, 0)])
    out["bool"] = Entries([(first, 0), (full[-1], True)])
    out["fraction-subclass"] = Entries([(key, Half(1, 2)) for key in full])
    literals = ["1/3", " 0.25 ", "1_0/4_0", "2e-1", "7", "-0.5", ".5"]
    out["literals"] = Entries([(key, literals[n % len(literals)])
                               for n, key in enumerate(full)])
    out["not-a-literal"] = Entries([(first, "1/3"), (full[-1], "three")])
    return out


@pytest.mark.parametrize("kind", ["state", "smap", "cond"])
def test_constructors_read_entries_as_the_reference_does(kind):
    for label, values in cases(kind).items():
        got = result(construct, kind, values)
        assert got == result(reference_entries, kind, values), label
    subclass = cases("state")["fraction-subclass"]
    assert all(type(v) is Half for v in State(WIDE, subclass).values.values())


# -- C1 on a wide table -------------------------------------------------------

TABLES = 8


def late_c1_faults(rng, base, other) -> list:
    """Copies of `base` that break C1 in the last column only: a nudged
    cell, a missing one, one out of range, a wrong 0 or 1 row, and a
    column that is additive and normalized but leaves [0, 1]: the affine
    extension 3 base - 2 other of two states."""
    b = rng.choice([b for b in WIDE.names if b not in (ZERO, ONE, LAST)])
    hole = dict(base)
    del hole[b, LAST]
    signed = {(c, LAST): 3 * base[c, LAST] - 2 * other[c, LAST]
              for c in WIDE.names}
    return [{**base, (b, LAST): base[b, LAST] + F(1, 7)}, hole,
            {**base, (b, LAST): F(3, 2)}, {**base, (ZERO, LAST): F(1, 2)},
            {**base, (ONE, LAST): F(1, 2)}, {**base, **signed}]


def reference_realize_cond(logic, table):
    """The 0 and 1 rows filled in by name, then the reference validator."""
    values = dict(table)
    members = dict.fromkeys(a for _, a in table)
    for a in members:
        values.setdefault((ZERO, a), F(0))
        values.setdefault((ONE, a), F(1))
    cs = conditional_system_generated(logic, members)
    return reference_conditional(logic, cs, values)


def test_conditional_checks_match_reference_on_a_wide_lattice():
    bases = [conditional_from_smap(random_smap(WIDE, seed)).values
             for seed in range(3)]
    rng = random.Random("cond-hs-4-4-4")
    tables = [perturb(rng, *rng.sample(bases, 2)) for _ in range(TABLES)]
    late = late_c1_faults(rng, dict(bases[0]), dict(bases[2]))
    causes = set()
    for n, table in enumerate([dict(bases[1])] + tables + late):
        got = outcome(validate_conditional_state, WIDE, SYSTEM, table)
        assert got == outcome(reference_conditional, WIDE, SYSTEM, table), n
        if n > TABLES:
            assert got[0] == "C1Violation" and got[2]["a"] == LAST, got
            causes.add(got[2]["cause"][0])
        # realize_cond fills the 0 and 1 rows the file leaves out
        written = {(b, a): v for (b, a), v in table.items()
                   if b not in (ZERO, ONE) or a == LAST}
        got = outcome(realize_cond, WIDE, written)
        assert got == outcome(reference_realize_cond, WIDE, written), n
    assert causes == {"AdditivityViolation", "MissingTableEntry",
                      "ValueOutOfRange", "BoundsViolation"}

