"""The validators against name-keyed reference validators.

The reference validators below loop over element names and compare
Fractions, cell by cell, in the order the package's validators promise to
report witnesses.  They share no code with those validators, which run on
index tables and integer numerators.  On seeded perturbed tables both must
agree on the verdict, the error class, the message and every witness
attribute.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qlogic import (
    conditional_from_smap,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    random_smap,
    validate_conditional_state,
    validate_smap,
    validate_state,
)
from qlogic.errors import (
    AdditivityViolation,
    BoundsViolation,
    C1Violation,
    C2Violation,
    C3Violation,
    InvalidConditionalSystem,
    MissingTableEntry,
    QLogicError,
    S1Violation,
    S2Violation,
    S3Violation,
    UnsupportedLattice,
    ValidationError,
    ValueOutOfRange,
)
from qlogic.generators import infer_blocks
from qlogic.lattice import ONE, ZERO
from qlogic.smaps import SMap

# -- reference validators -----------------------------------------------------


def reference_state(logic, values) -> dict:
    table = dict(values)
    for a in logic.names:
        if a not in table:
            raise MissingTableEntry("state", a)
        if not 0 <= table[a] <= 1:
            raise ValueOutOfRange("state", a, table[a])
    if table[ZERO] != 0:
        raise BoundsViolation(ZERO, table[ZERO], 0)
    if table[ONE] != 1:
        raise BoundsViolation(ONE, table[ONE], 1)
    names = logic.names
    for i, a in enumerate(names):
        for b in names[i:]:
            if logic.is_orthogonal(a, b):
                lhs = table[logic.join(a, b)]
                rhs = table[a] + table[b]
                if lhs != rhs:
                    raise AdditivityViolation(a, b, lhs, rhs)
    return table


def reference_smap(logic, values) -> dict:
    table = dict(values)
    names = logic.names
    for a in names:
        for b in names:
            if (a, b) not in table:
                raise MissingTableEntry("s-map", (a, b))
            if not 0 <= table[a, b] <= 1:
                raise ValueOutOfRange("s-map", (a, b), table[a, b])
    if table[ONE, ONE] != 1:
        raise S1Violation(table[ONE, ONE])
    for a in names:
        for b in names:
            if logic.is_orthogonal(a, b) and table[a, b] != 0:
                raise S2Violation(a, b, table[a, b])
    for i, a in enumerate(names):
        for b in names[i:]:
            if not logic.is_orthogonal(a, b):
                continue
            ab = logic.join(a, b)
            for c in names:
                lhs = table[ab, c]
                rhs = table[a, c] + table[b, c]
                if lhs != rhs:
                    raise S3Violation("left", a, b, c, lhs, rhs)
                lhs = table[c, ab]
                rhs = table[c, a] + table[c, b]
                if lhs != rhs:
                    raise S3Violation("right", a, b, c, lhs, rhs)
    return table


def reference_conditional(logic, cs, values) -> dict:
    members = cs.sorted_members()
    table = {}
    for (b, a), v in values.items():
        if a not in cs:
            raise InvalidConditionalSystem(
                f"entry ({b} | {a}) conditions outside the conditional system")
        table[b, a] = v
    for a in members:
        try:
            reference_state(logic, {b: table[b, a] for b in logic.names
                                    if (b, a) in table})
        except ValidationError as exc:
            raise C1Violation(a, exc) from None
    for a in members:
        if table[a, a] != 1:
            raise C2Violation(a, table[a, a])
    for i, a in enumerate(members):
        for c in members[i + 1:]:
            if not logic.is_orthogonal(a, c):
                continue
            j = logic.join(a, c)
            if j not in cs:
                continue
            for b in logic.names:
                lhs = table[b, j]
                rhs = table[a, j] * table[b, a] + table[c, j] * table[b, c]
                if lhs != rhs:
                    raise C3Violation((a, c), b, lhs, rhs)
    return table


# -- seeded tables ------------------------------------------------------------


def pasting_smap(logic, rng) -> SMap:
    """A mixture of p_k(u, v) = m_k(u) m_k(v) over the five two-valued
    states of the pasting: m(u) = 1 iff u lies above x, or above one
    chosen atom of each block."""
    choices = [("x",)] + [(a, b) for a in ("a1", "a2") for b in ("b1", "b2")]
    weights = [rng.randint(1, 9) for _ in choices]
    total = sum(weights)
    values = dict.fromkeys(((u, v) for u in logic.names for v in logic.names), F(0))
    for atoms, w in zip(choices, weights):
        up = [u for u in logic.names if any(logic.leq(t, u) for t in atoms)]
        for u in up:
            for v in up:
                values[u, v] += F(w, total)
    return SMap(logic, values)


def perturb(rng, table, other) -> dict:
    """One or two random edits of a copy of `table`: nudge a cell, delete
    one, swap two, or (with `other`, a valid table of the same kind) copy
    in a row or column of `other` or swap two rows or columns.  States have
    no rows: there the copy takes a random half of `other`'s entries."""
    out = dict(table)
    for _ in range(rng.randint(1, 2)):
        keys = sorted(out)
        edit = rng.choice(("nudge", "delete", "swap", "copy", "swap-lines"))
        if edit == "nudge":
            key = rng.choice(keys)
            out[key] += F(rng.choice((-1, 1)), rng.randint(2, 40))
        elif edit == "delete":
            del out[rng.choice(keys)]
        elif edit == "swap":
            k1, k2 = rng.sample(keys, 2)
            out[k1], out[k2] = out[k2], out[k1]
        elif isinstance(keys[0], str):
            for key in rng.sample(keys, len(keys) // 2):
                out[key] = other[key]
        else:
            axis = rng.randrange(2)
            e1, e2 = rng.sample(sorted({k[axis] for k in keys}), 2)
            for key in keys:
                if key[axis] != e1:
                    continue
                if edit == "copy":
                    out[key] = other.get(key, out[key])
                    continue
                twin = (e2, key[1]) if axis == 0 else (key[0], e2)
                if twin in out:
                    out[key], out[twin] = out[twin], out[key]
    return out


def witness(exc) -> tuple:
    attrs = {k: witness(v) if isinstance(v, Exception) else v
             for k, v in vars(exc).items()}
    return type(exc).__name__, str(exc), attrs


def outcome(validate, *args) -> tuple:
    try:
        result = validate(*args)
    except QLogicError as exc:
        return witness(exc)
    return "ok", result if isinstance(result, dict) else result.values


LATTICES = {f"mo-{n}": (gen_mo, n) for n in (2, 3, 4)}
LATTICES.update({f"boolean-{n}": (gen_boolean, n) for n in (3, 4)})
LATTICES.update({"hs-3-3": (horizontal_sum, [3, 3]), "hs-3-4": (horizontal_sum, [3, 4])})

TABLES_PER_LATTICE = 100

EXPECTED_REJECTIONS = {
    "state": {"MissingTableEntry", "ValueOutOfRange", "BoundsViolation",
              "AdditivityViolation"},
    "smap": {"MissingTableEntry", "ValueOutOfRange", "S1Violation",
             "S2Violation", "S3Violation/left", "S3Violation/right"},
    "cond": {"C1Violation", "C2Violation", "C3Violation"},
}


@pytest.fixture(scope="module")
def lattices(pasting12):
    built = {label: make(arg) for label, (make, arg) in LATTICES.items()}
    built["pasting-12"] = pasting12
    return built


def test_pasting_is_outside_the_sampled_families(pasting12):
    assert len(pasting12) == 12
    assert pasting12.atoms() == ("x", "a1", "a2", "b1", "b2")
    with pytest.raises(UnsupportedLattice):
        infer_blocks(pasting12)


@pytest.mark.parametrize("kind", sorted(EXPECTED_REJECTIONS))
def test_validators_match_reference(lattices, kind):
    seen = set()
    for label, logic in lattices.items():
        rng = random.Random(f"{kind}-{label}")
        if label == "pasting-12":
            smaps = [pasting_smap(logic, rng) for _ in range(3)]
        else:
            smaps = [random_smap(logic, seed) for seed in range(3)]
        if kind == "state":
            bases = [p.diagonal_state().values for p in smaps]
            check, reference = validate_state, reference_state
        elif kind == "smap":
            bases = [p.values for p in smaps]
            check, reference = validate_smap, reference_smap
        else:
            conds = [conditional_from_smap(p) for p in smaps]
            bases = [f.values for f in conds]
            cs = conds[0].cs
            assert all(f.cs == cs for f in conds)

            def check(lg, v):
                return validate_conditional_state(lg, cs, v)

            def reference(lg, v):
                return reference_conditional(lg, cs, v)

        assert all(outcome(reference, logic, base)[0] == "ok" for base in bases)
        for trial in range(TABLES_PER_LATTICE):
            base, other = rng.sample(bases, 2)
            table = perturb(rng, base, other)
            got = outcome(check, logic, table)
            assert got == outcome(reference, logic, table), (label, trial)
            name = got[0]
            if name == "S3Violation":
                name += "/" + got[2]["side"]
            seen.add(name)
    assert EXPECTED_REJECTIONS[kind] <= seen, seen
