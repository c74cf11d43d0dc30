"""The witness relation and the s-map law pre-pass against the references.

`oracle_scan` and `brute_force_compatible` read one witness relation,
marked in a single pass over every orthogonal triple; `smap_law_scan`
decides its cell laws on the whole table through gathers kept on the
lattice, and walks the table only when they fail.  Both must still agree
with the name-keyed references of `test_scan_reference.py`, pair by pair
and message by message.
"""

from __future__ import annotations

from itertools import islice

import pytest
from test_scan_reference import (
    Miswired,
    outcome,
    reference_brute_force_compatible,
    reference_oracle_scan,
    reference_smap_law_scan,
    single_cell_nudges,
    summary,
)

from qlogic import gen_boolean, gen_mo, horizontal_sum, random_smap
from qlogic.errors import SizeOutOfRange
from qlogic.generators import (
    BRUTE_FORCE_MAX,
    _law_cells,
    _witnessed,
    brute_force_compatible,
    oracle_scan,
    smap_law_scan,
)
from qlogic.lattice import QuantumLogic
from qlogic.smaps import SMap


def fresh(logic):
    """A new object equal to `logic`, with none of its kept tables."""
    return QuantumLogic(logic.names, logic._leq, logic._comp, logic._meet,
                        logic._join)


# -- the witness relation -----------------------------------------------------


def oracle_lattices(pasting12):
    shapes = {f"mo-{n}": gen_mo(n) for n in range(1, 6)}
    shapes.update({f"boolean-{n}": gen_boolean(n) for n in range(1, 5)})
    shapes.update({"hs-2-3": horizontal_sum([2, 3]),
                   "hs-3-3": horizontal_sum([3, 3]), "pasting12": pasting12})
    return shapes


def test_the_relation_agrees_with_the_reference_on_every_pair(pasting12):
    for label, logic in oracle_lattices(pasting12).items():
        witnessed = _witnessed(logic)
        for i, a in enumerate(logic.names):
            for j, b in enumerate(logic.names):
                expected = reference_brute_force_compatible(logic, a, b)
                assert ((i, j) in witnessed) == expected, (label, a, b)
                assert brute_force_compatible(logic, a, b) == expected


def test_one_wrong_identity_cell_gives_the_reference_message():
    seen = set()
    for logic in (gen_mo(3), gen_boolean(2)):
        for a in logic.names:
            for b in logic.names:
                wrong = Miswired(logic, [(a, b)])
                expected = reference_oracle_scan(wrong)
                assert expected is not None
                assert oracle_scan(wrong) == expected, (a, b)
                seen.add(expected.rsplit("says ", 1)[1])
    assert seen == {"True", "False"}  # both directions of a wrong answer


def test_an_unknown_name_has_no_witness(mo2):
    for a, b in (("a", "zz"), ("zz", "a"), ("zz", "zz"), ("a", "")):
        assert brute_force_compatible(mo2, a, b) is False
        assert reference_brute_force_compatible(mo2, a, b) is False


def test_the_size_cap_message_is_the_reference_one():
    big = horizontal_sum([2] * 12)  # 26 elements
    assert len(big) > BRUTE_FORCE_MAX
    with pytest.raises(SizeOutOfRange) as expected:
        reference_brute_force_compatible(big, "a", "b")
    for call in (lambda: brute_force_compatible(big, "a", "b"),
                 lambda: brute_force_compatible(big, "zz", "a"),
                 lambda: oracle_scan(big)):
        with pytest.raises(SizeOutOfRange) as got:
            call()
        assert str(got.value) == str(expected.value)


# -- the s-map law pre-pass -----------------------------------------------------


def test_every_single_cell_nudge_gets_the_reference_outcome():
    """Lattices the nudge test of `test_scan_reference.py` leaves out: a
    larger mo, and horizontal sums with a three-atom block."""
    seen = set()
    for logic in (gen_mo(4), horizontal_sum([2, 3]), horizontal_sum([3, 3])):
        # the first 2 n^2 nudges are those of the s-map's cells
        nudges = islice(single_cell_nudges(logic, 3), 2 * len(logic) ** 2)
        for k, (p, _) in enumerate(nudges):
            expected = outcome(reference_smap_law_scan, p)
            assert outcome(smap_law_scan, p) == expected, (logic, k)
            seen.add(summary("smap", expected))
    assert seen >= {("smap", "return", kind) for kind in (
        "orthogonal pair", "compatible pair", "monotonicity", "row marginal",
        "column marginal")}


def test_every_sampled_smap_passes_the_pre_pass(sampled_lattices):
    """The pre-pass is sufficient, not exact; it must hold on every s-map,
    or valid tables would be walked cell by cell."""
    for label, logic in sampled_lattices.items():
        orthogonal, left, right, lower, upper = _law_cells(logic)
        for seed in range(5):
            num = random_smap(logic, seed).num
            assert not any(orthogonal(num)), label
            assert left(num) == right(num), label
            assert all(a <= b for a, b in zip(lower(num), upper(num))), label


def test_the_gathers_are_built_once_and_leave_equality_alone():
    built = horizontal_sum([2, 3])
    logic = fresh(built)
    assert _law_cells not in logic._kept
    p = random_smap(built, 1)
    p = SMap.from_table(logic, p.num, p.den)
    assert smap_law_scan(p) is None
    kept = logic._kept[_law_cells]
    assert smap_law_scan(p) is None
    assert logic._kept[_law_cells] is kept
    for other in (fresh(built), built):
        assert other == logic and hash(other) == hash(logic)
