"""`random_smap` against a reference: the sampler as it was when it rebuilt
its lattice-only work (the block pairs, the denominator factor, the atoms
below each element) on every call and tested for the last row in every
cell, kept here verbatim.  Both must give the same table, numerator for
numerator over the same denominator, from the same `randrange` stream; on a
lattice the sampler refuses, both must raise the same message.
"""

from __future__ import annotations

import math
import random

import pytest

from qlogic import gen_boolean, gen_mo, horizontal_sum, random_smap
from qlogic import generators
from qlogic.errors import UnsupportedLattice
from qlogic.generators import DENOMINATOR_BOUND, _block_indices
from qlogic.lattice import ONE, ZERO, QuantumLogic
from qlogic.smaps import SMap


def reference_random_smap(logic: QuantumLogic, seed: int) -> SMap:
    blocks = _block_indices(logic)
    draw = random.Random(seed).randrange
    weights = [[1 + draw(DENOMINATOR_BOUND) for _ in block]
               for block in blocks]
    totals = [sum(w) for w in weights]
    draws = max(((len(r) - 1) * len(c) for r in blocks for c in blocks
                 if r is not c), default=0)
    den = math.lcm(*totals) ** 2 * DENOMINATOR_BOUND ** draws
    mass = {a: w * (den // total) for block, ws, total in
            zip(blocks, weights, totals) for a, w in zip(block, ws)}

    n = len(logic)
    cells = [[0] * n for _ in range(n)]  # atom pairs, by element index
    for a, m in mass.items():
        cells[a][a] = m
    for rows in blocks:
        for cols in blocks:
            if rows is cols:
                continue
            remaining_col = [mass[b] for b in cols]
            for i, a in enumerate(rows):
                remaining_row, tail = mass[a], sum(remaining_col)
                for j, b in enumerate(cols):
                    tail -= remaining_col[j]  # what cols[j + 1:] can take
                    lo = max(0, remaining_row - tail)
                    hi = min(remaining_row, remaining_col[j])
                    if i == len(rows) - 1:
                        t = hi  # last row is forced to the column remainder
                    else:
                        u = draw(DENOMINATOR_BOUND + 1)
                        t = lo + (hi - lo) * u // DENOMINATOR_BOUND
                    cells[a][b] = t
                    remaining_row -= t
                    remaining_col[j] -= t

    # remaining entries by additivity, summing whole rows over the atoms
    # below each element, then whole columns; a row of one atom is copied,
    # and so is that of 0, which is 0 in both folds; 1 decomposes through
    # the first block (any block gives the same sums)
    below = [[e] if name == ZERO else blocks[0] if name == ONE else
             [a for block in blocks for a in block if logic._leq[a][e]]
             for e, name in enumerate(logic.names)]

    def fold(table):
        return [table[atoms[0]] if len(atoms) == 1 else
                list(map(sum, zip(*map(table.__getitem__, atoms))))
                for atoms in below]

    columns = fold(list(zip(*fold(cells))))
    num = [v for row in zip(*columns) for v in row]
    return SMap.from_table(logic, num, den)


#: every shape `qlogic check` samples, and four horizontal sums with blocks
#: of more than two atoms (up to 62 elements)
SHAPES = ([(gen_mo, n) for n in range(1, 9)]
          + [(gen_boolean, n) for n in (2, 3, 4)]
          + [(horizontal_sum, sizes)
             for sizes in ([3, 3], [2, 3, 4], [4, 4, 4], [5, 5])])


@pytest.mark.parametrize("make, arg", SHAPES,
                         ids=[f"{make.__name__}-{arg}" for make, arg in SHAPES])
def test_random_smap_matches_the_reference(make, arg):
    logic = make(arg)
    for seed in range(200):
        p, expected = random_smap(logic, seed), reference_random_smap(logic, seed)
        assert p.den == expected.den, seed
        assert p.num == expected.num, seed


def test_a_second_call_reuses_the_kept_plan(monkeypatch):
    logic = horizontal_sum([2, 3])
    first = random_smap(logic, 0)
    plan = logic._kept[generators._sampling_plan]

    def refuse(logic):
        raise AssertionError("the plan was built again")

    monkeypatch.setattr(generators, "_block_indices", refuse)
    again = random_smap(logic, 0)
    assert logic._kept[generators._sampling_plan] is plan
    assert again == first and random_smap(logic, 1) != first


def _refusal(sample, logic) -> str:
    with pytest.raises(UnsupportedLattice) as caught:
        sample(logic, 0)
    return str(caught.value)


def test_a_refused_lattice_keeps_no_plan(pasting12):
    for logic in (gen_boolean(1), pasting12):
        message = _refusal(random_smap, logic)
        assert message == _refusal(reference_random_smap, logic)
        assert _refusal(random_smap, logic) == message
        assert generators._sampling_plan not in logic._kept
        assert generators._block_indices not in logic._kept
