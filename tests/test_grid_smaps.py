"""Every s-map on a grid: the boundary of the s-map set that the seeded
sampler never reaches.

On a horizontal sum, an s-map is a state m plus, for each ordered pair of
distinct blocks, a coupling: a nonnegative table over the first block's
atoms times the second's, with row sums m on the first block and column
sums m on the second.  Within a block the table is diagonal.  An element's
row is the sum of its atoms' rows, with 1 read as the atoms of the first
block.  The enumerator below builds every such s-map whose cells are
multiples of 1/D, as the compositions of D over each block times every
integer coupling with those margins, and shares no code with the package.
Each grid s-map runs through the validator, both conversions and the four
law scans of a `check` trial.  Where the diagonal vanishes at a nonzero
element, the conversion must refuse with `DegenerateDiagonal` naming the
first such element; every other s-map must pass everything.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

import pytest

from qlogic import (
    conditional_from_smap,
    gen_mo,
    horizontal_sum,
    infer_blocks,
    smap_from_conditional,
    validate_smap,
)
from qlogic.errors import DegenerateDiagonal
from qlogic.generators import (
    independence_law_scan,
    product_equivalence_scan,
    smap_law_scan,
    statistics_law_scan,
)
from qlogic.lattice import ONE, ZERO
from qlogic.states import _check_conditional


def compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def couplings(rows, columns):
    """Every nonnegative integer table with these row and column sums."""
    if not rows:
        if not any(columns):
            yield ()
        return
    for row in compositions(rows[0], len(columns)):
        if all(v <= c for v, c in zip(row, columns)):
            rest = [c - v for c, v in zip(columns, row)]
            for below in couplings(rows[1:], rest):
                yield (row, *below)


def grid_smaps(logic, D: int):
    """Every s-map on the horizontal sum `logic` whose cells are multiples
    of 1/D, as a table keyed by name pairs."""
    blocks = infer_blocks(logic)
    pairs = [(i, j) for i in range(len(blocks)) for j in range(len(blocks))
             if i != j]
    below = {u: blocks[0] if u == ONE else
             tuple(a for block in blocks for a in block if logic.leq(a, u))
             for u in logic.names}
    for masses in product(*(compositions(D, len(block)) for block in blocks)):
        m = {a: w for block, ws in zip(blocks, masses) for a, w in zip(block, ws)}
        atom_cell = {(a, b): m[a] if a == b else 0
                     for block in blocks for a in block for b in block}
        tables = [list(couplings([m[a] for a in blocks[i]],
                                 [m[b] for b in blocks[j]])) for i, j in pairs]
        for chosen in product(*tables):
            for (i, j), table in zip(pairs, chosen):
                for a, row in zip(blocks[i], table):
                    atom_cell.update(((a, b), v) for b, v in zip(blocks[j], row))
            yield {(u, v): F(sum(atom_cell[s, t] for s in below[u]
                                 for t in below[v]), D)
                   for u in logic.names for v in logic.names}


def one_way_independence(p) -> bool:
    """Whether some ordered pair of elements other than 0 and 1, neither
    comparable nor orthogonal, is independent (given 1) one way only."""
    logic = p.logic
    inner = [u for u in logic.names if u not in (ZERO, ONE)]
    return any(p.is_independent_pair(u, v) != p.is_independent_pair(v, u)
               for u in inner for v in inner
               if not (logic.leq(u, v) or logic.leq(v, u)
                       or logic.is_orthogonal(u, v)))


#: (lattice, D) -> s-maps, DegenerateDiagonal, passed, one-way independent
GRID_COUNTS = {
    ("mo-2", 4): (57, 16, 41, 4),
    ("hs-2-3", 4): (264, 162, 102, 36),
}

LATTICES = {"mo-2": lambda: gen_mo(2), "hs-2-3": lambda: horizontal_sum([2, 3])}


@pytest.mark.parametrize("label, D", sorted(GRID_COUNTS))
def test_every_grid_smap_passes_or_names_its_vanishing_diagonal(label, D):
    logic = LATTICES[label]()
    total = degenerate = passed = one_way = 0
    for k, cells in enumerate(grid_smaps(logic, D)):
        total += 1
        p = validate_smap(logic, cells)
        assert smap_law_scan(p) is None, k
        one_way += one_way_independence(p)
        vanishing = [b for b in logic.names if b != ZERO and cells[b, b] == 0]
        try:
            f = conditional_from_smap(p)
        except DegenerateDiagonal as exc:
            assert vanishing and exc.element == vanishing[0], k
            degenerate += 1
            continue
        assert not vanishing, k
        _check_conditional(f)
        assert smap_from_conditional(f) == p, k
        assert product_equivalence_scan(p, f) is None, k
        assert independence_law_scan(f) is None, k
        assert statistics_law_scan(p, random.Random(k)) is None, k
        passed += 1
    assert (total, degenerate, passed, one_way) == GRID_COUNTS[label, D]


def test_the_mo2_grid_has_the_closed_form_count():
    """On mo(2), with block masses (α, D - α) and (β, D - β), each of the
    two ordered pairs of blocks has min(α, β) - max(0, α + β - D) + 1
    couplings."""
    D = 4
    closed = sum((min(alpha, beta) - max(0, alpha + beta - D) + 1) ** 2
                 for alpha in range(D + 1) for beta in range(D + 1))
    assert closed == sum(1 for _ in grid_smaps(gen_mo(2), D)) == 57
