"""The stock lattice constructors against references: `gen_boolean`,
`horizontal_sum` and `gen_mo` as they were when each enumerated its
blocks' subsets its own way, kept here verbatim.  Both must build the same
lattice (element order, order, complements, meets and joins) or raise the
same error class with the same message.
"""

from __future__ import annotations

import string
from itertools import combinations

import pytest

from qlogic import build_logic, gen_boolean, gen_mo, horizontal_sum
from qlogic.errors import SizeOutOfRange
from qlogic.lattice import ONE, ZERO, QuantumLogic


def reference_gen_boolean(n: int) -> QuantumLogic:
    if not 1 <= n <= 4:
        raise SizeOutOfRange(f"boolean family supports 1..4 points, got {n}")
    points = list(range(1, n + 1))
    subsets = []
    for r in range(n + 1):
        subsets.extend(combinations(points, r))

    def name(s):
        if not s:
            return ZERO
        if len(s) == n:
            return ONE
        return "s" + "".join(str(i) for i in s)

    elements = [name(s) for s in subsets]
    order = [(name(s), name(t)) for s in subsets for t in subsets
             if set(s) <= set(t)]
    complements = [(name(s), name(tuple(i for i in points if i not in s)))
                   for s in subsets]
    return build_logic(elements, order, complements)


def reference_horizontal_sum(block_sizes) -> QuantumLogic:
    sizes = list(block_sizes)
    if not sizes or any(k < 2 for k in sizes):
        raise SizeOutOfRange("each block needs at least 2 atoms")
    if len(sizes) > len(string.ascii_lowercase):
        raise SizeOutOfRange("too many blocks")

    elements = [ZERO, ONE]
    order = []
    complements = []
    for letter, k in zip(string.ascii_lowercase, sizes):
        if k == 2:
            names = {(1,): letter, (2,): letter + "'"}
        else:
            names = {}
            for r in range(1, k):
                for s in combinations(range(1, k + 1), r):
                    names[s] = letter + "".join(str(i) for i in s)
        elements.extend(names[s] for s in sorted(names, key=lambda s: (len(s), s)))
        full = tuple(range(1, k + 1))
        for s, sname in names.items():
            rest = tuple(i for i in full if i not in s)
            if rest:
                complements.append((sname, names[rest]))
            for t, tname in names.items():
                if set(s) < set(t):
                    order.append((sname, tname))
    return build_logic(elements, order, complements)


def reference_gen_mo(n: int) -> QuantumLogic:
    if not 1 <= n <= 8:
        raise SizeOutOfRange(f"mo family supports 1..8 blocks, got {n}")
    return reference_horizontal_sum([2] * n)


def outcome(make, arg) -> tuple:
    try:
        logic = make(arg)
    except SizeOutOfRange as exc:
        return type(exc).__name__, str(exc)
    return logic.names, logic._leq, logic._comp, logic._meet, logic._join


def block_multisets(total=2, smallest=2):
    """Every multiset of block sizes 2..6, as a nondecreasing list, whose
    horizontal sum has at most 64 elements (the empty one included)."""
    yield []
    for k in range(smallest, 7):
        if total + 2 ** k - 2 <= 64:
            for rest in block_multisets(total + 2 ** k - 2, k):
                yield [k, *rest]


SHAPES = [*block_multisets(), [2] * 26, [2] * 31, [1], [2] * 27, [7], [6, 3]]


@pytest.mark.parametrize("n", range(6))
def test_gen_boolean_matches_the_reference(n):
    assert outcome(gen_boolean, n) == outcome(reference_gen_boolean, n)


@pytest.mark.parametrize("n", range(10))
def test_gen_mo_matches_the_reference(n):
    assert outcome(gen_mo, n) == outcome(reference_gen_mo, n)


def test_horizontal_sum_matches_the_reference():
    assert len(SHAPES) == 489 and [6] in SHAPES and [2] * 31 in SHAPES
    for sizes in SHAPES:
        assert outcome(horizontal_sum, sizes) == \
            outcome(reference_horizontal_sum, sizes), sizes
