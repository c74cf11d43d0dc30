"""An s-map on the boundary of the s-map set, as validator input.

On `horizontal_sum([2, 3])`, with atoms a, a' and b1, b2, b3, the s-map
below puts 0 on 40 of its 100 cells, a case the seeded sampler never
draws: it draws every cross-block cell strictly positive.  Every element's
row is the sum of its atoms' rows, with 1 read as the atoms of block a.
Law (iii) of the independence scan, stated without its hypothesis that c
is compatible with a and with b, fails on it at b = b2, a = b1, c = a'
(ROADMAP item 14); with the hypothesis, as the scan states it, it holds.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from qlogic import (
    ModelFile,
    conditional_from_smap,
    emit_model,
    horizontal_sum,
    independence_law_scan,
    product_equivalence_scan,
    smap_from_conditional,
    smap_law_scan,
    validate_smap,
)
from qlogic.cli import main

A_ATOMS = ("a", "a'")
B_ATOMS = ("b1", "b2", "b3")

#: the state on the atoms, then the couplings of the two blocks, by rows
STATE = dict(zip(A_ATOMS + B_ATOMS, map(F, (1, 3, 1, 1, 1), (4, 4, 4, 4, 2))))
A_TO_B = {"a": (0, 0, F(1, 4)), "a'": (F(1, 4), F(1, 4), F(1, 4))}
B_TO_A = {"b1": (0, F(1, 4)), "b2": (F(1, 4), 0), "b3": (0, F(1, 2))}


def _atom_cell(u: str, v: str) -> F:
    if u in A_ATOMS and v in B_ATOMS:
        return F(A_TO_B[u][B_ATOMS.index(v)])
    if u in B_ATOMS and v in A_ATOMS:
        return F(B_TO_A[u][A_ATOMS.index(v)])
    return STATE[u] if u == v else F(0)


@pytest.fixture(scope="module")
def boundary():
    logic = horizontal_sum([2, 3])

    def atoms(u: str) -> tuple:
        if u == "1":
            return A_ATOMS
        return tuple(w for w in A_ATOMS + B_ATOMS if logic.leq(w, u))

    cells = {(u, v): sum((_atom_cell(s, t) for s in atoms(u) for t in atoms(v)),
                         F(0))
             for u in logic.names for v in logic.names}
    return logic, cells


def test_the_boundary_smap_is_accepted_with_its_zero_cells(boundary):
    logic, cells = boundary
    assert len(cells) == 100
    assert sum(value == 0 for value in cells.values()) == 40
    p = validate_smap(logic, cells)
    assert p.values == cells
    assert p.diagonal_state().values == {
        **STATE, "0": 0, "1": 1, "b12": F(1, 2), "b13": F(3, 4), "b23": F(3, 4)}


def test_the_boundary_smap_converts_both_ways(boundary):
    logic, cells = boundary
    p = validate_smap(logic, cells)
    f = conditional_from_smap(p)
    assert f("a'", "b1") == f("a'", "b2") == 1
    assert f("b1", "a'") == F(1, 3)
    assert f("b1", "b2") == 0
    assert smap_from_conditional(f) == p
    assert smap_law_scan(p) is None
    assert product_equivalence_scan(p, f) is None


def test_the_independence_laws_hold_on_the_boundary_smap(boundary):
    logic, cells = boundary
    f = conditional_from_smap(validate_smap(logic, cells))
    assert independence_law_scan(f) is None
    # the unrestricted (iii) fails here: f(a' | b1) = f(a' | b2) = 1 and b1
    # is compatible with b2, but a' is compatible with neither
    assert f.is_independent("b2", "b1", "a'")
    assert not f.is_independent("b1", "b2", "a'")
    assert not logic.is_compatible("b1", "a'")
    assert not logic.is_compatible("b2", "a'")


def test_the_cli_accepts_the_emitted_boundary_smap(boundary, tmp_path, capsys):
    logic, cells = boundary
    model = ModelFile(logic, {}, {}, {"p": validate_smap(logic, cells)}, {})
    path = tmp_path / "boundary.qlm"
    path.write_text(emit_model(model), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert main(["derive", str(path), "--from", "smap", "--name", "p"]) == 0
    assert capsys.readouterr().err == ""
