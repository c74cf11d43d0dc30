from __future__ import annotations

import pytest

from qlogic import build_logic, gen_boolean, gen_mo, horizontal_sum
from qlogic.modelfile import parse_model_text, realize_model
from qlogic.repro import fixture_text


@pytest.fixture(scope="session")
def mo2():
    return gen_mo(2)


@pytest.fixture(scope="session")
def mo3():
    return gen_mo(3)


@pytest.fixture(scope="session")
def boolean3():
    return gen_boolean(3)


@pytest.fixture(scope="session")
def sampled_lattices():
    """Every lattice shape the seeded samplers are tested on, by label."""
    shapes = {f"mo-{n}": gen_mo(n) for n in (2, 3, 4)}
    shapes.update({f"boolean-{n}": gen_boolean(n) for n in (2, 3, 4)})
    shapes["hs-3-4"] = horizontal_sum([3, 4])
    return shapes


@pytest.fixture(scope="session")
def pasting12():
    """Two 8-element Boolean blocks, atoms {x, a1, a2} and {x, b1, b2},
    pasted along {0, x, x', 1}: a 12-element orthomodular lattice that is
    not a horizontal sum, so `infer_blocks` rejects it."""
    elements = ["0", "1", "x", "x'"]
    order, complements = [], [("x", "x'")]
    for s in "ab":
        s1, s2 = f"{s}1", f"{s}2"
        elements += [s1, s2, f"{s1}'", f"{s2}'"]
        order += [(s1, "x'"), (s2, "x'"), ("x", f"{s1}'"), (s2, f"{s1}'"),
                  ("x", f"{s2}'"), (s1, f"{s2}'")]
        complements += [(s1, f"{s1}'"), (s2, f"{s2}'")]
    return build_logic(elements, order, complements)


@pytest.fixture(scope="session")
def example21():
    """The packaged six-element model with one conditional state, one s-map
    and two observables, fully realized."""
    return realize_model(parse_model_text(fixture_text("2.1")))


@pytest.fixture(scope="session")
def example22_corrected():
    return realize_model(parse_model_text(fixture_text("2.2-corrected")))
