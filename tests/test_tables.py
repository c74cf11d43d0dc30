"""Pins for the integer-table representation of s-maps and conditional
states, and for the name-keyed constructors of all three tables.

The sha256 pins were taken from the name-keyed `Fraction` implementation
that preceded the tables: `gen` output is a function of the seed and must
not move.  The conversions are compared cell by cell with a `Fraction`
oracle written here, and block inference with a copy of the name-keyed
`infer_blocks` it replaced.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import weakref
from fractions import Fraction as F
from itertools import combinations

import pytest

from qlogic import (
    build_logic,
    conditional_from_smap,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    independence_law_scan,
    infer_blocks,
    random_smap,
    roundtrip_suite,
    smap_from_conditional,
    validate_smap,
)
from qlogic.errors import (
    InvalidConditionalSystem,
    LatticeError,
    MissingTableEntry,
    UnknownElementError,
    UnsupportedLattice,
)
from qlogic import lattice
from qlogic.lattice import ONE, ZERO
from qlogic.cli import main
from qlogic.modelfile import (
    emit_cond,
    emit_logic,
    emit_smap,
    emit_state,
    parse_model_text,
    realize_model,
)
from qlogic.smaps import SMap
from qlogic.states import (
    ConditionalState,
    ConditionalSystem,
    State,
    validate_conditional_system,
)
from test_cli import pasting_model
from test_generators import _product_with_two

#: sha256 of "\n".join(emit_smap("p", random_smap(L, s))) for s in 0..4
GEN_PINS = {
    "mo-1": (
        "19d36e3109bc49a2534c30c9cdaf18abefb00b29b1530a0fd9fb551c0e8fd457",
        "658b2f5c94482a133c1179f05024b3acf5eb2f3c4147dcc6f49d7b06e7fc473c",
        "23771eddc67d561a8df25383d9af874666d35c0e6a892ec50a3b5a0c9cb2d302",
        "8b1eae68d7079d616313429e4a115570a76e2b39a33c143fd1324ee19dac16a4",
        "ed636f564394458f157463c63b0d7eb2975f6753351e82007795430002a454a2",
    ),
    "mo-2": (
        "8e2f806466dcedbb14312ddb98c08427fea735d4e445678889e792ef3b949379",
        "e308385a7c10ba73c95a28333fea395a15ca7451cac2c3a99d10acc23858ce42",
        "6e0995afa555bdfd8cb9d3cd5b8d1272f8b714b3471dd10bcbd04f57aab48857",
        "cabf08aa1270a30c2bf681dc056dd6c39f2a611d277ba40c89e784542cf37e41",
        "2fe7636f25c47a8a06e2962167cb82cddc361319b94f16d3a4ea4becf094e823",
    ),
    "mo-3": (
        "e2f27da93a6c199fc725207773f582c67efb0ab275f7176be6e89ead39426fd1",
        "599f8c44ac37bd0121bfee0fafd1c187a22c7260eba4f90a7bc97c942b3d43c3",
        "464d85ff44126b0290fad5f037e56dfd60972bc7d49d61c49c965f6806e40fe9",
        "5ec04d6c98230b26a827306a214de26fef870a859cd075798c04bd2e63ed98f5",
        "8ec91ca347e350d8e574b7d6876ffd037cf5db599dc4000915b7181a30991f1f",
    ),
    "mo-4": (
        "bd48ca463e74163c62a02b22bef1283d5d81c6ae495bc4b2a51207fdde2fd7b8",
        "265b3b20798126b7f75517cc1fd8548c85879d9464e0d169978c86b4350651f1",
        "42d4fe3ba6e05f3346421db0056ecf0f63c8a33e89211b2e9b5d31d2b615ae36",
        "fd8bc33a30a4870032ce82de85b8244a45fdfc76ff2d994b9360b9e6ee5d46ca",
        "56f5ce99d02838227b4b1fa7685e14ec1ea866d015107ecd32e047c835978f7f",
    ),
    "boolean-2": (
        "8db6fcf299d07345acb89e7bfc78d07d9795d6eba7e250911a68e4e0d1a9afe5",
        "018e8e6d98fa902e0a749aa12749d0a69ad10e3b9dd84121b9a27b5b8973ba74",
        "aa72047beea4aeb796ef6a1bb53d78f304b6fed9fb68dd412a3e35b523cce895",
        "43cd820c00b2d283421a2c677b1842188e392c1382de2f3fd6ae4e0d42b61e9e",
        "b64663fdc11e5c271125a8a5cba1edc2da4e26deabac640195bccef1bf623736",
    ),
    "boolean-3": (
        "8b20f081785f14acffb6a46029a71a9f56832962cc53be10a4e24b4238364074",
        "eb7fbfce9a507538ed0e994ef3a552f2bf77ae4adfc3076f5e3def90e4bf7931",
        "74757e115ddb65e2c538b826ac50fc42dcc395850bf89813366c08a01d0b93c6",
        "5818cb6493e6ca92217860a4d89673ea3e2a7d5473b512c0b403f2db23770a5a",
        "2623b45315218a21342e09a104a85e5a8af283dd9a88bb9e4d79c179ec26d08b",
    ),
    "boolean-4": (
        "ae2d7dafa6007b823584a6d32b69511155208e60b1c1967e7210cf97e4ef8289",
        "f0f4bbe1b319f8ba61232d85db725002665ba85d8d8a9a0e1a5be739844bacea",
        "e3cb874c3db12a69eb176b639bd09f1602f7aa9f7dfb5ec01ed3218dec74e89c",
        "42a91dfae8e88ccd2b684e035fdbb0bc79f4e2df82ed4a4bc6daeb6582a6dc04",
        "8c7f6c926780e71a3892abdfccb69d1b89df8c16912e9fdeacf00b9d4375fcbd",
    ),
    "hs-3-4": (
        "934dc6020c143a0b4ee0b80589982188eccc70d6050809e866d4142454c6b5d0",
        "37ede147ee06f5e5bc2ff082a1d29ca9831720f51a082f79ddd31e63ad7b45f2",
        "44e579c8e487b0d69d605ff06c3b783b392e09fd89b3f639fe9090cb82196f6c",
        "29e0815bc387cf9355ffdd328d08d5281d0fb30f3ad41d6484f41ce424b8e2ec",
        "b4f3b83483fcf4b86b3383e22e95b7e7a0f396a5d643f6978b881cf3a162e3de",
    ),
}

PIN_LATTICES = {f"mo-{n}": (gen_mo, n) for n in (1, 2, 3, 4)}
PIN_LATTICES.update({f"boolean-{n}": (gen_boolean, n) for n in (2, 3, 4)})
PIN_LATTICES["hs-3-4"] = (horizontal_sum, [3, 4])
PIN_LATTICES.update({"mo-8": (gen_mo, 8), "hs-2-3-4": (horizontal_sum, [2, 3, 4])})


@pytest.mark.parametrize("label", sorted(GEN_PINS))
def test_random_smap_output_is_pinned(label):
    make, arg = PIN_LATTICES[label]
    logic = make(arg)
    for seed, pin in enumerate(GEN_PINS[label]):
        text = "\n".join(emit_smap("p", random_smap(logic, seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == pin, (label, seed)


#: sha256 of the whole `gen` output (logic, diagonal state and s-map, as
#: `qlogic gen FAMILY N --seed S` prints it) for s in 0..2, on the smallest
#: and largest stock sizes and a horizontal sum of three unequal blocks
GEN_OUTPUT_PINS = {
    "mo-1": (
        "b14e55bfa8f2c0ab3b8dd5b029a97fd0b42c7368c1ef2944bfd02e9a2653da01",
        "d3972afe6db23be4024f8097ffe084d40cf96847db26fee49ce8687669cf9bf7",
        "f95eed8c21d111136184b80d160c6cfa791480adab7693f2b81b0b2c7a4f5344",
    ),
    "mo-8": (
        "52d558b3cffdf7922378a7627a898316ea283fe07b7a29da04cfd3654d7e74ac",
        "8f4e7b9a6a75e533e3b4fb8e1e1db153f723e52de552f9e7eb1359aec620858e",
        "9dbc1e6ab8ed41760d1d21f8e881bd41f83abe525041574986447054e016ffec",
    ),
    "boolean-2": (
        "98d65df14d415ce9d59bffa9744e91863f289d8cf68111cd848348224c4e09c7",
        "31a017477efca51f7700a2747681cdc770533a81d3dec34cce88a5fc573abd2a",
        "ed77fc3055cb63b8b0c2282d493930af6851f98be5ccca4911ffa143801344b1",
    ),
    "boolean-4": (
        "320408d52f96e7c00296e895fa7944f5a7f13bea94ab2135f16387024bd413e6",
        "a8915786e5d5333575c7fff6e2d3ea1c596c7317f3d6331c919465aa62601942",
        "8f4f27f053e805343a5f00047ad9b3df0ea9ea76b7f2140999b6bb6b7e01aeb7",
    ),
    "hs-2-3-4": (
        "8238216f0a18b0cee50cb49d104c59464519743a04b29bf35f6ee46efe733062",
        "899592cc98bda22ded0ccb54f9cd1d81d75081f7af01ba956400ee5309f077aa",
        "3c91f2adbd9d7b61f333f224a58ac47ae3d0479bf1b8d52d7f0ec825d3cdb057",
    ),
}


@pytest.mark.parametrize("label", sorted(GEN_OUTPUT_PINS))
def test_extreme_stock_sizes_check_and_gen(label, capsys):
    """`check` passes and `gen` output is unchanged on the degenerate and
    largest stock sizes: mo(1) and boolean(2) are one block, the element 1
    is orthogonal to 0 alone, and the additivity folds of `random_smap` sum
    over one atom or none."""
    make, arg = PIN_LATTICES[label]
    logic = make(arg)
    for seed in range(3):
        report = roundtrip_suite(logic, 3, seed)
        assert report.ok and report.trials == 3, (label, seed, report)
    for seed, pin in enumerate(GEN_OUTPUT_PINS[label]):
        p = random_smap(logic, seed)
        text = "\n\n".join("\n".join(chunk) for chunk in (
            emit_logic(logic), emit_state("m", p.diagonal_state()),
            emit_smap("p", p)))
        assert hashlib.sha256(text.encode()).hexdigest() == pin, (label, seed)
        if make is not horizontal_sum:
            family, n = label.split("-")
            assert main(["gen", family, n, "--seed", str(seed)]) == 0
            assert capsys.readouterr().out == text + "\n"


#: sha256 of the emitted s-map and of its conditional state, random_smap(L, 0)
#: on horizontal_sum([3, 3]), as emitted when each cell was read by name
EMIT_PINS = (
    "5f23cbd875aa0c114c529cd75fe0952e3b9691a47944ce9ded5c997c9c99052d",
    "f5a8b2a4040407cd730b548e0c146a0416a7ac8f7dc833601c0d5d6433691409",
)


def test_emitted_tables_are_pinned():
    """Emission walks the integer tables; the text is what reading each
    cell by name printed.  A hole still raises the read's error."""
    p = random_smap(horizontal_sum([3, 3]), 0)
    f = conditional_from_smap(p)
    texts = "\n".join(emit_smap("p", p)), "\n".join(emit_cond("f", f))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == EMIT_PINS
    short = dict(p.values)
    del short["a2", "b13"]
    with pytest.raises(MissingTableEntry) as exc:
        emit_smap("p", SMap(p.logic, short))
    assert exc.value.key == ("a2", "b13")
    short = dict(f.values)
    del short["b13", "a2"]
    with pytest.raises(MissingTableEntry) as exc:
        emit_cond("f", ConditionalState(f.logic, f.cs, short))
    assert exc.value.key == ("b13", "a2")


# -- the conversions against a Fraction oracle --------------------------------


def oracle_conditional(p) -> dict:
    """f(a | b) = p(a, b) / p(b, b) on every b with p(b, b) > 0."""
    names = p.logic.names
    return {(a, b): p(a, b) / p(b, b)
            for b in names if p(b, b) > 0 for a in names}


def oracle_smap(f) -> dict:
    """p(a, b) = f(a | b) f(b | 1), and p(a, 0) = 0."""
    names = f.logic.names
    return {(a, b): F(0) if b == ZERO else f(a, b) * f(b, ONE)
            for a in names for b in names}


def assert_conversions_match_oracle(p, f):
    got = conditional_from_smap(p)
    want = oracle_conditional(p)
    assert {b for _, b in want} == set(got.cs.members)
    for (a, b), v in want.items():
        assert got(a, b) == v, (a, b)
    got = smap_from_conditional(f)
    for (a, b), v in oracle_smap(f).items():
        assert got(a, b) == v, (a, b)


def test_conversions_match_oracle_on_samples(sampled_lattices):
    for logic in sampled_lattices.values():
        for seed in range(3):
            p = random_smap(logic, seed)
            f = conditional_from_smap(p)
            assert_conversions_match_oracle(p, f)
            assert_conversions_match_oracle(smap_from_conditional(f), f)


def test_conversions_match_oracle_on_pasting(pasting12):
    text, _ = pasting_model(pasting12)
    model = realize_model(parse_model_text(text))
    assert model.logic == pasting12
    assert_conversions_match_oracle(model.smaps["p"], model.conds["f"])


def test_conversions_match_oracle_on_example21(example21):
    assert_conversions_match_oracle(example21.smaps["p"], example21.conds["f"])


# -- block inference against the name-keyed version ----------------------------


def reference_infer_blocks(logic):
    """The name-keyed block inference that the index-table one replaced."""
    atoms = logic.atoms()
    block_of = {}
    blocks = []
    for atom in atoms:
        if atom in block_of:
            continue
        component = [atom]
        block_of[atom] = len(blocks)
        frontier = [atom]
        while frontier:
            current = frontier.pop()
            for other in atoms:
                if other not in block_of and logic.is_orthogonal(current, other):
                    block_of[other] = len(blocks)
                    component.append(other)
                    frontier.append(other)
        blocks.append(sorted(component, key=logic.index))
    for block in blocks:
        if len(block) < 2:
            raise UnsupportedLattice(f"block of {block[0]} has a single atom")
        for a, b in combinations(block, 2):
            if not logic.is_orthogonal(a, b):
                raise UnsupportedLattice(
                    f"atoms {a} and {b} share a block but are not orthogonal")
        if logic.join_all(block) != ONE:
            raise UnsupportedLattice(f"block of {block[0]} does not join to 1")
    for e in logic.names:
        if e in (ZERO, ONE):
            continue
        below = [a for a in atoms if logic.leq(a, e)]
        if not below or len({block_of[a] for a in below}) != 1:
            raise UnsupportedLattice(f"element {e} spans several blocks")
        if logic.join_all(below) != e:
            raise UnsupportedLattice(f"element {e} is not a join of atoms")
    return tuple(tuple(b) for b in blocks)


def blocks_or_message(infer, logic):
    try:
        return infer(logic)
    except UnsupportedLattice as exc:
        return str(exc)


def random_logics(seed: int, tries: int) -> list:
    """The inputs among `tries` seeded random ones that `build_logic`
    accepts: 4 to 10 elements besides the bounds, paired off as
    complements, under random order pairs along a random linear extension
    together with their complement-reversed mirrors."""
    rng = random.Random(seed)
    out = []
    for _ in range(tries):
        inner = [f"e{k}" for k in range(2 * rng.randint(2, 5))]
        paired = rng.sample(inner, len(inner))
        complements = list(zip(paired[::2], paired[1::2]))
        comp = dict(complements + [(b, a) for a, b in complements])
        density = rng.choice((0.1, 0.2, 0.3))
        order = [(a, b) for a, b in combinations(rng.sample(inner, len(inner)), 2)
                 if rng.random() < density]
        order += [(comp[b], comp[a]) for a, b in order]
        try:
            out.append(build_logic([ZERO, ONE] + inner, order, complements))
        except LatticeError:
            pass
    return out


def test_infer_blocks_matches_reference(sampled_lattices, pasting12, mo2):
    cases = dict(sampled_lattices)
    cases.update({"pasting12": pasting12,
                  "product-with-two": _product_with_two(mo2),
                  "boolean-1": gen_boolean(1),
                  "hs-2-3-4": horizontal_sum([2, 3, 4]),
                  "boolean-2-with-two": _product_with_two(gen_boolean(2)),
                  "hs-2-3-with-two": _product_with_two(horizontal_sum([2, 3]))})
    corpus = random_logics(2003, 2000)
    assert len(corpus) >= 150
    cases.update((f"random-{k}", logic) for k, logic in enumerate(corpus))
    verdicts = set()
    for label, logic in cases.items():
        want = blocks_or_message(reference_infer_blocks, logic)
        # twice: the second answer comes from the lattice's memo
        assert blocks_or_message(infer_blocks, logic) == want, label
        assert blocks_or_message(infer_blocks, logic) == want, label
        verdicts.add(type(want))
    assert verdicts == {tuple, str}


# -- the tables themselves ------------------------------------------------------


def test_tables_are_canonical(sampled_lattices):
    """Built from names or by a producer, equal objects have equal tables:
    numerators over a denominator they share no factor with."""
    for logic in sampled_lattices.values():
        p = random_smap(logic, 11)
        assert math.gcd(p.den, *p.num) == 1
        assert SMap(logic, p.values) == p
        assert SMap(logic, p.values).num == p.num
        f = conditional_from_smap(p)
        assert all(math.gcd(den, *num) == 1 for num, den in f.columns.values())
        assert list(f.columns) == sorted(f.columns)
        assert ConditionalState(logic, f.cs, f.values) == f
        assert smap_from_conditional(f) == p
        # equal on a logic built again, past the memo; one cell changed is not
        twin = lattice._build_logic(logic.names, logic.covers(),
                                    [(a, logic.complement(a)) for a in logic.names])
        assert twin is not logic and twin == logic
        assert SMap.from_table(twin, p.num, p.den) == p
        changed = list(p.num)
        changed[len(logic) + 1] += 1
        assert SMap.from_table(twin, changed, p.den) != p
        cs = ConditionalSystem(twin, f.cs.members)
        assert ConditionalState.from_columns(twin, cs, f.columns) == f
        a, (num, den) = next(iter(f.columns.items()))
        changed = {**f.columns, a: ([num[0] + 1, *num[1:]], den)}
        assert ConditionalState.from_columns(twin, cs, changed) != f
        other = ConditionalSystem(twin, f.cs.members - {logic.names[a]})
        assert ConditionalState.from_columns(twin, other, f.columns) != f


def test_name_constructors_keep_holes(example21):
    """An unvalidated table may lack entries: they read as missing, and the
    validators reject them at the first hole in index order."""
    p, f = example21.smaps["p"], example21.conds["f"]
    short = dict(p.values)
    del short["a", "b'"], short["b", "a"]
    partial = SMap(p.logic, short)
    assert partial.num.count(None) == 2
    assert partial.values == short
    with pytest.raises(MissingTableEntry) as exc:
        partial("a", "b'")
    assert exc.value.key == ("a", "b'")
    with pytest.raises(MissingTableEntry) as exc:
        validate_smap(p.logic, short)
    assert exc.value.key == ("a", "b'")
    short = dict(f.values)
    del short["b", "a'"]
    partial = ConditionalState(f.logic, f.cs, short)
    assert partial.values == short
    with pytest.raises(MissingTableEntry) as exc:
        partial("b", "a'")
    assert exc.value.key == ("b", "a'")
    with pytest.raises(MissingTableEntry) as exc:
        partial.condition("a'")
    assert exc.value.key == ("b", "a'")
    partial = State(f.logic, {"a": "2/5"})
    with pytest.raises(MissingTableEntry) as exc:
        partial("b")
    assert exc.value.key == "b"
    assert repr(partial) == "State(a: 2/5)"


def test_cell_reads_name_the_missing_key(example21):
    """`p(a, b)` and `f(b | a)` read one cell of the table; an unknown name
    in either place, a hole, or an event outside the system raises
    MissingTableEntry with the key as it was asked for."""
    p, f = example21.smaps["p"], example21.conds["f"]
    partial = SMap(p.logic, {("a", "b"): "1/4"})
    g = ConditionalState(f.logic, validate_conditional_system(f.logic, {"b"}),
                         {("a", "b"): "1/4"})
    for read, key, what in ((p, ("zz", "a"), "s-map"), (p, ("a", "zz"), "s-map"),
                            (partial, ("a", "b'"), "s-map"),
                            (partial, ("0", "0"), "s-map"),
                            (f, ("zz", "a"), "conditional state"),
                            (f, ("a", "zz"), "conditional state"),
                            (f, ("b", "0"), "conditional state"),
                            (g, ("b", "b"), "conditional state"),
                            (g, ("a", "a"), "conditional state")):
        with pytest.raises(MissingTableEntry) as exc:
            read(*key)
        assert (exc.value.what, exc.value.key) == (what, key)
    assert partial("a", "b") == g("a", "b") == F(1, 4)


def test_name_constructors_resolve_names_and_coerce_values(example21):
    """Built from names, each entry in input order has its names resolved,
    then (for a conditional state) its event checked against the system,
    then its value coerced with `frac`, as the validators do.  An s-map's
    `values` then reads the table in `logic.names` order, not input order;
    a state keeps its dict in input order."""
    p, f = example21.smaps["p"], example21.conds["f"]
    logic, cs = p.logic, f.cs
    q = SMap(logic, {("b", "a'"): 3, ("a", "a"): "1/2"})
    assert list(q.values.items()) == [(("a", "a"), F(1, 2)), (("b", "a'"), F(3))]
    assert q("a", "a") == F(1, 2) and q.num.count(None) == len(q.num) - 2
    g = ConditionalState(logic, cs, {("a", "b"): "0.25", ("1", "b"): 1})
    assert g.values == {("a", "b"): F(1, 4), ("1", "b"): F(1)}
    assert g.columns[logic.index("b")][0][logic.index("a")] == 1

    with pytest.raises(TypeError, match="refusing float"):
        SMap(logic, {("a", "a"): 0.5})
    with pytest.raises(TypeError, match="refusing float"):
        ConditionalState(logic, cs, {("a", "b"): 0.5})
    with pytest.raises(UnknownElementError) as exc:
        SMap(logic, {("a", "zz"): 0.5})  # the name is read before the value
    assert exc.value.token == "zz"
    with pytest.raises(UnknownElementError) as exc:
        ConditionalState(logic, cs, {("zz", "b"): 0})
    assert exc.value.token == "zz"
    with pytest.raises(TypeError):  # the first entry fails first
        SMap(logic, {("a", "a"): 0.5, ("zz", "a"): 0})
    with pytest.raises(InvalidConditionalSystem) as exc:
        ConditionalState(logic, cs, {("a", "b"): 0, ("b", "0"): "x"})
    assert str(exc.value) == ("entry (b | 0) conditions outside the "
                              "conditional system")

    m = State(logic, {"b'": 1, "a": "1/2"})
    assert list(m.values.items()) == [("b'", F(1)), ("a", F(1, 2))]
    assert m("a") == F(1, 2)
    with pytest.raises(UnknownElementError) as exc:
        State(logic, {"zz": 0})
    assert exc.value.token == "zz"
    with pytest.raises(TypeError, match="refusing float"):
        State(logic, {"a": 0.5})
    with pytest.raises(TypeError):  # the first entry fails first
        State(logic, {"a": 0.5, "zz": 0})


# -- `values`, a read-only view of the table -----------------------------------


def test_values_is_a_mapping_in_names_order(example21):
    """`values` is a read-only mapping over the table: holes and unknown
    names are missing keys, iteration follows `logic.names` (an s-map row
    by row, a conditional state member by member, b in names order)."""
    p, f = example21.smaps["p"], example21.conds["f"]
    names = p.logic.names
    members = [a for a in names if a in f.cs]
    assert list(p.values) == [(a, b) for a in names for b in names]
    assert list(f.values) == [(b, a) for a in members for b in names]
    assert len(p.values) == 36 and len(f.values) == 30
    assert p.values["a", "b"] == p("a", "b") == F(3, 25)
    assert f.values["b", "a'"] == f("b", "a'") == F(11, 30)
    assert ("a", "b") in p.values and ("zz", "b") not in p.values
    assert ("b", "0") not in f.values  # 0 conditions nothing
    assert p.values.get(("a", "zz")) is None
    assert f.values.get(("b", "0"), "none") == "none"
    for view, key in ((p.values, ("zz", "a")), (p.values, ("a",)),
                      (p.values, "ab"), (p.values, ["a", "b"]),
                      (f.values, ("b", "0")), (f.values, ("zz", "a"))):
        with pytest.raises(KeyError):
            view[key]
    short = dict(p.values)
    del short["a", "b'"]
    partial = SMap(p.logic, short)
    assert len(partial.values) == 35 and ("a", "b'") not in partial.values
    with pytest.raises(KeyError):
        partial.values["a", "b'"]
    assert dict(partial.values) == short
    assert list(partial.values) == [k for k in p.values if k != ("a", "b'")]
    with pytest.raises(TypeError):
        p.values["a", "b"] = F(0)
    assert repr(p.values) == repr(dict(p.values))


def test_values_equality(example21):
    """A view equals a dict or another view with the same cells, either
    way round; a view of a partial table does not equal the full one.  An
    s-map or a conditional state equals neither its view nor the other
    kind, and is unhashable."""
    p, f = example21.smaps["p"], example21.conds["f"]
    for obj in (p, f):
        table = dict(obj.values)
        assert obj.values == table and table == obj.values
        assert not obj.values != table
        key = next(iter(table))
        changed = {**table, key: table[key] + 1}
        assert obj.values != changed and changed != obj.values
        assert obj.values != {k: v for k, v in table.items() if k != key}
        del table[key]
        partial = (SMap(p.logic, table) if obj is p
                   else ConditionalState(f.logic, f.cs, table))
        assert partial.values != obj.values and obj.values != partial.values
        assert partial.values == table and table == partial.values
        assert obj.values != list(obj.values)
        # an object compares its tables with its own kind only
        assert obj != obj.values and obj.values != obj
        with pytest.raises(TypeError):
            hash(obj)
    assert p.__eq__(f) is NotImplemented and f.__eq__(p) is NotImplemented
    assert smap_from_conditional(f).values == p.values
    assert conditional_from_smap(p).values == f.values
    assert p.values != f.values
    # a member with no entries has no keys, like a member outside the system
    empty = ConditionalState(f.logic, f.cs, {("a", "b"): "1/4"})
    assert empty.values == {("a", "b"): F(1, 4)}
    assert empty.values == ConditionalState(
        f.logic, validate_conditional_system(f.logic, {"b"}),
        {("a", "b"): "1/4"}).values


def _shuffled_literals(values: dict, seed: int) -> dict:
    """`values` in a shuffled order, each value as an "n/d" string."""
    items = list(values.items())
    random.Random(seed).shuffle(items)
    return {key: f"{v.numerator}/{v.denominator}" for key, v in items}


def test_values_read_like_the_name_keyed_dicts(sampled_lattices):
    """Built by a producer, `dict(obj.values)` is the dict of every cell
    as a Fraction; read from names, it is the dict that was read, with the
    values coerced by `frac`."""
    for logic in sampled_lattices.values():
        names, n = logic.names, len(logic)
        p = random_smap(logic, 5)
        f = conditional_from_smap(p)
        assert dict(p.values) == {(a, b): F(p.num[i * n + j], p.den)
                                  for i, a in enumerate(names)
                                  for j, b in enumerate(names)}
        assert dict(f.values) == {(b, names[a]): F(v, den)
                                  for a, (num, den) in f.columns.items()
                                  for b, v in zip(names, num)}
        for obj, rebuild in ((p, lambda v: SMap(logic, v)),
                             (f, lambda v: ConditionalState(logic, f.cs, v))):
            read = _shuffled_literals(dict(obj.values), n)
            for key in list(read)[::3]:
                del read[key]
            assert dict(rebuild(read).values) == {key: F(v) for key, v in
                                                  read.items()}


def test_values_make_no_reference_cycle(example21):
    """No object keeps its view, so an s-map or a conditional state whose
    `values` was read is freed by reference counting alone."""
    p, f = example21.smaps["p"], example21.conds["f"]
    gc.disable()
    try:
        q = SMap(p.logic, p.values)
        g = conditional_from_smap(q)
        assert q.values == p.values and g.values == f.values
        assert independence_law_scan(g) is None
        refs = weakref.ref(q), weakref.ref(g)
        del q, g
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_check_trial_stays_on_integers(monkeypatch, mo3):
    """Sampling, validation, both conversions, the round-trip comparisons
    and the law scans build no Fraction: the statistics scan draws its two
    observables as integer value vectors."""
    roundtrip_suite(mo3, 1, 0)  # lattice memos filled
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    assert roundtrip_suite(mo3, 10, 5).ok
    assert built == []
