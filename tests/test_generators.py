"""Stock lattices, seeded samplers, and the brute-force cross-checks."""

from __future__ import annotations

import copy
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import (
    brute_force_compatible,
    build_logic,
    distributivity_scan,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    infer_blocks,
    oracle_scan,
    random_smap,
    random_state,
    roundtrip_suite,
    validate_smap,
    validate_state,
)
from qlogic import generators, lattice
from qlogic.errors import SizeOutOfRange, UnsupportedLattice
from qlogic.generators import DENOMINATOR_BOUND
from qlogic.smaps import SMap


@pytest.mark.parametrize("n,size", [(1, 2), (2, 4), (3, 8), (4, 16)])
def test_boolean_sizes(n, size):
    logic = gen_boolean(n)
    assert len(logic) == size
    assert len(logic.atoms()) == n


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_mo_sizes(n):
    logic = gen_mo(n)
    assert len(logic) == 2 * n + 2
    assert len(logic.atoms()) == 2 * n
    blocks = infer_blocks(logic)
    assert len(blocks) == n
    assert all(len(block) == 2 for block in blocks)


def test_mo2_matches_fixture_lattice(example21):
    assert gen_mo(2) == example21.logic


def test_mo1_is_boolean_shaped():
    logic = gen_mo(1)
    assert set(logic.names) == {"0", "1", "a", "a'"}
    for x in logic.names:
        for y in logic.names:
            assert logic.is_compatible(x, y)


def test_mixed_horizontal_sum():
    logic = horizontal_sum([2, 3])
    # 2 bounds + 2 + (2^3 - 2) proper subsets of the three-atom block
    assert len(logic) == 10
    blocks = infer_blocks(logic)
    assert blocks == (("a", "a'"), ("b1", "b2", "b3"))
    assert logic.complement("b1") == "b23"
    assert logic.join("b1", "b2") == "b12"
    assert not logic.is_compatible("a", "b1")
    assert oracle_scan(logic) is None


def test_size_rejections():
    for bad in (0, 5):
        with pytest.raises(SizeOutOfRange):
            gen_boolean(bad)
    for bad in (0, 9):
        with pytest.raises(SizeOutOfRange):
            gen_mo(bad)
    with pytest.raises(SizeOutOfRange):
        horizontal_sum([2, 1])
    with pytest.raises(SizeOutOfRange):
        horizontal_sum([])
    with pytest.raises(SizeOutOfRange, match="too many blocks"):
        horizontal_sum([2] * 27)


def test_an_oversized_sum_is_refused_before_any_block_is_built(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("a block's subsets were enumerated")

    monkeypatch.setattr(generators, "combinations", no_enumeration)
    for sizes, count in (([16], 65536), ([7], 128), ([6, 3], 70)):
        with pytest.raises(SizeOutOfRange) as caught:
            horizontal_sum(sizes)
        assert str(caught.value) == (f"{count} elements exceeds the supported "
                                     f"maximum 64")
    # 2^k of such a block is not even counted
    with pytest.raises(SizeOutOfRange, match="^a block of 1000000000 atoms has "
                                             "over 64 elements$"):
        horizontal_sum([10 ** 9])


def _product_with_two(base):
    """The direct product of a logic with the two-element chain: a valid
    quantum logic that is not a horizontal sum of Boolean blocks."""

    def token(x, i):
        if (x, i) == ("0", 0):
            return "0"
        if (x, i) == ("1", 1):
            return "1"
        return f"{x}.{i}"

    elements = [token(x, i) for x in base.names for i in (0, 1)]
    order = [(token(x, i), token(y, j))
             for x in base.names for y in base.names
             for i in (0, 1) for j in (0, 1)
             if base.leq(x, y) and i <= j]
    complements = [(token(x, i), token(base.complement(x), 1 - i))
                   for x in base.names for i in (0, 1)]
    return build_logic(elements, order, complements)


def test_block_inference_rejects_non_sums(mo2):
    product = _product_with_two(mo2)
    assert len(product) == 12
    with pytest.raises(UnsupportedLattice):
        infer_blocks(product)
    # the decision procedures still work there
    assert oracle_scan(product) is None
    assert distributivity_scan(product) is None


def test_random_state_positive_atoms(mo3):
    m = random_state(mo3, 99)
    for atom in mo3.atoms():
        assert 0 < m(atom) < 1
        assert m(atom).denominator <= 2 * DENOMINATOR_BOUND
    for block in infer_blocks(mo3):
        assert sum(m(atom) for atom in block) == 1


def test_random_smap_is_valid_and_deterministic(sampled_lattices):
    for logic in sampled_lattices.values():
        p = random_smap(logic, 7)
        assert random_smap(logic, 7).values == p.values
        m = random_state(logic, 7)
        assert random_state(logic, 7).values == m.values
        # the samplers do not validate; this goes through every axiom
        assert validate_smap(logic, dict(p.values)) == p
        assert validate_state(logic, dict(m.values)) == m


def test_random_smap_marginal_law(mo3):
    p = random_smap(mo3, 12)
    nu = p.diagonal_state()
    for block in infer_blocks(mo3):
        for e in mo3.names:
            assert sum(p(e, b) for b in block) == nu(e)
            assert sum(p(b, e) for b in block) == nu(e)


def test_random_smap_can_be_asymmetric(mo2):
    # asymmetry is the generic case; check a fixed seed that exhibits it
    found = any(
        any(p(u, v) != p(v, u)
            for u in mo2.names for v in mo2.names)
        for p in (random_smap(mo2, s) for s in range(5)))
    assert found


def test_unsupported_lattice_is_not_sampled(mo2):
    with pytest.raises(UnsupportedLattice):
        random_smap(_product_with_two(mo2), 1)


# -- brute force --------------------------------------------------------------


def test_brute_force_against_identity():
    for make, n in ((gen_boolean, 3), (gen_mo, 4)):
        assert oracle_scan(make(n)) is None


def test_brute_force_witness_semantics(mo2):
    # orthogonal pair: witness (a, b, 0); incompatible pair: no witness
    assert brute_force_compatible(mo2, "a", "a'")
    assert not brute_force_compatible(mo2, "a", "b")


def test_brute_force_size_cap():
    big = horizontal_sum([2] * 8)  # 18 elements, fine
    assert brute_force_compatible(big, "a", "a'")
    too_big = horizontal_sum([2] * 12)
    with pytest.raises(SizeOutOfRange):
        brute_force_compatible(too_big, "a", "b")


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1001, 2 ** 20, 2 ** 20 + 1])
def test_the_sampler_draws_what_randrange_draws(n):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = generators._draws(ours.getrandbits, n, seed)
        assert drawn == [theirs.randrange(n) for _ in range(seed)], seed
        assert ours.getstate() == theirs.getstate(), seed


def test_distributivity_scan_corpus():
    for logic in (gen_boolean(3), gen_mo(3), horizontal_sum([2, 3])):
        assert distributivity_scan(logic) is None


def test_compatibility_table_is_built_once_per_lattice(monkeypatch):
    lattice._memo.cache_clear()  # a lattice no earlier test has built
    logic = horizontal_sum([2, 3])
    calls = []
    is_compatible = type(logic).is_compatible
    monkeypatch.setattr(type(logic), "is_compatible",
                        lambda self, a, b: calls.append(1) or is_compatible(self, a, b))
    table = generators._compatibility(logic)
    assert len(calls) == len(logic) ** 2
    assert table == tuple(tuple(is_compatible(logic, a, b) for b in logic.names)
                          for a in logic.names)
    assert distributivity_scan(logic) is None and oracle_scan(logic) is None
    assert generators._compatibility(logic) is table
    assert len(calls) == len(logic) ** 2


# -- suite --------------------------------------------------------------------


def test_roundtrip_suite_reports(mo2):
    report = roundtrip_suite(mo2, 25, seed=17)
    assert report.trials == 25
    assert report.passed == 25
    assert report.failed == 0
    assert report.first_failure is None
    assert report.ok


def test_roundtrip_suite_counts_and_formats_failures(monkeypatch, mo2):
    verdicts = iter([None, "law broken", None, "law broken again"])
    monkeypatch.setattr(generators, "smap_law_scan",
                        lambda p: next(verdicts))
    seeds, sample = [], generators.random_smap

    def recording(logic, seed):
        seeds.append(seed)
        return sample(logic, seed)

    monkeypatch.setattr(generators, "random_smap", recording)
    report = roundtrip_suite(mo2, 4, seed=17)
    assert (report.trials, report.passed, report.failed) == (4, 2, 2)
    assert not report.ok
    assert report.first_failure == f"trial 1 (seed {seeds[1]}): law broken"
    # each round trip comes back as the sample for seed 0
    monkeypatch.setattr(generators, "smap_from_conditional",
                        lambda f: sample(f.logic, 0))
    report = roundtrip_suite(mo2, 3, seed=17)
    assert (report.trials, report.passed, report.failed) == (3, 0, 3)
    assert report.first_failure == (f"trial 0 (seed {seeds[4]}): s-map -> "
                                    f"conditional -> s-map is not the identity")


def _raising_a_cell(sample):
    """A sampler that returns `sample`'s s-map with p(a, b) raised by one
    over its denominator, which breaks additivity (S3)."""
    def raised(logic, seed):
        p = sample(logic, seed)
        num = list(p.num)
        num[logic.index("a") * len(logic) + logic.index("b")] += 1
        return SMap.from_table(logic, num, p.den)
    return raised


def test_roundtrip_suite_counts_a_raising_trial_as_failed(monkeypatch, mo2,
                                                          pasting12):
    seeds, sample = [], generators.random_smap
    monkeypatch.setattr(generators, "random_smap", _raising_a_cell(
        lambda logic, seed: seeds.append(seed) or sample(logic, seed)))
    report = roundtrip_suite(mo2, 3, seed=0)
    assert (report.trials, report.passed, report.failed) == (3, 0, 3)
    assert report.first_failure.startswith(
        f"trial 0 (seed {seeds[0]}): S3Violation: additivity (s3) fails")
    monkeypatch.setattr(generators, "random_smap", sample)
    verdicts = iter([None, AssertionError("margins")])

    def law_scan(p):
        verdict = next(verdicts)
        if verdict is not None:
            raise verdict

    monkeypatch.setattr(generators, "smap_law_scan", law_scan)
    report = roundtrip_suite(mo2, 2, seed=0)
    assert (report.passed, report.failed) == (1, 1)
    assert report.first_failure.endswith("): AssertionError: margins")
    # a lattice the sampler refuses is no failed trial: the suite raises
    with pytest.raises(UnsupportedLattice):
        roundtrip_suite(pasting12, 1, seed=0)


def test_roundtrip_suite_on_boolean():
    report = roundtrip_suite(gen_boolean(3), 10, seed=3)
    assert report.ok


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1))
def test_sampler_never_needs_retries(seed):
    # sequential transportation sampling stays feasible for any seed
    p = random_smap(gen_mo(4), seed)
    assert p("1", "1") == 1
    assert all(0 <= v <= 1 for v in p.values.values())


def test_statistics_scan_asserts_the_column_sums_of_the_xx_block():
    """The last law of `statistics_law_scan`, reached: an unvalidated
    table whose xx block (x's three atoms against themselves) keeps its
    diagonal, its row sums and its x-weighted column sum, and so every
    earlier check, while its column sums move.  With three values X1, X2,
    X3, the column sums can move only along (X2 - X3, X3 - X1, X1 - X2);
    the shift below does that with cells off the diagonal and raises
    x's variance, so Cauchy-Schwarz still holds.  Two atoms leave no such
    direction, and on one block x and y would share their cells."""
    logic = horizontal_sum([3, 3])
    p = random_smap(logic, 3)
    rng = random.Random(11)
    assert generators.statistics_law_scan(p, copy.copy(rng)) is None
    (atoms, X), _ = generators._value_vectors(logic, copy.copy(rng))
    assert len(atoms) == 3
    x1, x2, x3 = X
    t = 1 if (x2 - x3) * (x2 - x1) * (x1 - x3) > 0 else -1
    a, c = t * (x2 - x1), t * (x2 - x3)
    n, num = len(logic), list(p.num)
    for (i, j), shift in {(0, 1): a, (0, 2): -a, (2, 0): c, (2, 1): -c}.items():
        num[atoms[i] * n + atoms[j]] += shift
    q = SMap.from_table(logic, num, p.den)
    xx = [[q.num[u * n + v] for v in atoms] for u in atoms]
    diagonal = [xx[i][i] for i in range(3)]
    assert list(map(sum, xx)) == diagonal
    assert list(map(sum, zip(*xx))) != diagonal
    assert (sum(v * sum(col) for v, col in zip(X, zip(*xx)))
            == sum(v * w for v, w in zip(X, diagonal)))
    failure = generators.statistics_law_scan(q, copy.copy(rng))
    assert failure.startswith("xx-column-margins: ")
