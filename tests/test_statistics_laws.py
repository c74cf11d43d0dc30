"""The statistics laws of `qlogic check`, by name, and the s-maps whose
diagonal is not faithful.

`statistics_law_scan` draws its two observables as integer value vectors
over the blocks' atoms and reports a broken law as 'law: witness'.  It
must agree with the name-keyed reference of `test_scan_reference.py`, draw
exactly what the observables it replaced drew, and name each law it
breaks, with or without `python -O`.  Mixtures of two-valued product
s-maps, some with weight 0, reach the diagonals that `random_smap` never
draws: `conditional_from_smap` must reject the first nonzero element of
vanishing diagonal, as the representation theorem's domain predicts.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction as F
from itertools import product
from types import SimpleNamespace

import pytest
from test_scan_reference import outcome, reference_statistics_law_scan

from qlogic import (
    DiscreteObservable,
    conditional_from_smap,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    infer_blocks,
    random_smap,
    roundtrip_suite,
    smap_from_conditional,
    validate_smap,
    validate_state,
)
from qlogic import generators
from qlogic.errors import DegenerateDiagonal, DegenerateVariance, UnsupportedLattice
from qlogic.generators import (
    STATISTICS_LAWS,
    _broken,
    _value_vectors,
    smap_law_scan,
    statistics_law_scan,
)
from qlogic.lattice import ZERO
from qlogic.observables import _PairStats


def derived_observables(logic, rng):
    """The two observables the statistics scan built before it read value
    vectors: per chosen block, the same `rng.sample` draw, as Fractions."""
    out = []
    for block in (infer_blocks(logic) * 2)[:2]:
        values = rng.sample(range(-9, 10), len(block))
        out.append(DiscreteObservable(logic, dict(zip(map(F, values), block))))
    return out


AGREEMENT_SHAPES = {
    **{f"mo-{n}": (gen_mo, n) for n in (2, 3, 4)},
    **{f"boolean-{n}": (gen_boolean, n) for n in (3, 4)},
    "hs-3-4": (horizontal_sum, [3, 4]),
}


@pytest.mark.parametrize("label", sorted(AGREEMENT_SHAPES))
def test_value_vectors_draw_what_the_observables_drew(label):
    """On 200 seeded s-maps per shape: the same atoms and values, the same
    integer statistics as the observables' route through
    `common_denominator`, the scan's answer, and the rng left in the same
    state."""
    build, arg = AGREEMENT_SHAPES[label]
    logic = build(arg)
    for seed in range(200):
        p = random_smap(logic, seed)
        rng = random.Random(seed)
        old, new = copy.copy(rng), copy.copy(rng)
        x, y = derived_observables(logic, old)
        (xs, X), (ys, Y) = _value_vectors(logic, new)
        assert new.getstate() == old.getstate(), (label, seed)
        assert xs == [logic.index(e) for e in x.elements]
        assert ys == [logic.index(e) for e in y.elements]
        assert [F(v) for v in X + Y] == list(x.spectrum + y.spectrum)
        ints, ref = (
            {k: list(v) if isinstance(v, tuple) else v for k, v in vars(s).items()}
            for s in (_PairStats(p, xs, ys, X, Y, 1), _PairStats.of(p, x, y)))
        assert ints == ref
        old, new = copy.copy(rng), copy.copy(rng)
        assert statistics_law_scan(p, new) is None
        assert reference_statistics_law_scan(p, old) is None
        assert new.getstate() == old.getstate()


# -- the laws by name -----------------------------------------------------------


def valid_stats(logic, seed):
    """The statistics of a valid trial, classical route included."""
    p = random_smap(logic, seed)
    (xs, X), (ys, Y) = _value_vectors(logic, random.Random(seed))
    stats = _PairStats(p, xs, ys, X, Y, 1)
    stats.classical()
    return stats


def broken_copies(stats, name):
    """Copies of `stats`, each changed so that `name` is the first law it
    breaks: one per table or variable the law reads."""
    s = stats
    # one unit moved from entry j to entry i (None: added or taken only)
    moved = lambda v, i=0, j=1: [  # noqa: E731
        w + (i == k) - (j == k) for k, w in enumerate(v)]
    big = s.vx + s.vy + 1  # big * big > Var(x) Var(y), over (c d)^2
    changes = {
        "variance-signs": [{"vx": -1}, {"vy": -1}],
        "margins-total": [{"rows_xy": moved(s.rows_xy, j=None)},
                          {"rows_yx": moved(s.rows_yx, j=None)}],
        "row-margins": [{"rows_xy": moved(s.rows_xy)},
                        {"rows_yx": moved(s.rows_yx)}],
        "column-margins": [{"columns_xy": moved(s.columns_xy)},
                           {"columns_yx": moved(s.columns_yx)}],
        "classical-mean-x": [{"mx1": s.mx1 + 1}, {"mx2": s.mx2 - 1}],
        "classical-mean-y": [{"my1": s.my1 - 1}, {"my2": s.my2 + 1}],
        "classical-covariance-xy": [{"cov1": s.cov1 + 1}],
        "classical-covariance-yx": [{"cov2": s.cov2 - 1}],
        "cauchy-schwarz-xy": [{"cxy": big, "cov1": s.d * big}],
        "cauchy-schwarz-yx": [{"cyx": -big, "cov2": -s.d * big}],
        "xx-margins-total": [{"xx": [moved(s.xx[0], j=None), *s.xx[1:]]}],
        # one unit from row 0 to row 1, and from column 1 to column 0
        "xx-row-margins": [{"xx": [moved(s.xx[0], j=None),
                                   moved(s.xx[1], i=None, j=0), *s.xx[2:]]}],
        "xx-column-margins": [{"xx": [moved(s.xx[0]), *s.xx[1:]]}],
    }[name]
    return [SimpleNamespace(**{**vars(stats), **change}) for change in changes]


def test_each_law_has_a_name_a_statement_and_a_witness(mo2, boolean3):
    names = [name for name, _, _ in STATISTICS_LAWS]
    assert len(set(names)) == len(names) == 13
    for logic in (mo2, boolean3):
        stats = valid_stats(logic, 4)
        assert _broken(STATISTICS_LAWS, stats) is None
        for name, statement, _ in STATISTICS_LAWS:
            assert statement, name
            for broken in broken_copies(stats, name):
                failure = _broken(STATISTICS_LAWS, broken)
                assert failure.startswith(f"{name}: "), (name, failure)
                assert len(failure) > len(name) + 2


def test_a_vanishing_variance_is_refused_not_broken(mo2):
    stats = SimpleNamespace(**vars(valid_stats(mo2, 4)))
    stats.vy = 0
    with pytest.raises(DegenerateVariance, match="variance of y is 0"):
        _broken(STATISTICS_LAWS, stats)


def test_a_broken_law_fails_the_trial_by_name(monkeypatch, mo3):
    """The first broken law is the trial's failure, as 'law: witness', and
    no `assert` decides it, so `python -O` reports it alike."""
    laws = list(STATISTICS_LAWS)
    name, statement, _ = laws[6]
    laws[6] = (name, statement, lambda s: "a witness")
    monkeypatch.setattr(generators, "STATISTICS_LAWS", tuple(laws))
    report = roundtrip_suite(mo3, 3, seed=0)
    assert (report.passed, report.failed) == (0, 3)
    assert report.first_failure.endswith(
        "): classical-covariance-xy: a witness")


# -- s-maps whose diagonal is not faithful ---------------------------------------


def two_valued_states(logic):
    """Every two-valued state of `logic` that is 1 exactly above a chosen
    set of atoms, as a tuple in index order."""
    atoms = [logic.index(a) for a in logic.atoms()]
    leq, n = logic._leq, len(logic)
    found = []
    for chosen in product((0, 1), repeat=len(atoms)):
        s = tuple(int(any(c and leq[a][e] for a, c in zip(atoms, chosen)))
                  for e in range(n))
        if s[logic.index("1")] == 1 and all(
                s[k] == s[i] + s[j] for i, j, k in logic._orth_pairs):
            validate_state(logic, dict(zip(logic.names, s)))
            found.append(s)
    return found


def mixtures(logic, samples, seed):
    """`samples` mixtures sum w_k s_k(a) s_k(b) of the two-valued product
    s-maps of `logic`, with positive weights in 1..5 on one, two, three or
    all of its two-valued states and 0 on the others, and the diagonal each
    mixture predicts, by index."""
    states, rng = two_valued_states(logic), random.Random(seed)
    n = len(logic)
    for _ in range(samples):
        weights = [0] * len(states)
        for k in rng.sample(range(len(states)), min(len(states), rng.choice(
                [1, 2, 3, len(states)]))):
            weights[k] = rng.randint(1, 5)
        total = sum(weights)
        values = {(logic.names[a], logic.names[b]):
                  F(sum(w * s[a] * s[b] for w, s in zip(weights, states)), total)
                  for a in range(n) for b in range(n)}
        yield values, [F(sum(w * s[b] for w, s in zip(weights, states)), total)
                       for b in range(n)]


def nonfaithful_lattices(pasting12):
    return {"mo-2": gen_mo(2), "mo-3": gen_mo(3), "mo-4": gen_mo(4),
            "boolean-2": gen_boolean(2), "boolean-3": gen_boolean(3),
            "hs-2-3": horizontal_sum([2, 3]), "pasting12": pasting12}


def test_conditional_from_smap_rejects_the_first_vanishing_diagonal(pasting12):
    """The lemma: `DegenerateDiagonal` exactly when some nonzero b has
    p(b, b) = 0, with the first such b as its witness; otherwise the
    conditional state is on every nonzero element, and converts back."""
    seen = set()
    for label, logic in nonfaithful_lattices(pasting12).items():
        assert two_valued_states(logic), label
        zero = logic.index(ZERO)
        for values, diagonal in mixtures(logic, 40, len(label)):
            p = validate_smap(logic, values)
            vanishing = [logic.names[b] for b, v in enumerate(diagonal)
                         if v == 0 and b != zero]
            if vanishing:
                with pytest.raises(DegenerateDiagonal) as exc:
                    conditional_from_smap(p)
                assert exc.value.element == vanishing[0]
                assert str(exc.value) == (
                    f"diagonal vanishes at {vanishing[0]!r}, which the "
                    f"positive-diagonal set needs for closure; no conditional "
                    f"state can be recovered")
            else:
                f = conditional_from_smap(p)
                assert set(f.cs.members) == set(logic.nonzero_elements)
                assert smap_from_conditional(f) == p
            seen.add((label, bool(vanishing)))
    assert seen == {(label, v) for label in nonfaithful_lattices(pasting12)
                    for v in (False, True)}


def test_law_scans_on_nonfaithful_smaps(pasting12):
    """The s-map laws hold on every mixture; the statistics laws hold too,
    except that an observable whose block carries all its mass on one atom
    has no variance.  The pasting has no blocks to draw from."""
    seen = set()
    for label, logic in nonfaithful_lattices(pasting12).items():
        for k, (values, diagonal) in enumerate(mixtures(logic, 40, len(label))):
            p = validate_smap(logic, values)
            if label == "pasting12":
                for scan, args in ((smap_law_scan, (p,)),
                                   (statistics_law_scan, (p, random.Random(k)))):
                    with pytest.raises(UnsupportedLattice):
                        scan(*args)
                continue
            assert smap_law_scan(p) is None
            blocks = generators._block_indices(logic)
            degenerate = [max(diagonal[a] for a in block) == 1
                          for block in (blocks * 2)[:2]]
            which = "x" if degenerate[0] else "y" if degenerate[1] else None
            expected = ("return", None) if which is None else (
                "raise", DegenerateVariance,
                (f"variance of {which} is 0; correlation undefined",))
            assert outcome(statistics_law_scan, p, random.Random(k)) == expected
            assert outcome(reference_statistics_law_scan, p,
                           random.Random(k)) == expected
            seen.add(expected[0])
    assert seen == {"raise", "return"}
