"""Discrete observables and the statistics pipeline."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlogic import (
    DiscreteObservable,
    build_observable,
    classical_representation,
    compute_stats,
    correlation,
    covariance,
    covariance_matrix,
    expectation,
    first_joint_moment,
    infer_blocks,
    joint_distribution,
    random_smap,
    variance,
)
from qlogic import gen_boolean, gen_mo, generators, horizontal_sum
from qlogic.errors import (
    DegenerateVariance,
    DuplicateValue,
    JoinNotOne,
    NotOrthogonal,
    UnknownElementError,
    ZeroElement,
)
from qlogic.observables import _coefficient


def test_build_observable(mo2):
    x = build_observable(mo2, {-1: "a", 1: "a'"})
    assert x.spectrum == (F(-1), F(1))
    assert x.element(-1) == "a"
    assert x.elements == ("a", "a'")


def test_an_observable_cannot_be_changed_after_validation(mo2):
    x = build_observable(mo2, {-1: "a", 1: "a'"})
    with pytest.raises(TypeError):
        x.assignment[F(3)] = "b"
    assert x.spectrum == (F(-1), F(1)) and F(3) not in x.assignment
    assert x.assignment == {F(-1): "a", F(1): "a'"}
    # an observable's own assignment is accepted back, and read-only
    # observables still compare by their tables
    assert build_observable(mo2, x.assignment) == x
    (atoms, values), _ = generators._value_vectors(mo2, random.Random(0))
    derived = DiscreteObservable(mo2, {F(v): mo2.names[a]
                                       for a, v in zip(atoms, values)})
    with pytest.raises(TypeError):
        derived.assignment[F(3)] = "b"


def test_build_observable_rejections(mo2):
    with pytest.raises(DuplicateValue):
        build_observable(mo2, [(1, "a"), ("1", "a'")])
    with pytest.raises(UnknownElementError):
        build_observable(mo2, {0: "zz"})
    with pytest.raises(ZeroElement):
        build_observable(mo2, {0: "0", 1: "1"})
    with pytest.raises(NotOrthogonal) as exc:
        build_observable(mo2, {0: "a", 1: "b"})
    assert (exc.value.a, exc.value.b) == (F(0), F(1))
    # the first pair in spectrum order, not in the order given
    with pytest.raises(NotOrthogonal) as exc:
        build_observable(mo2, {3: "a", 2: "a'", 1: "b"})
    assert (exc.value.a, exc.value.b) == (F(1), F(2))
    assert "elements 'b' and \"a'\" for spectrum values 1 and 2" in str(exc.value)
    with pytest.raises(JoinNotOne) as exc:
        build_observable(mo2, {5: "a"})
    assert exc.value.join == "a"


def test_indicator_observable(mo2):
    # a yes-no question is an indicator of one event
    chi = build_observable(mo2, {0: "a'", 1: "a"})
    assert chi.elements == ("a'", "a")


def test_expectation(example21):
    p = example21.smaps["p"]
    nu = p.diagonal_state()
    x, y = example21.observables["x"], example21.observables["y"]
    assert expectation(nu, x) == F(1, 5)
    assert expectation(nu, y) == F(7, 2)


def test_joint_distribution_tables(example21):
    p = example21.smaps["p"]
    x, y = example21.observables["x"], example21.observables["y"]
    jxy = joint_distribution(p, x, y)
    assert jxy(-1, 0) == F(3, 25)
    assert jxy(-1, 5) == F(7, 25)
    assert jxy(1, 0) == F(9, 50)
    assert jxy(1, 5) == F(21, 50)
    jyx = joint_distribution(p, y, x)
    assert jyx(0, -1) == F(2, 25)
    assert jyx(5, -1) == F(8, 25)
    # marginals agree with the diagonal even though the tables differ
    assert sum(jxy.table.values()) == sum(jyx.table.values()) == 1
    assert jxy.table != {(s, t): v for (t, s), v in jyx.table.items()}


def test_moments_and_covariances(example21):
    p = example21.smaps["p"]
    x, y = example21.observables["x"], example21.observables["y"]
    assert first_joint_moment(p, x, y) == F(7, 10)
    assert first_joint_moment(p, y, x) == F(3, 10)
    assert covariance(p, x, y) == 0
    assert covariance(p, y, x) == F(-2, 5)
    assert variance(p, x) == F(24, 25)
    assert variance(p, y) == F(21, 4)


def test_correlation_values(example21):
    p = example21.smaps["p"]
    x, y = example21.observables["x"], example21.observables["y"]
    assert correlation(p, x, y) == 0.0
    r = correlation(p, y, x)
    assert r < 0
    assert math.isclose(r, -0.4 / math.sqrt(5.04), abs_tol=1e-9)
    assert math.isclose(abs(r), 0.178, abs_tol=5e-4)


def test_covariance_matrix_asymmetry(example21):
    p = example21.smaps["p"]
    x, y = example21.observables["x"], example21.observables["y"]
    matrix = covariance_matrix(p, x, y)
    assert matrix.entries == ((F(24, 25), F(0)), (F(-2, 5), F(21, 4)))
    assert not matrix.is_symmetric


def test_symmetric_statistics_without_compatibility(example22_corrected):
    p = example22_corrected.smaps["p"]
    x = example22_corrected.observables["x"]
    y = example22_corrected.observables["y"]
    stats = compute_stats(p, x, y)
    assert stats.moment_xy == stats.moment_yx == F(3, 10)
    assert stats.cov_xy == stats.cov_yx == F(-2, 5)
    assert stats.matrix.is_symmetric
    assert stats.compatible is False


def test_compose_squares_and_merges(example21, mo2):
    x = example21.observables["x"]
    squared = x.compose(lambda t: t * t)
    # (-1)^2 = 1^2 merges both events into a v a' = 1
    assert squared.spectrum == (F(1),)
    assert squared.elements == ("1",)
    shifted = x.compose(lambda t: t + 10)
    assert shifted.spectrum == (F(9), F(11))
    assert shifted.elements == x.elements


def test_compatibility_of_observables(example21, mo2):
    x, y = example21.observables["x"], example21.observables["y"]
    assert not x.is_compatible_with(y)
    x2 = build_observable(mo2, {3: "a", 7: "a'"})
    assert x.is_compatible_with(x2)


def test_stats_with_itself(example21):
    p = example21.smaps["p"]
    x = example21.observables["x"]
    stats = compute_stats(p, x, x)
    v = F(24, 25)
    assert stats.matrix.entries == ((v, v), (v, v))
    assert math.isclose(stats.r_xy, 1.0, abs_tol=1e-9)
    assert math.isclose(stats.r_yx, 1.0, abs_tol=1e-9)
    assert stats.compatible is True


def test_degenerate_variance(example21):
    p = example21.smaps["p"]
    x = example21.observables["x"]
    const = x.compose(lambda t: t * t)  # constant observable, variance 0
    with pytest.raises(DegenerateVariance):
        correlation(p, const, x)
    stats = compute_stats(p, const, x)
    assert stats.r_xy is None and stats.r_yx is None
    assert stats.notes and "correlation omitted" in stats.notes[0]
    assert stats.var_x == 0 and stats.cov_xy == 0


def test_degenerate_variance_of_y(example21):
    p = example21.smaps["p"]
    x = example21.observables["x"]
    const = x.compose(lambda t: t * t)
    stats = compute_stats(p, x, const)
    assert stats.r_xy is stats.r_yx is None
    assert stats.notes == (
        "correlation omitted: variance of y is 0; correlation undefined",)
    assert stats.var_y == 0 and stats.var_x == F(24, 25)


def _standalone_correlation(p, x, y):
    try:
        return correlation(p, x, y)
    except DegenerateVariance:
        return None


@pytest.mark.parametrize("seed", [3, 17])
def test_stats_agree_with_standalone_functions(sampled_lattices, seed):
    rng = random.Random(seed)
    for logic in sampled_lattices.values():
        p = random_smap(logic, seed)
        blocks = infer_blocks(logic)
        x, y = (build_observable(logic, zip(rng.sample(range(-5, 6), len(b)), b))
                for b in (blocks * 2)[:2])
        for u, v in ((x, y), (y, x), (x, x), (x, x.compose(lambda t: 0))):
            stats = compute_stats(p, u, v)
            assert stats.var_x == variance(p, u)
            assert stats.var_y == variance(p, v)
            assert stats.cov_xy == covariance(p, u, v)
            assert stats.cov_yx == covariance(p, v, u)
            assert stats.r_xy == _standalone_correlation(p, u, v)
            assert stats.r_yx == (None if stats.r_xy is None
                                  else _standalone_correlation(p, v, u))
            assert stats.matrix == covariance_matrix(p, u, v)
            assert stats.matrix.entries == (
                (variance(p, u), covariance(p, u, v)),
                (covariance(p, v, u), variance(p, v)))


def test_classical_representation(example21):
    p = example21.smaps["p"]
    x, y = example21.observables["x"], example21.observables["y"]
    rep = classical_representation(p, x, y)
    assert rep.mean_x == F(1, 5) and rep.mean_y == F(7, 2)
    assert rep.cov_xy == 0 and rep.cov_yx == F(-2, 5)
    assert sum(rep.measure_xy.values()) == 1
    assert sum(rep.measure_yx.values()) == 1
    # the two sample spaces genuinely differ as measures
    flipped = {(t, s): v for (s, t), v in rep.measure_yx.items()}
    assert rep.measure_xy != flipped
    # Cauchy-Schwarz, exactly
    bound = variance(p, x) * variance(p, y)
    assert rep.cov_xy ** 2 <= bound and rep.cov_yx ** 2 <= bound


def test_independence_block_in_stats(example21):
    stats = compute_stats(example21.smaps["p"],
                          example21.observables["x"],
                          example21.observables["y"])
    assert stats.independence["a", "b"] is True
    assert stats.independence["b", "a"] is False
    assert stats.independence["a", "a'"] is False
    assert ("a", "a") not in stats.independence


@settings(deadline=None, max_examples=50)
@given(st.sampled_from([gen_mo(2), gen_mo(3), gen_mo(4), gen_boolean(3),
                        horizontal_sum([2, 3])]),
       st.integers(0, 2 ** 32), st.randoms(use_true_random=False))
def test_independence_flags_are_is_independent_pair(logic, seed, rng):
    """Every ordered pair of distinct assigned events, in the order the
    events first appear in x then y, flagged as `is_independent_pair`
    flags it, which is the product rule on the Fractions."""
    p = random_smap(logic, seed)
    blocks = infer_blocks(logic)
    x, y = (build_observable(logic, zip(rng.sample(range(-5, 6), len(b)), b))
            for b in (rng.choice(blocks), rng.choice(blocks)))
    for u, v in ((x, y), (y, x), (x, x)):
        events = list(dict.fromkeys(u.elements + v.elements))
        independence = compute_stats(p, u, v).independence
        assert list(independence) == [(a, b) for a in events for b in events
                                      if a != b]
        for (a, b), flag in independence.items():
            assert flag is p.is_independent_pair(a, b)
            assert flag is (p(a, b) == p(a, a) * p(b, b))


#: every lattice shape the correlation property is drawn on
_SHAPES = [gen_mo(2), gen_mo(3), gen_mo(4), gen_boolean(3), horizontal_sum([2, 3])]

#: small fractions, and the values whose squares leave the float range
_VALUES = st.one_of(st.fractions(-5, 5, max_denominator=12),
                    st.sampled_from([F(10 ** 200), F(-10 ** 200)]))


def _fraction_coefficient(cov, vx, vy):
    try:
        return _coefficient(cov, vx, vy)
    except DegenerateVariance:
        return None


@st.composite
def _pairs(draw):
    """An s-map drawn by `random_smap`, and two observables on its blocks;
    y is sometimes constant, so its variance vanishes."""
    logic = draw(st.sampled_from(_SHAPES))
    p = random_smap(logic, draw(st.integers(0, 2 ** 32)))
    blocks = infer_blocks(logic)
    x_block, y_block = draw(st.sampled_from(blocks)), draw(st.sampled_from(blocks))
    x, y = (build_observable(logic, zip(draw(st.lists(
                _VALUES, min_size=len(b), max_size=len(b), unique=True)), b))
            for b in (x_block, y_block))
    if draw(st.booleans()):
        y = build_observable(logic, {draw(_VALUES): "1"})
    return p, x, y


@settings(deadline=None, max_examples=150)
@given(_pairs())
def test_correlations_from_numerators_match_the_fraction_route(pair):
    """`compute_stats` takes r from the integer numerators of the
    covariance matrix; the scale they share cancels, and int / int rounds
    as float(Fraction) does, so the floats are bit-identical."""
    p, x, y = pair
    stats = compute_stats(p, x, y)
    m = covariance_matrix(p, x, y)
    assert stats.r_xy == _fraction_coefficient(m.xy, m.xx, m.yy)
    assert stats.r_yx == _fraction_coefficient(m.yx, m.yy, m.xx)
    assert (stats.r_xy is None) == (m.yy == 0) == (stats.r_yx is None)


@settings(deadline=None, max_examples=50)
@given(_pairs())
def test_joint_tables_list_their_cells_in_spectrum_order(pair):
    p, x, y = pair
    for u, v in ((x, y), (y, x)):
        assert list(joint_distribution(p, u, v).table) == [
            (t, s) for t in u.spectrum for s in v.spectrum]
