"""Discrete observables and their joint statistics under an s-map.

An observable with finite spectrum is a labelling of a complete orthogonal
family of events by distinct rational values.  An s-map turns a pair of
observables, compatible or not, into a genuine joint distribution on the
product of their spectra; expectations, first joint moments, covariance and
correlation follow as in ordinary probability, except that the two orders
of a pair may disagree.

Everything except the correlation coefficient is exact rational arithmetic;
the correlation takes one square root and is documented to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateVariance,
    DuplicateValue,
    JoinNotOne,
    NotOrthogonal,
    UnknownElementError,
    ZeroElement,
)
from .lattice import ZERO, QuantumLogic
from .rational import frac
from .smaps import SMap
from .states import State

#: documented tolerance of the floating-point correlation coefficient
CORRELATION_TOL = 1e-9


@dataclass(frozen=True, eq=True)
class DiscreteObservable:
    """A finite-spectrum observable: distinct values mapped to mutually
    orthogonal nonzero events that join to 1."""

    logic: QuantumLogic
    assignment: dict  # Fraction -> element name

    @property
    def spectrum(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.assignment))

    def element(self, t) -> str:
        return self.assignment[frac(t)]

    @property
    def elements(self) -> tuple[str, ...]:
        """Assigned events, in spectrum order."""
        return tuple(self.assignment[t] for t in self.spectrum)

    def compose(self, g) -> "DiscreteObservable":
        """The observable g o self: relabel the spectrum through g and join
        the events of values that collide."""
        merged: dict[Fraction, str] = {}
        for t in self.spectrum:
            image = frac(g(t))
            e = self.assignment[t]
            merged[image] = self.logic.join(merged[image], e) if image in merged else e
        return build_observable(self.logic, merged.items())

    def is_compatible_with(self, other: "DiscreteObservable") -> bool:
        """True iff every pair of assigned events is compatible; joins of
        compatible families stay compatible, so this covers both ranges."""
        return all(self.logic.is_compatible(e, f)
                   for e in self.elements for f in other.elements)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t} -> {self.assignment[t]}" for t in self.spectrum)
        return f"DiscreteObservable({inner})"


def build_observable(logic: QuantumLogic, assignment) -> DiscreteObservable:
    """Validate a value -> event table as a discrete observable."""
    if isinstance(assignment, dict):
        assignment = assignment.items()
    table: dict[Fraction, str] = {}
    for value, element in assignment:
        t = frac(value)
        if t in table:
            raise DuplicateValue(t)
        if element not in logic:
            raise UnknownElementError(element)
        if element == ZERO:
            raise ZeroElement(t)
        table[t] = element
    spectrum = sorted(table)
    for i, t in enumerate(spectrum):
        for s in spectrum[i + 1:]:
            if not logic.is_orthogonal(table[t], table[s]):
                raise NotOrthogonal(t, s)
    total = logic.join_all(table.values())
    if total != "1":
        raise JoinNotOne(total)
    return DiscreteObservable(logic, table)


def expectation(m: State, x: DiscreteObservable) -> Fraction:
    """Mean of x under the state m: sum of t * m(x(t)) over the spectrum."""
    return sum((t * m(x.element(t)) for t in x.spectrum), Fraction(0))


# ---------------------------------------------------------------------------
# joint statistics


@dataclass(frozen=True, eq=True)
class JointDistribution:
    """The table (t, s) -> p(x(t), y(s)) on the product of two spectra.
    Rows sum to the diagonal state of x's events, columns to y's, and the
    whole table sums to 1."""

    x_spectrum: tuple
    y_spectrum: tuple
    table: dict

    def __call__(self, t, s) -> Fraction:
        return self.table[frac(t), frac(s)]


def joint_distribution(p: SMap, x: DiscreteObservable,
                       y: DiscreteObservable) -> JointDistribution:
    nu = p.diagonal_state()
    table = {(t, s): p(x.element(t), y.element(s))
             for t in x.spectrum for s in y.spectrum}
    # guaranteed by s-map additivity; failures here are library defects
    assert sum(table.values()) == 1
    for t in x.spectrum:
        assert sum(table[t, s] for s in y.spectrum) == nu(x.element(t))
    for s in y.spectrum:
        assert sum(table[t, s] for t in x.spectrum) == nu(y.element(s))
    return JointDistribution(x.spectrum, y.spectrum, table)


def first_joint_moment(p: SMap, x: DiscreteObservable,
                       y: DiscreteObservable) -> Fraction:
    """Sum of t * s * p(x(t), y(s)); order of the arguments matters."""
    return sum((t * s * p(x.element(t), y.element(s))
                for t in x.spectrum for s in y.spectrum), Fraction(0))


def covariance(p: SMap, x: DiscreteObservable,
               y: DiscreteObservable) -> Fraction:
    nu = p.diagonal_state()
    return first_joint_moment(p, x, y) - expectation(nu, x) * expectation(nu, y)


def variance(p: SMap, x: DiscreteObservable) -> Fraction:
    v = covariance(p, x, x)
    assert v >= 0
    return v


def correlation(p: SMap, x: DiscreteObservable,
                y: DiscreteObservable) -> float:
    """Floating-point correlation coefficient, in [-1, 1] within 1e-9."""
    return _coefficient(covariance(p, x, y), variance(p, x), variance(p, y))


def _coefficient(cov: Fraction, vx: Fraction, vy: Fraction) -> float:
    if vx == 0:
        raise DegenerateVariance("x")
    if vy == 0:
        raise DegenerateVariance("y")
    r = float(cov) / math.sqrt(float(vx * vy))
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True, eq=True)
class CovarianceMatrix:
    """Exact 2x2 covariance matrix [[c(x,x), c(x,y)], [c(y,x), c(y,y)]].
    Need not be symmetric when x and y are noncompatible."""

    xx: Fraction
    xy: Fraction
    yx: Fraction
    yy: Fraction

    @property
    def entries(self):
        return ((self.xx, self.xy), (self.yx, self.yy))

    @property
    def is_symmetric(self) -> bool:
        return self.xy == self.yx


def covariance_matrix(p: SMap, x: DiscreteObservable,
                      y: DiscreteObservable) -> CovarianceMatrix:
    return CovarianceMatrix(variance(p, x), covariance(p, x, y),
                            covariance(p, y, x), variance(p, y))


# ---------------------------------------------------------------------------
# classical two-space representation


@dataclass(frozen=True, eq=True)
class ClassicalRepresentation:
    """Two finite classical probability spaces carrying the (x, y) and
    (y, x) joint distributions, with coordinate random variables.

    Both coordinate pairs have the marginal means of x and y, the classical
    covariance on the first space equals the exact covariance of (x, y), on
    the second space that of (y, x), and both covariances obey the
    Cauchy-Schwarz bound against the variances.
    """

    outcomes_xy: tuple          # points (t, s), t in sigma(x)
    measure_xy: dict
    outcomes_yx: tuple          # points (s, t), s in sigma(y)
    measure_yx: dict
    mean_x: Fraction
    mean_y: Fraction
    cov_xy: Fraction            # classical covariance on the first space
    cov_yx: Fraction            # ... and on the second


def classical_representation(p: SMap, x: DiscreteObservable,
                             y: DiscreteObservable) -> ClassicalRepresentation:
    jxy = joint_distribution(p, x, y)
    jyx = joint_distribution(p, y, x)
    measure_xy = dict(jxy.table)
    measure_yx = dict(jyx.table)
    outcomes_xy = tuple((t, s) for t in x.spectrum for s in y.spectrum)
    outcomes_yx = tuple((s, t) for s in y.spectrum for t in x.spectrum)

    # classical route: plain weighted sums over the finite sample spaces
    mean_x_1 = sum((t * measure_xy[t, s] for t, s in outcomes_xy), Fraction(0))
    mean_y_1 = sum((s * measure_xy[t, s] for t, s in outcomes_xy), Fraction(0))
    mean_x_2 = sum((t * measure_yx[s, t] for s, t in outcomes_yx), Fraction(0))
    mean_y_2 = sum((s * measure_yx[s, t] for s, t in outcomes_yx), Fraction(0))
    cov_1 = sum(((t - mean_x_1) * (s - mean_y_1) * measure_xy[t, s]
                 for t, s in outcomes_xy), Fraction(0))
    cov_2 = sum(((t - mean_x_2) * (s - mean_y_2) * measure_yx[s, t]
                 for s, t in outcomes_yx), Fraction(0))

    # lattice route; the equalities are theorems, so plain asserts
    nu = p.diagonal_state()
    nu_x, nu_y = expectation(nu, x), expectation(nu, y)
    assert mean_x_1 == mean_x_2 == nu_x
    assert mean_y_1 == mean_y_2 == nu_y
    m = covariance_matrix(p, x, y)
    assert cov_1 == m.xy
    assert cov_2 == m.yx
    assert cov_1 * cov_1 <= m.xx * m.yy
    assert cov_2 * cov_2 <= m.xx * m.yy

    return ClassicalRepresentation(outcomes_xy, measure_xy, outcomes_yx,
                                   measure_yx, nu_x, nu_y, cov_1, cov_2)


# ---------------------------------------------------------------------------
# one-call report


@dataclass(frozen=True, eq=True)
class StatsReport:
    """Everything the statistics pipeline computes for one pair (x, y)."""

    x_label: str
    y_label: str
    nu_x: Fraction
    nu_y: Fraction
    moment_xy: Fraction
    moment_yx: Fraction
    cov_xy: Fraction
    cov_yx: Fraction
    var_x: Fraction
    var_y: Fraction
    r_xy: float | None
    r_yx: float | None
    matrix: CovarianceMatrix
    compatible: bool
    joint_xy: JointDistribution
    joint_yx: JointDistribution
    independence: dict  # (event, event) -> bool, over the assigned events
    notes: tuple


def compute_stats(p: SMap, x: DiscreteObservable, y: DiscreteObservable,
                  x_label: str = "x", y_label: str = "y") -> StatsReport:
    nu = p.diagonal_state()
    m = covariance_matrix(p, x, y)
    notes = []
    try:
        r_xy: float | None = _coefficient(m.xy, m.xx, m.yy)
        r_yx: float | None = _coefficient(m.yx, m.yy, m.xx)
    except DegenerateVariance as exc:
        r_xy = r_yx = None
        notes.append(f"correlation omitted: {exc}")
    events = list(dict.fromkeys(x.elements + y.elements))
    independence = {(u, v): p.is_independent_pair(u, v)
                    for u in events for v in events if u != v}
    return StatsReport(
        x_label=x_label,
        y_label=y_label,
        nu_x=expectation(nu, x),
        nu_y=expectation(nu, y),
        moment_xy=first_joint_moment(p, x, y),
        moment_yx=first_joint_moment(p, y, x),
        cov_xy=m.xy,
        cov_yx=m.yx,
        var_x=m.xx,
        var_y=m.yy,
        r_xy=r_xy,
        r_yx=r_yx,
        matrix=m,
        compatible=x.is_compatible_with(y),
        joint_xy=joint_distribution(p, x, y),
        joint_yx=joint_distribution(p, y, x),
        independence=independence,
        notes=tuple(notes),
    )
