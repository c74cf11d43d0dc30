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
import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .errors import (
    DegenerateVariance,
    DuplicateValue,
    JoinNotOne,
    NotOrthogonal,
    UnknownElementError,
    ZeroElement,
)
from .lattice import ZERO, QuantumLogic
from .rational import common_denominator, frac
from .records import FrozenRecord
from .smaps import SMap
from .states import State

#: documented tolerance of the floating-point correlation coefficient
CORRELATION_TOL = 1e-9


class DiscreteObservable(FrozenRecord):
    """A finite-spectrum observable: distinct values mapped to mutually
    orthogonal nonzero events that join to 1.

    Observables are immutable (`assignment` is a read-only copy), so each
    one sorts its values once and keeps the result.
    """

    _fields = ("logic", "assignment")

    def __init__(self, logic: QuantumLogic, assignment: Mapping):
        """`assignment` maps each value (a Fraction) to its event's name."""
        self.__dict__.update(logic=logic,
                             assignment=MappingProxyType(dict(assignment)))

    @cached_property
    def spectrum(self) -> tuple[Fraction, ...]:
        """The values in increasing order, sorted once per observable."""
        return tuple(sorted(self.assignment))

    def element(self, t) -> str:
        return self.assignment[frac(t)]

    @cached_property
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
    if isinstance(assignment, Mapping):
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
                raise NotOrthogonal(t, s, (table[t], table[s]))
    total = logic.join_all(table.values())
    if total != "1":
        raise JoinNotOne(total)
    return DiscreteObservable(logic, table)


def expectation(m: State, x: DiscreteObservable) -> Fraction:
    """Mean of x under the state m: sum of t * m(x(t)) over the spectrum."""
    return sum(map(operator.mul, x.spectrum, map(m, x.elements)), Fraction(0))


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _sums(lines) -> list:
    return list(map(sum, lines))


def _form(us, vs, table):
    """Sum of us[i] * vs[j] * table[i][j]."""
    return _dot(us, [_dot(vs, row) for row in table])


# ---------------------------------------------------------------------------
# joint statistics


class JointDistribution(FrozenRecord):
    """The table (t, s) -> p(x(t), y(s)) on the product of two spectra.
    Rows sum to the diagonal state of x's events, columns to y's, and the
    whole table sums to 1."""

    _fields = ("x_spectrum", "y_spectrum", "table")

    def __init__(self, x_spectrum: tuple, y_spectrum: tuple, table: dict):
        self.__dict__.update(x_spectrum=x_spectrum, y_spectrum=y_spectrum,
                             table=table)

    def __call__(self, t, s) -> Fraction:
        return self.table[frac(t), frac(s)]


def joint_distribution(p: SMap, x: DiscreteObservable,
                       y: DiscreteObservable) -> JointDistribution:
    table, _ = _PairStats.of(p, x, y).joint_tables(x.spectrum, y.spectrum)
    return JointDistribution(x.spectrum, y.spectrum, table)


def first_joint_moment(p: SMap, x: DiscreteObservable,
                       y: DiscreteObservable) -> Fraction:
    """Sum of t * s * p(x(t), y(s)); order of the arguments matters."""
    return _PairStats.of(p, x, y).moments[0]


def covariance(p: SMap, x: DiscreteObservable,
               y: DiscreteObservable) -> Fraction:
    return _PairStats.of(p, x, y).matrix.xy


def variance(p: SMap, x: DiscreteObservable) -> Fraction:
    v = covariance(p, x, x)
    assert v >= 0
    return v


def correlation(p: SMap, x: DiscreteObservable,
                y: DiscreteObservable) -> float:
    """Floating-point correlation coefficient, in [-1, 1] within 1e-9."""
    m = covariance_matrix(p, x, y)
    return _coefficient(m.xy, m.xx, m.yy)


def _coefficient(cov: Fraction, vx: Fraction, vy: Fraction) -> float:
    """cov / sqrt(vx vy) from the exact square, which no scale overflows."""
    _check_variances(vx, vy)
    r = math.sqrt(cov * cov / (vx * vy))
    return max(-1.0, min(1.0, -r if cov < 0 else r))


def _check_variances(vx, vy) -> None:
    """Refuse a vanishing variance, where correlation is undefined."""
    if vx == 0:
        raise DegenerateVariance("x")
    if vy == 0:
        raise DegenerateVariance("y")


class CovarianceMatrix(FrozenRecord):
    """Exact 2x2 covariance matrix [[c(x,x), c(x,y)], [c(y,x), c(y,y)]].
    Need not be symmetric when x and y are noncompatible."""

    _fields = ("xx", "xy", "yx", "yy")

    def __init__(self, xx: Fraction, xy: Fraction, yx: Fraction, yy: Fraction):
        self.__dict__.update(xx=xx, xy=xy, yx=yx, yy=yy)

    @property
    def entries(self):
        return ((self.xx, self.xy), (self.yx, self.yy))

    @property
    def is_symmetric(self) -> bool:
        return self.xy == self.yx


class _PairStats:
    """The cells of x against y, read from p's table once, and the means,
    first joint moments and covariance matrix that follow from them.

    x and y are given by their events' indices and their values, each in
    increasing value order, as integer numerators over one denominator c,
    so that p(x(t), y(s)) = xy[i][j] / d with t = X[i] / c and s = Y[j] / c,
    d being p's denominator.  The cells of the four tables (x, x), (x, y),
    (y, x) and (y, y) are numerators over d, so the sums run on integers: a
    mean is an integer over c d, a first joint moment one over c^2 d and a
    covariance one over (c d)^2.
    """

    def __init__(self, p: SMap, xs, ys, X, Y, c: int):
        n, num, d = len(xs), p.num, p.den
        events = [*xs, *ys]
        # two events at least, so `pick` returns a tuple
        size, pick = len(p.logic), operator.itemgetter(*events)
        cells = [pick(num[e * size:(e + 1) * size]) for e in events]
        self.X, self.Y, self.c, self.d = X, Y, c, d
        self.xx = xx = [row[:n] for row in cells[:n]]
        self.xy = [row[n:] for row in cells[:n]]
        self.yx = [row[:n] for row in cells[n:]]
        yy = [row[n:] for row in cells[n:]]
        self.nu_x = [row[i] for i, row in enumerate(xx)]
        self.nu_y = [row[j] for j, row in enumerate(yy)]
        self.sx, self.sy = _dot(X, self.nu_x), _dot(Y, self.nu_y)
        self.mxy = _form(X, Y, self.xy)
        self.myx = _form(Y, X, self.yx)
        # variances and covariances, numerators over (c d)^2
        self.vx = d * _form(X, X, xx) - self.sx * self.sx
        self.cxy = d * self.mxy - self.sx * self.sy
        self.cyx = d * self.myx - self.sy * self.sx
        self.vy = d * _form(Y, Y, yy) - self.sy * self.sy

    @classmethod
    def of(cls, p: SMap, x: DiscreteObservable, y: DiscreteObservable):
        """The statistics of two observables: their events by index and
        their spectra over one common denominator."""
        z, c = common_denominator(x.spectrum + y.spectrum)
        index, n = p.logic.index, len(x.spectrum)
        return cls(p, [index(e) for e in x.elements],
                   [index(e) for e in y.elements], z[:n], z[n:], c)

    @cached_property
    def matrix(self) -> CovarianceMatrix:
        """The covariance matrix as Fractions; variances not checked yet."""
        cd2 = (self.c * self.d) ** 2
        return CovarianceMatrix(*(Fraction(v, cd2) for v in
                                  (self.vx, self.cxy, self.cyx, self.vy)))

    @property
    def means(self) -> tuple[Fraction, Fraction]:
        cd = self.c * self.d
        return Fraction(self.sx, cd), Fraction(self.sy, cd)

    @property
    def moments(self) -> tuple[Fraction, Fraction]:
        """The first joint moments of (x, y) and of (y, x)."""
        c2d = self.c * self.c * self.d
        return Fraction(self.mxy, c2d), Fraction(self.myx, c2d)

    def joint_tables(self, x_spectrum, y_spectrum):
        """The (x, y) and (y, x) tables keyed by outcome, given the spectra
        of x and y; p is valid, so their margins are the diagonal values."""
        return tuple({(t, s): Fraction(w, self.d)
                      for t, row in zip(u, cells) for s, w in zip(v, row)}
                     for u, v, cells in ((x_spectrum, y_spectrum, self.xy),
                                         (y_spectrum, x_spectrum, self.yx)))

    def classical(self) -> tuple[int, int]:
        """The classical route, kept as attributes: the row and column sums
        of the (x, y) and (y, x) tables; the means of x and y on the first
        space, whose points (t, s) carry the (x, y) cells (`mx1`, `my1`),
        and on the second, of points (s, t) carrying the (y, x) cells
        (`mx2`, `my2`), over c d; then the covariances on the two spaces
        (`cov1`, `cov2`), over c^2 d^3, which it returns."""
        X, Y, d, xy, yx = self.X, self.Y, self.d, self.xy, self.yx
        self.rows_xy, self.columns_xy = _sums(xy), _sums(zip(*xy))
        self.rows_yx, self.columns_yx = _sums(yx), _sums(zip(*yx))
        self.mx1, self.my1 = _dot(X, self.rows_xy), _dot(Y, self.columns_xy)
        self.mx2, self.my2 = _dot(X, self.columns_yx), _dot(Y, self.rows_yx)
        self.cov1 = _centered(X, Y, xy, d, self.mx1, self.my1)
        self.cov2 = _centered(Y, X, yx, d, self.my2, self.mx2)
        return self.cov1, self.cov2


def _centered(us, vs, table, d: int, mean_u: int, mean_v: int) -> int:
    """Sum of (u - mean_u)(v - mean_v) w over the cells w = table[i][j] / d
    at u = us[i] / c and v = vs[j] / c, with both means over c d; the
    result is over c^2 d^3."""
    return _form([u * d - mean_u for u in us], [v * d - mean_v for v in vs],
                 table)


def _checked(m: CovarianceMatrix) -> CovarianceMatrix:
    # variances are nonnegative for a valid s-map; a failure is a defect
    assert m.xx >= 0 and m.yy >= 0
    return m


def covariance_matrix(p: SMap, x: DiscreteObservable,
                      y: DiscreteObservable) -> CovarianceMatrix:
    return _checked(_PairStats.of(p, x, y).matrix)


# ---------------------------------------------------------------------------
# classical two-space representation


class ClassicalRepresentation(FrozenRecord):
    """Two finite classical probability spaces carrying the (x, y) and
    (y, x) joint distributions, with coordinate random variables.

    Both coordinate pairs have the marginal means of x and y, the classical
    covariance on the first space equals the exact covariance of (x, y), on
    the second space that of (y, x), and both covariances obey the
    Cauchy-Schwarz bound against the variances.  The points of the first
    space are (t, s) with t in sigma(x), those of the second (s, t), and
    `cov_xy`, `cov_yx` are the classical covariances on the first and the
    second space.
    """

    _fields = ("outcomes_xy", "measure_xy", "outcomes_yx", "measure_yx",
               "mean_x", "mean_y", "cov_xy", "cov_yx")

    def __init__(self, outcomes_xy: tuple, measure_xy: dict,
                 outcomes_yx: tuple, measure_yx: dict, mean_x: Fraction,
                 mean_y: Fraction, cov_xy: Fraction, cov_yx: Fraction):
        self.__dict__.update(
            outcomes_xy=outcomes_xy, measure_xy=measure_xy,
            outcomes_yx=outcomes_yx, measure_yx=measure_yx, mean_x=mean_x,
            mean_y=mean_y, cov_xy=cov_xy, cov_yx=cov_yx)


def classical_representation(p: SMap, x: DiscreteObservable,
                             y: DiscreteObservable) -> ClassicalRepresentation:
    stats = _PairStats.of(p, x, y)
    cov_1, cov_2 = stats.classical()
    measure_xy, measure_yx = stats.joint_tables(x.spectrum, y.spectrum)
    scale = stats.c ** 2 * stats.d ** 3
    return ClassicalRepresentation(
        tuple(measure_xy), measure_xy, tuple(measure_yx), measure_yx,
        *stats.means, Fraction(cov_1, scale), Fraction(cov_2, scale))


# ---------------------------------------------------------------------------
# one-call report


class StatsReport(FrozenRecord):
    """Everything the statistics pipeline computes for one pair (x, y).
    `independence` maps each ordered pair of distinct assigned events to
    whether the first is independent of the second."""

    _fields = ("nu_x", "nu_y", "moment_xy", "moment_yx", "cov_xy", "cov_yx",
               "var_x", "var_y", "r_xy", "r_yx", "matrix", "compatible",
               "joint_xy", "joint_yx", "independence", "notes")

    def __init__(self, nu_x: Fraction, nu_y: Fraction, moment_xy: Fraction,
                 moment_yx: Fraction, cov_xy: Fraction, cov_yx: Fraction,
                 var_x: Fraction, var_y: Fraction, r_xy: float | None,
                 r_yx: float | None, matrix: CovarianceMatrix,
                 compatible: bool, joint_xy: JointDistribution,
                 joint_yx: JointDistribution, independence: dict,
                 notes: tuple):
        self.__dict__.update(
            nu_x=nu_x, nu_y=nu_y, moment_xy=moment_xy, moment_yx=moment_yx,
            cov_xy=cov_xy, cov_yx=cov_yx, var_x=var_x, var_y=var_y,
            r_xy=r_xy, r_yx=r_yx, matrix=matrix, compatible=compatible,
            joint_xy=joint_xy, joint_yx=joint_yx, independence=independence,
            notes=notes)


def compute_stats(p: SMap, x: DiscreteObservable,
                  y: DiscreteObservable) -> StatsReport:
    stats = _PairStats.of(p, x, y)
    m = _checked(stats.matrix)
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
    joint_xy, joint_yx = stats.joint_tables(x.spectrum, y.spectrum)
    (nu_x, nu_y), (moment_xy, moment_yx) = stats.means, stats.moments
    return StatsReport(
        nu_x=nu_x,
        nu_y=nu_y,
        moment_xy=moment_xy,
        moment_yx=moment_yx,
        cov_xy=m.xy,
        cov_yx=m.yx,
        var_x=m.xx,
        var_y=m.yy,
        r_xy=r_xy,
        r_yx=r_yx,
        matrix=m,
        compatible=x.is_compatible_with(y),
        joint_xy=JointDistribution(x.spectrum, y.spectrum, joint_xy),
        joint_yx=JointDistribution(y.spectrum, x.spectrum, joint_yx),
        independence=independence,
        notes=tuple(notes),
    )
