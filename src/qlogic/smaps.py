"""Two-argument measures for simultaneous measurement (s-maps).

An s-map assigns a probability p(a, b) to every ordered pair of events,
vanishes on orthogonal pairs, and is additive in each argument separately.
Its diagonal is an ordinary state, and dividing a column by its diagonal
entry recovers a conditional state; both conversions live here.  Unlike the
classical joint measure m(a ^ b), an s-map need not be symmetric, which is
what makes direction-dependent correlation possible.

An s-map is one integer table: the n^2 values as numerators in row-major
`logic.names` order over one denominator, in lowest terms.  The axiom
checks, both conversions and the law scans work on that table.  Names and
Fractions appear only at the boundary: the name-keyed constructor and
validator, `__call__`, `values` (a read-only view), and the witnesses in
errors.  The constructor resolves names and coerces values but checks no
axiom; the validator is the constructor followed by `_check_smap`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter

from .errors import (
    DegenerateDiagonal,
    DomainTooSmall,
    MissingTableEntry,
    S1Violation,
    S2Violation,
    S3Violation,
)
from .lattice import ONE, ZERO, QuantumLogic, kept
from .rational import bounded_lcm, common_denominator, frac, reduced
from .records import Record
from .states import (
    ConditionalState,
    ConditionalSystem,
    State,
    _check_cells,
    _TableView,
)


class SMap(Record):
    """An s-map, total on ordered pairs of elements.  The constructor
    checks no axiom: `validate_smap` and `modelfile.realize_smap` do.

    `num` holds p(a, b) for a, b in `logic.names`, row-major, as integer
    numerators over `den` in lowest terms, so equal s-maps have equal
    tables.  `values` is a read-only view of them as Fractions keyed by (a, b).
    """

    _fields = ("logic", "num", "den")

    def __init__(self, logic: QuantumLogic, values):
        """Read {(a, b): value} in one pass, entry by entry: resolve a and
        b, then coerce the value with `frac` and write it to its cell.  A
        cell the table lacks is None in `num`."""
        index, n = logic._index, len(logic)
        self.logic = logic
        cells = [None] * (n * n)
        for (a, b), v in values.items():
            try:  # names before the value
                cell = index[a] * n + index[b]
            except KeyError:
                cell = logic.index(a) * n + logic.index(b)  # raises UnknownElementError
            cells[cell] = v if isinstance(v, Fraction) else frac(v)
        self.num, self.den = common_denominator(cells)

    @classmethod
    def from_table(cls, logic: QuantumLogic, num, den: int) -> "SMap":
        """Wrap row-major numerators over `den`, reduced to lowest terms;
        nothing is validated."""
        self = cls.__new__(cls)
        self.logic = logic
        self.num, self.den = reduced(num, den)
        return self

    @property
    def values(self) -> _TableView:
        return _TableView(self, {r: (row, self.den)
                                 for r, row in enumerate(self.rows())}, flip=False)

    def rows(self) -> list:
        """The numerators, one tuple per row, indexed like `logic.names`."""
        n, num = len(self.logic), self.num
        return [num[r * n:(r + 1) * n] for r in range(n)]

    def __repr__(self) -> str:
        return f"SMap(logic={self.logic!r}, values={self.values!r})"

    def __call__(self, a: str, b: str) -> Fraction:
        index, n = self.logic._index, len(self.logic)
        if a in index and b in index:
            cell = self.num[index[a] * n + index[b]]
            if cell is not None:
                return Fraction(cell, self.den)
        raise MissingTableEntry("s-map", (a, b))

    def diagonal_state(self) -> State:
        """The marginal state b -> p(b, b); always valid for a valid s-map."""
        diagonal = self.num[::len(self.logic) + 1]
        return State(self.logic, {b: Fraction(v, self.den)
                                  for b, v in zip(self.logic.names, diagonal)})

    def is_independent_pair(self, b: str, a: str) -> bool:
        """Product factorization p(b, a) = p(a, a) p(b, b), exactly.

        Equivalent to independence of b from a under the conditional state
        this s-map generates, conditioned on 1.  The relation is not
        symmetric in (b, a).
        """
        return _is_independent(self, self.logic.index(b), self.logic.index(a))


def _is_independent(p: SMap, i: int, j: int) -> bool:
    """`SMap.is_independent_pair` of the elements at indices i and j."""
    n, num = len(p.logic), p.num
    return num[i * n + j] * p.den == num[j * n + j] * num[i * n + i]


def validate_smap(logic: QuantumLogic, values) -> SMap:
    """Check normalization, vanishing on orthogonal pairs, and additivity
    in both arguments.  Witnesses are reported in element-index order."""
    p = SMap(logic, values)
    _check_smap(p)
    return p


def _check_smap(p: SMap) -> None:
    """Check the s-map axioms on p's table, where None marks a cell the
    input lacked.  Witnesses are rebuilt as exact Fractions."""
    logic, num, den = p.logic, p.num, p.den
    names = logic.names
    n = len(names)
    _check_cells("s-map", lambda c: (names[c // n], names[c % n]), num, den)
    top = logic.index(ONE) * (n + 1)
    if num[top] != den:
        raise S1Violation(Fraction(num[top], den))
    # S2; the witness is the first nonzero orthogonal cell
    cells, orthogonal = _orthogonal_cells(logic)
    if any(orthogonal(num)):
        c = next(c for c, v in zip(cells, orthogonal(num)) if v)
        raise S2Violation(names[c // n], names[c % n], Fraction(num[c], den))
    rows, cols = p.rows(), [num[c::n] for c in range(n)]
    for i, j, k in logic._orth_pairs:
        if (rows[k] == tuple(map(add, rows[i], rows[j]))
                and cols[k] == tuple(map(add, cols[i], cols[j]))):
            continue
        for c in range(n):  # first failure: left before right at each c
            for side, lines in (("left", rows), ("right", cols)):
                lhs, rhs = lines[k][c], lines[i][c] + lines[j][c]
                if lhs != rhs:
                    raise S3Violation(side, names[i], names[j], names[c],
                                      Fraction(lhs, den), Fraction(rhs, den))


@kept
def _orthogonal_cells(logic: QuantumLogic) -> tuple:
    """The row-major indices of the cells (i, j), i orthogonal to j, where
    S2 asks for 0, and a gather of them: the 0 row and column and both
    orders of each pair in `_orth_pairs` (no a != 0 is orthogonal to a)."""
    leq, comp, n = logic._leq, logic._comp, len(logic)
    cells = tuple(i * n + j for i in range(n) for j in range(n) if leq[i][comp[j]])
    return cells, itemgetter(*cells)


def smap_from_conditional(f: ConditionalState) -> SMap:
    """p(a, b) = f(a | b) f(b | 1): weight each conditional column by the
    probability of its conditioning event.  Requires conditioning to be
    defined for every nonzero element.  The weights' common factor with the
    denominator is divided out before the n^2 products, so the table is
    built on smaller integers and its reduction to lowest terms is cheap."""
    logic = f.logic
    if not _full_system(logic).members.issubset(f.cs.members):
        raise DomainTooSmall(next(b for b in logic.nonzero_elements if b not in f.cs))
    n, columns = len(logic), f.columns
    one, d_one = columns[logic.index(ONE)]
    # with column b = N_b / d_b, p(a, b) = N_b[a] N_1[b] / (d_b d_1), which
    # is N_b[a] w_b over d_1 lcm(d_b), w_b as below (column 0 vanishes)
    common = bounded_lcm({d for _, d in columns.values()})
    scaled = [columns.get(b, ((0,) * n, 1)) for b in range(n)]
    weights = [one[b] * (common // d) for b, (_, d) in enumerate(scaled)]
    g = math.gcd(d_one * common, *weights)
    weights = [w // g for w in weights]
    num = [column[a] * w for a in range(n)
           for (column, _), w in zip(scaled, weights)]
    return SMap.from_table(logic, num, d_one * common // g)


def conditional_from_smap(p: SMap) -> ConditionalState:
    """Recover the conditional state f(a | b) = p(a, b) / p(b, b) on every
    nonzero event: column b of f is column b of p's table over the
    diagonal numerator.

    The diagonal must be faithful, positive at every nonzero b.  Where
    p(b, b) = 0, the positive-diagonal set holds 1 and b' (p(b', b') = 1),
    so a conditional system holding it also holds b = b'' ^ 1, where
    f( . | b) is undefined; the first such b, in index order, is rejected.
    """
    logic, num = p.logic, p.num
    n, zero = len(logic), logic._index[ZERO]
    diagonal = num[::n + 1]
    for b, v in enumerate(diagonal):
        if v <= 0 and b != zero:
            raise DegenerateDiagonal(logic.names[b])
    return ConditionalState.from_columns(
        logic, _full_system(logic),
        {b: (num[b::n], v) for b, v in enumerate(diagonal) if b != zero})


@kept
def _full_system(logic: QuantumLogic) -> ConditionalSystem:
    """The conditional system of every nonzero element: where
    :func:`conditional_from_smap` conditions, and the domain
    :func:`smap_from_conditional` needs."""
    return ConditionalSystem(logic, frozenset(logic.nonzero_elements))


def classical_smap(m: State) -> SMap:
    """The symmetric s-map p(a, b) = m(a ^ b) induced by one state.

    Valid on a Boolean logic; on a lattice with noncompatible pairs the
    validator rejects it, because meet-additivity needs distributivity.
    """
    logic = m.logic
    values = {(a, b): m(logic.meet(a, b))
              for a in logic.names for b in logic.names}
    return validate_smap(logic, values)
