"""Two-argument measures for simultaneous measurement (s-maps).

An s-map assigns a probability p(a, b) to every ordered pair of events,
vanishes on orthogonal pairs, and is additive in each argument separately.
Its diagonal is an ordinary state, and dividing a column by its diagonal
entry recovers a conditional state; both conversions live here.  Unlike the
classical joint measure m(a ^ b), an s-map need not be symmetric, which is
what makes direction-dependent correlation possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import (
    DegenerateDiagonal,
    DomainTooSmall,
    MissingTableEntry,
    S1Violation,
    S2Violation,
    S3Violation,
    ValueOutOfRange,
)
from .lattice import ONE, ZERO, QuantumLogic
from .rational import common_denominator, frac
from .states import (
    ConditionalState,
    ConditionalSystem,
    State,
    conditional_system_generated,
)


@dataclass(frozen=True, eq=True)
class SMap:
    """A validated s-map, total on ordered pairs of elements."""

    logic: QuantumLogic
    values: dict

    def __call__(self, a: str, b: str) -> Fraction:
        try:
            return self.values[a, b]
        except KeyError:
            raise MissingTableEntry("s-map", (a, b)) from None

    def diagonal_state(self) -> State:
        """The marginal state b -> p(b, b); always valid for a valid s-map."""
        return State(self.logic, {b: self.values[b, b] for b in self.logic.names})

    def is_independent_pair(self, b: str, a: str) -> bool:
        """Product factorization p(b, a) = p(a, a) p(b, b), exactly.

        Equivalent to independence of b from a under the conditional state
        this s-map generates, conditioned on 1.  The relation is not
        symmetric in (b, a).
        """
        return self.values[b, a] == self.values[a, a] * self.values[b, b]


def validate_smap(logic: QuantumLogic, values) -> SMap:
    """Check normalization, vanishing on orthogonal pairs, and additivity
    in both arguments.  Witnesses are reported in element-index order.

    The additivity checks run on integer numerators over the table's
    common denominator; witnesses are rebuilt as exact Fractions.
    """
    table = {}
    for (a, b), v in values.items():
        logic.index(a)
        logic.index(b)
        table[a, b] = frac(v)
    names = logic.names
    n = len(names)
    flat = [table.get((a, b)) for a in names for b in names]  # row-major
    for cell, v in enumerate(flat):
        if v is None:
            raise MissingTableEntry("s-map", (names[cell // n], names[cell % n]))
        if not 0 <= v.numerator <= v.denominator:
            raise ValueOutOfRange("s-map", (names[cell // n], names[cell % n]), v)
    if table[ONE, ONE] != 1:
        raise S1Violation(table[ONE, ONE])
    pairs = logic._orth_pairs
    nonzero = [(r, c) for i, j, _ in pairs for r, c in ((i, j), (j, i))
               if flat[r * n + c]]
    if nonzero:
        r, c = min(nonzero)
        raise S2Violation(names[r], names[c], flat[r * n + c])
    (num,), den = common_denominator([flat])
    rows = [num[r * n:(r + 1) * n] for r in range(n)]
    cols = [num[c::n] for c in range(n)]
    for i, j, k in pairs:
        if (rows[k] == list(map(add, rows[i], rows[j]))
                and cols[k] == list(map(add, cols[i], cols[j]))):
            continue
        a, b = names[i], names[j]
        for c in range(n):  # first failure: left before right at each c
            if rows[k][c] != rows[i][c] + rows[j][c]:
                raise S3Violation("left", a, b, names[c], flat[k * n + c],
                                  flat[i * n + c] + flat[j * n + c])
            if cols[k][c] != cols[i][c] + cols[j][c]:
                raise S3Violation("right", a, b, names[c], flat[c * n + k],
                                  flat[c * n + i] + flat[c * n + j])
    return SMap(logic, table)


def smap_from_conditional(f: ConditionalState) -> SMap:
    """p(a, b) = f(a | b) f(b | 1): weight each conditional column by the
    probability of its conditioning event.  Requires conditioning to be
    defined for every nonzero element."""
    logic = f.logic
    for b in logic.nonzero_elements:
        if b not in f.cs:
            raise DomainTooSmall(b)
    values = {}
    for a in logic.names:
        values[a, ZERO] = Fraction(0)
        for b in logic.nonzero_elements:
            values[a, b] = f(a, b) * f(b, ONE)
    return SMap(logic, values)


def conditional_from_smap(p: SMap) -> ConditionalState:
    """Recover the conditional state f(a | b) = p(a, b) / p(b, b) on the
    events with positive diagonal.

    The positive-diagonal set is join-closed (the diagonal is a monotone
    state), but a vanishing relative complement would leave it without the
    closure a conditional system needs; that degenerate case is rejected.
    """
    logic = p.logic
    nu = p.diagonal_state()
    members = frozenset(b for b in logic.nonzero_elements if nu(b) > 0)
    closed = conditional_system_generated(logic, members)
    extra = closed.members - members
    if extra:
        raise DegenerateDiagonal(min(extra, key=logic.index))
    cs = ConditionalSystem(logic, members)
    values = {(a, b): p(a, b) / nu(b)
              for b in cs.sorted_members() for a in logic.names}
    return ConditionalState(logic, cs, values)


def classical_smap(m: State) -> SMap:
    """The symmetric s-map p(a, b) = m(a ^ b) induced by one state.

    Valid on a Boolean logic; on a lattice with noncompatible pairs the
    validator rejects it, because meet-additivity needs distributivity.
    """
    logic = m.logic
    values = {(a, b): m(logic.meet(a, b))
              for a in logic.names for b in logic.names}
    return validate_smap(logic, values)
