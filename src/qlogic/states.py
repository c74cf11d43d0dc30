"""States and Bayes-style conditional states on a quantum logic.

A state is a finitely additive probability measure on the lattice.  A
conditional state f(b | a) carries a whole family of states indexed by the
conditioning event a, where the admissible conditioning events form a
*conditional system*: a set of nonzero elements closed under join and under
relative complement of comparable pairs.

Everything is exact: values are Fractions and every axiom check is an exact
equality, so 11/30 stays 11/30.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AdditivityViolation,
    AlphaNotConcentrated,
    BoundsViolation,
    C1Violation,
    C2Violation,
    C3Violation,
    InvalidConditionalSystem,
    MissingTableEntry,
    NotOrthogonal,
    PreconditionFailed,
    ValidationError,
    ValueOutOfRange,
    WeightsInvalid,
    ZeroInSeed,
)
from .lattice import ONE, ZERO, QuantumLogic
from .rational import common_denominator, frac


@dataclass(frozen=True, eq=True)
class State:
    """A finitely additive normalized measure, total on the logic."""

    logic: QuantumLogic
    values: dict

    def __call__(self, a: str) -> Fraction:
        try:
            return self.values[a]
        except KeyError:
            raise MissingTableEntry("state", a) from None

    def items(self):
        return ((a, self.values[a]) for a in self.logic.names)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {v}" for a, v in self.items())
        return f"State({inner})"


def validate_state(logic: QuantumLogic, values) -> State:
    """Check normalization and additivity over every orthogonal pair."""
    table = {}
    for a, v in values.items():
        logic.index(a)  # raises UnknownElementError for stray tokens
        table[a] = frac(v)
    _check_state_column(logic, [table.get(a) for a in logic.names])
    return State(logic, table)


def _check_state_column(logic: QuantumLogic, column):
    """Check the state axioms on `column`, a list of Fractions indexed like
    `logic.names` with None for a missing entry.

    Witnesses come out in the order of a name-by-name scan: entries, then
    the bounds, then orthogonal pairs in index order.  Additivity is tested
    on integer numerators over the column's common denominator; those
    numerators and the denominator are returned for further identities.
    """
    names = logic.names
    for a, v in zip(names, column):
        if v is None:
            raise MissingTableEntry("state", a)
        if not 0 <= v.numerator <= v.denominator:
            raise ValueOutOfRange("state", a, v)
    for bound, expected in ((ZERO, 0), (ONE, 1)):
        v = column[logic.index(bound)]
        if v != expected:
            raise BoundsViolation(bound, v, expected)
    (num,), den = common_denominator([column])
    for i, j, k in logic._orth_pairs:
        if num[k] != num[i] + num[j]:
            raise AdditivityViolation(names[i], names[j], column[k],
                                      column[i] + column[j])
    return num, den


# ---------------------------------------------------------------------------
# conditional systems


@dataclass(frozen=True, eq=True)
class ConditionalSystem:
    """Admissible conditioning events: nonzero, join-closed, and closed
    under relative complement of comparable members."""

    logic: QuantumLogic
    members: frozenset

    def __contains__(self, a: str) -> bool:
        return a in self.members

    def sorted_members(self) -> tuple[str, ...]:
        index = self.logic.index
        return tuple(sorted(self.members, key=index))

    def __repr__(self) -> str:
        return f"ConditionalSystem({{{', '.join(self.sorted_members())}}})"


def _check_seed(logic: QuantumLogic, members) -> None:
    for a in members:
        logic.index(a)
    if ZERO in members:
        raise ZeroInSeed()


def _closure_gaps(logic: QuantumLogic, members):
    """Yield (missing element, reason) for each join and each relative
    complement of comparable members that is not a member, scanning the
    ordered pairs of members in index order."""
    names, leq, comp = logic.names, logic._leq, logic._comp
    meet, join = logic._meet, logic._join
    inside = {logic.index(a) for a in members}
    ordered = sorted(inside)
    for i in ordered:
        for k in ordered:
            a, b = names[i], names[k]
            j = join[i][k]
            if j not in inside:
                yield names[j], (f"not closed under join: {a} v {b} = "
                                 f"{names[j]} is missing")
            if i != k and leq[i][k] and meet[comp[i]][k] not in inside:
                rc = names[meet[comp[i]][k]]
                yield rc, (f"not closed under relative complement: "
                           f"{a} < {b} but {a}' ^ {b} = {rc} is missing")


def validate_conditional_system(logic: QuantumLogic, members) -> ConditionalSystem:
    members = frozenset(members)
    _check_seed(logic, members)
    for _, reason in _closure_gaps(logic, members):
        raise InvalidConditionalSystem(reason)
    return ConditionalSystem(logic, members)


def conditional_system_generated(logic: QuantumLogic, seed) -> ConditionalSystem:
    """Least conditional system containing `seed` (fixed-point closure).

    The relative complement of a strictly comparable pair is never 0 (the
    orthomodular law forbids it), so 0 cannot sneak in during closure.
    """
    members = set(seed)
    _check_seed(logic, members)
    while gaps := {missing for missing, _ in _closure_gaps(logic, members)}:
        members |= gaps
    return ConditionalSystem(logic, frozenset(members))


# ---------------------------------------------------------------------------
# conditional states


@dataclass(frozen=True, eq=True)
class ConditionalState:
    """A validated two-argument map f(b | a): a state in b for every fixed
    conditioning event a, normalized on the diagonal, with the Bayes-style
    decomposition over orthogonal conditionings."""

    logic: QuantumLogic
    cs: ConditionalSystem
    values: dict

    def __call__(self, b: str, a: str) -> Fraction:
        try:
            return self.values[b, a]
        except KeyError:
            raise MissingTableEntry("conditional state", (b, a)) from None

    def condition(self, a: str) -> State:
        """The state f(. | a) for a fixed conditioning event."""
        if a not in self.cs:
            raise MissingTableEntry("conditional state", ("*", a))
        return State(self.logic, {b: self.values[b, a] for b in self.logic.names})

    def is_independent(self, b: str, a: str, c: str) -> bool:
        """True iff b is independent of a with respect to f(. | c).

        Requires f(c | a) = 1; comparison is exact.
        """
        if self(c, a) != 1:
            raise PreconditionFailed(
                f"independence needs f({c} | {a}) = 1, got {self(c, a)}")
        return self(b, c) == self(b, a)


def validate_conditional_state(logic: QuantumLogic, cs, values) -> ConditionalState:
    """Verify all three conditional-state axioms.

    The decomposition axiom is checked on every orthogonal pair of members
    whose join lies in the conditional system, in index order.  That covers
    every finite orthogonal family: the system is join-closed, so by
    induction the pair law at a1 v ... v a(k-1) and ak, together with
    f(ai | ak) = 0 for orthogonal members, gives the law for a1, ..., ak.
    The identities are tested on integer numerators over each column's
    common denominator; witnesses are rebuilt as exact Fractions.
    """
    if not isinstance(cs, ConditionalSystem):
        cs = validate_conditional_system(logic, cs)
    members = cs.sorted_members()
    table = {}
    for (b, a), v in values.items():
        logic.index(b)
        if a not in cs:
            raise InvalidConditionalSystem(
                f"entry ({b} | {a}) conditions outside the conditional system")
        table[b, a] = frac(v)

    names = logic.names
    checked = {}  # member index -> (column, integer numerators, denominator)
    for a in members:
        column = [table.get((b, a)) for b in names]
        try:
            checked[logic.index(a)] = (column, *_check_state_column(logic, column))
        except ValidationError as exc:
            raise C1Violation(a, exc) from None
    for a in members:
        if table[a, a] != 1:
            raise C2Violation(a, table[a, a])
    # with N_m, d_m the numerators and denominator of column m, the pair law
    # at j = a v c is N_j[b] d_a d_c = N_j[a] d_c N_a[b] + N_j[c] d_a N_c[b]
    for i, k, j in logic._orth_pairs:
        if i not in checked or k not in checked or j not in checked:
            continue
        (col_a, num_a, d_a), (col_c, num_c, d_c) = checked[i], checked[k]
        col_j, num_j, _ = checked[j]
        x, y, z = num_j[i] * d_c, num_j[k] * d_a, d_a * d_c
        for b, (nb_j, nb_a, nb_c) in enumerate(zip(num_j, num_a, num_c)):
            if nb_j * z != x * nb_a + y * nb_c:
                raise C3Violation((names[i], names[k]), names[b], col_j[b],
                                  col_j[i] * col_a[b] + col_j[k] * col_c[b])
    return ConditionalState(logic, cs, table)


def conditional_state_from_partition(logic: QuantumLogic, parts, alphas,
                                     weights) -> ConditionalState:
    """Assemble a conditional state from an orthogonal family of events,
    one state concentrated on each event, and strictly positive mixing
    weights summing to 1.

    The generated conditional system consists of all joins of sub-families,
    and on the join of a sub-family S the result mixes the given states
    with weights renormalized within S.  In particular f(a_i | v all) is
    the i-th weight.
    """
    parts = list(parts)
    alphas = list(alphas)
    ks = [frac(k) for k in weights]
    if not (len(parts) == len(alphas) == len(ks)) or not parts:
        raise WeightsInvalid("need equally many parts, states and weights (>= 1)")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not logic.is_orthogonal(parts[i], parts[j]):
                raise NotOrthogonal(parts[i], parts[j])
    for i, (part, alpha) in enumerate(zip(parts, alphas)):
        if alpha(part) != 1:
            raise AlphaNotConcentrated(i, part, alpha(part))
    if any(k <= 0 for k in ks):
        raise WeightsInvalid("weights must be strictly positive")
    if sum(ks) != 1:
        raise WeightsInvalid(f"weights sum to {sum(ks)}, expected 1")

    cs = conditional_system_generated(logic, parts)
    values = {}
    for m in cs.sorted_members():
        sub = [i for i, part in enumerate(parts) if logic.leq(part, m)]
        # closure of an orthogonal family only ever contains sub-family joins
        assert sub and logic.join_all(parts[i] for i in sub) == m
        total = sum(ks[i] for i in sub)
        for d in logic.names:
            values[d, m] = sum((ks[i] * alphas[i](d) for i in sub),
                               Fraction(0)) / total
    return validate_conditional_state(logic, cs, values)


def classical_conditional(m: State) -> ConditionalState:
    """Kolmogorov conditioning f(d | c) = m(d ^ c) / m(c) on the events of
    positive measure.  Valid on a distributive (Boolean) logic; on a general
    quantum logic the validator will reject it, which is the point."""
    logic = m.logic
    members = [c for c in logic.nonzero_elements if m(c) > 0]
    cs = validate_conditional_system(logic, members)
    values = {(d, c): m(logic.meet(d, c)) / m(c)
              for c in members for d in logic.names}
    return validate_conditional_state(logic, cs, values)
