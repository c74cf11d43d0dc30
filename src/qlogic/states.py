"""States and Bayes-style conditional states on a quantum logic.

A state is a finitely additive probability measure on the lattice.  A
conditional state f(b | a) carries a whole family of states indexed by the
conditioning event a, where the admissible conditioning events form a
*conditional system*: a set of nonzero elements closed under join and under
relative complement of comparable pairs.

Everything is exact, so 11/30 stays 11/30.  A conditional state is one
integer table, a column of numerators over one denominator per member, and
its axiom checks are integer identities on that table.  Names and Fractions
appear only at the boundary: the name-keyed constructor and validator,
`__call__`, `values`, and the witnesses in errors.  A state has n cells,
not n^2, and keeps its name-keyed dict of Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
from .rational import common_denominator, frac, reduced


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
    _check_state_column(logic, *common_denominator([table.get(a)
                                                    for a in logic.names]))
    return State(logic, table)


def _check_cells(kind: str, key, num, den: int) -> None:
    """Raise for the first cell of `num` (over `den`) that is missing (None)
    or outside [0, 1]; `key` maps a cell's index to its name for the
    witness."""
    if None not in num and 0 <= min(num) and max(num) <= den:
        return
    c = next(c for c, v in enumerate(num) if v is None or not 0 <= v <= den)
    if num[c] is None:
        raise MissingTableEntry(kind, key(c))
    raise ValueOutOfRange(kind, key(c), Fraction(num[c], den))


def _check_state_column(logic: QuantumLogic, num, den: int) -> None:
    """Check the state axioms on one column: integer numerators over `den`,
    indexed like `logic.names`, None where the input had no entry.

    Witnesses come out in the order of a name-by-name scan: entries, then
    the bounds, then orthogonal pairs in index order, as exact Fractions.
    """
    names = logic.names
    _check_cells("state", names.__getitem__, num, den)
    for bound, expected in ((ZERO, 0), (ONE, 1)):
        v = num[logic.index(bound)]
        if v != expected * den:
            raise BoundsViolation(bound, Fraction(v, den), expected)
    for i, j, k in logic._orth_pairs:
        if num[k] != num[i] + num[j]:
            raise AdditivityViolation(names[i], names[j], Fraction(num[k], den),
                                      Fraction(num[i] + num[j], den))


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


class ConditionalState:
    """A validated two-argument map f(b | a): a state in b for every fixed
    conditioning event a, normalized on the diagonal, with the Bayes-style
    decomposition over orthogonal conditionings.

    `columns` maps each member's index, in index order, to the column
    f(. | a): numerators indexed like `logic.names` over one denominator,
    in lowest terms, so equal conditional states have equal tables.
    `values` holds the same numbers as Fractions keyed by (b, a).
    """

    def __init__(self, logic: QuantumLogic, cs: ConditionalSystem, values):
        """Read a table {(b, a): Fraction} over the members a of cs,
        unvalidated, and keep its entries as `values`; an entry it lacks is
        None in its column."""
        names, index = logic.names, logic._index
        self.logic, self.cs = logic, cs
        self.values = {(b, a): v for (b, a), v in values.items()
                       if b in index and a in cs}
        self.columns = {logic.index(a): common_denominator(
            [self.values.get((b, a)) for b in names])
            for a in cs.sorted_members()}

    @classmethod
    def from_columns(cls, logic: QuantumLogic, cs: ConditionalSystem,
                     columns: dict) -> "ConditionalState":
        """Wrap member index -> (numerators, denominator), reducing each
        column to lowest terms; nothing is validated."""
        self = cls.__new__(cls)
        self.logic, self.cs = logic, cs
        self.columns = {a: reduced(*column) for a, column in columns.items()}
        return self

    @cached_property
    def values(self) -> dict:
        names = self.logic.names
        return {(b, names[a]): Fraction(v, den)
                for a, (num, den) in self.columns.items()
                for b, v in zip(names, num)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConditionalState):
            return NotImplemented
        return (self.logic == other.logic and self.cs == other.cs
                and self.columns == other.columns)

    def __repr__(self) -> str:
        return (f"ConditionalState(logic={self.logic!r}, cs={self.cs!r}, "
                f"values={self.values!r})")

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
    """Verify all three conditional-state axioms on a name-keyed table."""
    if not isinstance(cs, ConditionalSystem):
        cs = validate_conditional_system(logic, cs)
    table = {}
    for (b, a), v in values.items():
        logic.index(b)
        if a not in cs:
            raise InvalidConditionalSystem(
                f"entry ({b} | {a}) conditions outside the conditional system")
        table[b, a] = frac(v)
    f = ConditionalState(logic, cs, table)
    _check_conditional(f)
    return f


def _check_conditional(f: ConditionalState) -> None:
    """Check C1-C3 on f's columns, where None marks an entry the input
    lacked.

    The decomposition axiom is checked on every orthogonal pair of members
    whose join is a member, in index order.  That covers every finite
    orthogonal family: the system is join-closed, so by induction the pair
    law at a1 v ... v a(k-1) and ak, together with f(ai | ak) = 0 for
    orthogonal members, gives the law for a1, ..., ak.  Witnesses are
    rebuilt as exact Fractions.
    """
    logic, columns = f.logic, f.columns
    names = logic.names
    for a, (num, den) in columns.items():
        try:
            _check_state_column(logic, num, den)
        except ValidationError as exc:
            raise C1Violation(names[a], exc) from None
    for a, (num, den) in columns.items():
        if num[a] != den:
            raise C2Violation(names[a], Fraction(num[a], den))
    # with N_m, d_m the numerators and denominator of column m, the pair law
    # at j = a v c is N_j[b] d_a d_c = N_j[a] d_c N_a[b] + N_j[c] d_a N_c[b]
    for i, k, j in logic._orth_pairs:
        if i not in columns or k not in columns or j not in columns:
            continue
        (num_a, d_a), (num_c, d_c), (num_j, d_j) = (columns[i], columns[k],
                                                    columns[j])
        x, y, z = num_j[i] * d_c, num_j[k] * d_a, d_a * d_c
        for b, (nb_j, nb_a, nb_c) in enumerate(zip(num_j, num_a, num_c)):
            if nb_j * z != x * nb_a + y * nb_c:
                raise C3Violation((names[i], names[k]), names[b],
                                  Fraction(nb_j, d_j),
                                  Fraction(x * nb_a + y * nb_c, d_j * z))


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
