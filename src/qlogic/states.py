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
from .rational import frac


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
    for a in logic.names:
        if a not in table:
            raise MissingTableEntry("state", a)
        if not 0 <= table[a] <= 1:
            raise ValueOutOfRange("state", a, table[a])
    if table[ZERO] != 0:
        raise BoundsViolation(ZERO, table[ZERO], 0)
    if table[ONE] != 1:
        raise BoundsViolation(ONE, table[ONE], 1)
    names = logic.names
    for i, a in enumerate(names):
        for b in names[i:]:
            if logic.is_orthogonal(a, b):
                lhs = table[logic.join(a, b)]
                rhs = table[a] + table[b]
                if lhs != rhs:
                    raise AdditivityViolation(a, b, lhs, rhs)
    return State(logic, table)


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


def validate_conditional_system(logic: QuantumLogic, members) -> ConditionalSystem:
    members = frozenset(members)
    for a in members:
        logic.index(a)
    if ZERO in members:
        raise ZeroInSeed()
    ordered = sorted(members, key=logic.index)
    for a in ordered:
        for b in ordered:
            j = logic.join(a, b)
            if j not in members:
                raise InvalidConditionalSystem(
                    f"not closed under join: {a} v {b} = {j} is missing")
            if logic.lt(a, b):
                rc = logic.meet(logic.complement(a), b)
                if rc not in members:
                    raise InvalidConditionalSystem(
                        f"not closed under relative complement: "
                        f"{a} < {b} but {a}' ^ {b} = {rc} is missing")
    return ConditionalSystem(logic, members)


def conditional_system_generated(logic: QuantumLogic, seed) -> ConditionalSystem:
    """Least conditional system containing `seed` (fixed-point closure).

    The relative complement of a strictly comparable pair is never 0 (the
    orthomodular law forbids it), so 0 cannot sneak in during closure.
    """
    members = set(seed)
    for a in members:
        logic.index(a)
    if ZERO in members:
        raise ZeroInSeed()
    changed = True
    while changed:
        changed = False
        current = sorted(members, key=logic.index)
        for a in current:
            for b in current:
                j = logic.join(a, b)
                if j not in members:
                    members.add(j)
                    changed = True
                if logic.lt(a, b):
                    rc = logic.meet(logic.complement(a), b)
                    if rc not in members:
                        members.add(rc)
                        changed = True
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

    for a in members:
        try:
            validate_state(logic, {b: table[b, a] for b in logic.names
                                   if (b, a) in table})
        except ValidationError as exc:
            raise C1Violation(a, exc) from None
    for a in members:
        if table[a, a] != 1:
            raise C2Violation(a, table[a, a])
    for i, a in enumerate(members):
        for c in members[i + 1:]:
            if not logic.is_orthogonal(a, c):
                continue
            j = logic.join(a, c)
            if j not in cs:
                continue
            for b in logic.names:
                lhs = table[b, j]
                rhs = table[a, j] * table[b, a] + table[c, j] * table[b, c]
                if lhs != rhs:
                    raise C3Violation((a, c), b, lhs, rhs)
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
