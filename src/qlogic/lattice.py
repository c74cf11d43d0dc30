"""Finite quantum logics.

A quantum logic here is a finite bounded lattice with an orthocomplementation
satisfying the orthomodular law.  Construction goes through :func:`build_logic`,
which closes an arbitrary generating order relation, derives total meet/join
tables, and verifies every axiom before handing out an immutable structure.
All later operations are table lookups, so a built logic can be shared freely
across threads, and equal descriptions share one built logic per process.

Element handles are their display names: printable tokens without
whitespace or any of the model-file separators (see
:func:`is_element_name`).  The tokens "0" and "1" are reserved for the
bounds and are added to the order automatically: authors only write the
non-trivial part of the Hasse diagram.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .errors import (
    AxiomViolation,
    BadElementName,
    ComplementConflict,
    CycleInOrder,
    MissingBounds,
    MissingComplement,
    MissingMeetOrJoin,
    SizeOutOfRange,
    UnknownElementError,
)

ZERO = "0"
ONE = "1"

#: tables are quadratic in the element count; keep inputs desk-scale
MAX_ELEMENTS = 64

#: how many distinct valid descriptions `build_logic` keeps, the most recently
#: used ones; a 60-element logic with its kept tables holds about 150 KiB
_MEMO_SIZE = 32

#: besides whitespace, the characters an element name may not contain: they
#: (and the arrow "->") separate the fields of a model-file line
NAME_SEPARATORS = ",|=#[]"
NAME_RULE = ("non-empty printable tokens without whitespace, ',', '|', '=', "
             "'->', '#', '[' or ']'")


def is_element_name(name) -> bool:
    """The element-name grammar shared by :func:`build_logic` and the model
    file parser: see NAME_RULE.  Printable (`str.isprintable`) rules out
    names that print alike, such as "a" and "a" followed by U+200B."""
    return (isinstance(name, str) and name != "" and name.isprintable()
            and "->" not in name
            and not any(c.isspace() or c in NAME_SEPARATORS for c in name))


class QuantumLogic:
    """A validated finite quantum logic.

    Do not call the constructor directly; :func:`build_logic` performs the
    closure and all axiom checks.  Instances are immutable and compare
    structurally (same names, order and complementation).
    """

    __slots__ = ("names", "_index", "_leq", "_comp", "_meet", "_join",
                 "_orth_pairs", "_blocks", "_sampling_plan", "_compatible",
                 "_law_cells")

    def __init__(self, names, leq, comp, meet, join):
        self.names: tuple[str, ...] = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._leq = leq    # tuple of tuples of bool
        self._comp = comp  # tuple of int
        self._meet = meet  # tuple of tuples of int
        self._join = join
        #: orthogonal pairs (i, j, join[i][j]) of nonzero elements, i < j,
        #: in index order, which the validators walk instead of testing every
        #: pair by name; a pair with 0 would only restate that the value at
        #: 0 is 0, which the bounds check (states, C1) and S2 establish first
        zero, n = self._index[ZERO], len(self.names)
        self._orth_pairs = tuple(
            (i, j, join[i][j]) for i in range(n) for j in range(i + 1, n)
            if leq[i][comp[j]] and zero not in (i, j))
        #: the atom indices of each Boolean block of a horizontal sum, kept
        #: by the first successful `generators._block_indices` call
        self._blocks = None
        #: what `generators.random_smap` needs of the lattice alone (the
        #: ordered pairs of distinct blocks, the draws' denominator factor,
        #: the atoms below each element), built once by its first call
        self._sampling_plan = None
        #: `is_compatible` as an index table, kept by the first
        #: `generators._compatibility` call
        self._compatible = None
        #: the cell gathers of `generators.smap_law_scan`'s pre-pass, kept by
        #: the first `generators._law_cells` call
        self._law_cells = None

    # -- basic access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self.names)

    def __repr__(self) -> str:
        return f"QuantumLogic({len(self)} elements: {', '.join(self.names)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumLogic):
            return NotImplemented
        return (self.names == other.names and self._leq == other._leq
                and self._comp == other._comp)

    def __hash__(self):
        return hash((self.names, self._comp))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElementError(name) from None

    @property
    def nonzero_elements(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n != ZERO)

    # -- order and operations ----------------------------------------------

    def leq(self, a: str, b: str) -> bool:
        return self._leq[self.index(a)][self.index(b)]

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def meet(self, a: str, b: str) -> str:
        return self.names[self._meet[self.index(a)][self.index(b)]]

    def join(self, a: str, b: str) -> str:
        return self.names[self._join[self.index(a)][self.index(b)]]

    def join_all(self, elements) -> str:
        return reduce(self.join, elements, ZERO)

    def meet_all(self, elements) -> str:
        return reduce(self.meet, elements, ONE)

    def complement(self, a: str) -> str:
        return self.names[self._comp[self.index(a)]]

    def is_orthogonal(self, a: str, b: str) -> bool:
        """a is below the complement of b."""
        return self._leq[self.index(a)][self._comp[self.index(b)]]

    def is_compatible(self, a: str, b: str) -> bool:
        """Decide compatibility by the orthomodular-lattice identity
        a = (a ^ b) v (a ^ b'), which is equivalent to the existence of a
        joint orthogonal decomposition (the brute-force search in
        :mod:`qlogic.generators` cross-checks this equivalence)."""
        ia, ib = self.index(a), self.index(b)
        lhs = self._join[self._meet[ia][ib]][self._meet[ia][self._comp[ib]]]
        return lhs == ia

    # -- derived structure ---------------------------------------------------

    def covers(self) -> list[tuple[str, str]]:
        """Hasse edges (a, b) with a covered by b, in index order."""
        names, leq = self.names, self._leq
        n = len(names)
        return [(names[i], names[j]) for i in range(n) for j in range(n)
                if i != j and leq[i][j] and not any(
                    leq[i][k] and leq[k][j] and k not in (i, j) for k in range(n))]

    def atoms(self) -> tuple[str, ...]:
        zero, leq, n = self.index(ZERO), self._leq, len(self.names)
        return tuple(self.names[i] for i in range(n) if i != zero and all(
            k in (zero, i) or not leq[k][i] for k in range(n)))


def _closure(n: int, pairs: set[tuple[int, int]]):
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = True
    for a, b in pairs:
        leq[a][b] = True
    for k in range(n):
        row_k = leq[k]
        for i in range(n):
            if leq[i][k]:
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def _bound_table(names, leq, kind: str):
    """Total meet table of the order `leq` (pass the transposed order for
    joins); raises if some pair has no bound.

    The meet of i and j is the element whose down-set equals their common
    lower bounds, so each entry is one bitmask intersection and lookup;
    down-sets are distinct because cycles are rejected before this runs.
    """
    n = len(names)
    down = [sum(1 << c for c in range(n) if leq[c][k]) for k in range(n)]
    owner = {mask: k for k, mask in enumerate(down)}
    table = [[owner.get(down[i] & down[j]) for j in range(n)] for i in range(n)]
    for i, row in enumerate(table):
        if None in row:
            raise MissingMeetOrJoin(kind, names[i], names[row.index(None)])
    return table


def _check_size(n: int) -> None:
    """Refuse a lattice of n elements, n > MAX_ELEMENTS, before it is built."""
    if n > MAX_ELEMENTS:
        raise SizeOutOfRange(f"{n} elements exceeds the supported maximum {MAX_ELEMENTS}")


def build_logic(elements, order=(), complements=()) -> QuantumLogic:
    """Build and validate a quantum logic.

    Parameters
    ----------
    elements:
        element names; must include the bound tokens "0" and "1".
    order:
        pairs (a, b) meaning a <= b; any generating relation is fine, the
        reflexive-transitive closure is computed.  0 <= x <= 1 is implicit.
    complements:
        pairs (a, b) pairing each element with its orthocomplement; (0, 1)
        is implicit, and each pair also declares its mirror image.

    Equal descriptions give one shared, immutable object: the last
    _MEMO_SIZE distinct valid descriptions whose three parts are lists or
    tuples of hashable entries are kept for the process, with the tables a
    logic keeps once computed.  Any other input is built afresh, and a
    refused description is never kept, so every input raises what the
    builder raises.

    Raises the first failure found, in a deterministic element order:
    bad names, missing bounds, order cycles, missing meets/joins, missing
    or conflicting complements, then axioms (iii)-(v).  Axiom (ii), a'' = a,
    holds by construction: each declared pair sets both directions at once.
    """
    parts = (elements, order, complements)
    if all(isinstance(part, (list, tuple)) for part in parts):
        key = tuple(map(tuple, parts))
        try:
            hash(key)
        except TypeError:  # an unhashable name or pair: built afresh below
            pass
        else:
            return _memo(*key)
    return _build_logic(elements, order, complements)


def _build_logic(elements, order=(), complements=()) -> QuantumLogic:
    """:func:`build_logic` without the memo."""
    names = tuple(elements)
    seen = set()
    for name in names:
        if not is_element_name(name):
            raise BadElementName(f"element names must be {NAME_RULE}, got {name!r}")
        if name in seen:
            raise BadElementName(f"duplicate element name {name!r}")
        seen.add(name)
    if ZERO not in seen or ONE not in seen:
        raise MissingBounds("elements must include the bound tokens '0' and '1'")
    n = len(names)
    _check_size(n)

    index = {name: i for i, name in enumerate(names)}

    def idx(token):
        try:
            return index[token]
        except KeyError:
            raise UnknownElementError(token) from None

    zero, one = index[ZERO], index[ONE]
    pairs = {(idx(a), idx(b)) for a, b in order}
    pairs.update((zero, i) for i in range(n))
    pairs.update((i, one) for i in range(n))
    leq = _closure(n, pairs)

    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise CycleInOrder(names[i], names[j])

    meet = _bound_table(names, leq, "meet")
    join = _bound_table(names, list(zip(*leq)), "join")

    comp = [None] * n
    declared = list(complements) + [(ZERO, ONE)]
    for a, b in declared:
        ia, ib = idx(a), idx(b)
        for x, y in ((ia, ib), (ib, ia)):
            if comp[x] is not None and comp[x] != y:
                raise ComplementConflict(names[x], names[comp[x]], names[y])
            comp[x] = y
    for i in range(n):
        if comp[i] is None:
            raise MissingComplement(names[i])

    for i in range(n):
        if join[i][comp[i]] != one:
            raise AxiomViolation(
                "iii", f"{names[i]} v {names[comp[i]]} = "
                f"{names[join[i][comp[i]]]} != 1", (names[i],))
    for i in range(n):
        for j in range(n):
            if leq[i][j] and not leq[comp[j]][comp[i]]:
                raise AxiomViolation(
                    "iv", f"{names[i]} <= {names[j]} but complements are not "
                    f"reversed", (names[i], names[j]))
    for i in range(n):
        for j in range(n):
            if leq[i][j] and join[i][meet[comp[i]][j]] != j:
                raise AxiomViolation(
                    "v", f"orthomodular law fails: {names[j]} != {names[i]} v "
                    f"({names[comp[i]]} ^ {names[j]})", (names[i], names[j]))

    return QuantumLogic(
        names,
        tuple(tuple(row) for row in leq),
        tuple(comp),
        tuple(tuple(row) for row in meet),
        tuple(tuple(row) for row in join),
    )


_memo = lru_cache(maxsize=_MEMO_SIZE)(_build_logic)
