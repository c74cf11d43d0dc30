"""Stock lattices, seeded random models, and brute-force oracles.

Two lattice families cover the interesting finite territory at desk scale:
Boolean powerset algebras (everything compatible) and horizontal sums of
Boolean blocks glued at 0 and 1 (cross-block pairs noncompatible), both
made by one block builder and refused over MAX_ELEMENTS before it runs.  On
the horizontal sums, a seeded sampler draws valid s-maps: each cross-block
atom table comes from the transportation polytope with the diagonal state
as margins, so every draw satisfies the s-map axioms by construction.

The brute-force routines re-decide compatibility by exhaustive witness
search; they exist to cross-check the O(1) table identities used everywhere
else, and they share no code with them.
"""

from __future__ import annotations

import math
import random
import string
from fractions import Fraction
from itertools import combinations
from operator import itemgetter, le

from .errors import QLogicError, SizeOutOfRange, UnsupportedLattice
from .lattice import MAX_ELEMENTS, ONE, ZERO, QuantumLogic, _check_size, build_logic, kept
from .observables import _centered, _check_variances, _PairStats, _sums
from .records import FrozenRecord
from .smaps import (
    SMap,
    _check_smap,
    _orthogonal_cells,
    conditional_from_smap,
    smap_from_conditional,
)
from .states import State, _check_conditional

#: resolution of the random rational draws
DENOMINATOR_BOUND = 1000


# ---------------------------------------------------------------------------
# lattice constructors


def _boolean_block(k: int, name):
    """The proper nonempty subsets of 1..k, smallest first and each named
    once by `name` (sorted member tuple -> str), their covering pairs and
    their complement pairs; :func:`build_logic` adds 0, 1 and the closure."""
    named = {sum(1 << i for i in s): name(s)
             for r in range(1, k) for s in combinations(range(1, k + 1), r)}
    bits = [1 << i for i in range(1, k + 1)]
    order = [(a, named[m | b]) for m, a in named.items() for b in bits
             if not m & b and (m | b) in named]
    complements = [(a, named[sum(bits) - m]) for m, a in named.items()]
    return list(named.values()), order, complements


def gen_boolean(n: int) -> QuantumLogic:
    """Powerset lattice of an n-point set, n in 1..4; subsets are named
    's' plus their sorted member digits."""
    if not 1 <= n <= 4:
        raise SizeOutOfRange(f"boolean family supports 1..4 points, got {n}")
    elements, *pairs = _boolean_block(n, lambda s: "s" + "".join(map(str, s)))
    return build_logic([ZERO, *elements, ONE], *pairs)


def horizontal_sum(block_sizes) -> QuantumLogic:
    """Glue Boolean blocks together at 0 and 1.

    `block_sizes` lists the atom count of each block (each >= 2).  Blocks
    are lettered a, b, c, ...; a two-atom block contributes atoms c and c',
    a larger one atoms c1..ck and their proper joins (c12, c13, ...).
    """
    sizes = list(block_sizes)
    if not sizes or any(k < 2 for k in sizes):
        raise SizeOutOfRange("each block needs at least 2 atoms")
    if len(sizes) > len(string.ascii_lowercase):
        raise SizeOutOfRange("too many blocks")
    if max(sizes) > MAX_ELEMENTS:  # too large for 2^k even to be counted
        raise SizeOutOfRange(f"a block of {max(sizes)} atoms has over "
                             f"{MAX_ELEMENTS} elements")
    _check_size(2 + sum(2 ** k - 2 for k in sizes))  # before any block is built
    elements, order, complements = [ZERO, ONE], [], []
    for letter, k in zip(string.ascii_lowercase, sizes):
        name = ({(1,): letter, (2,): letter + "'"}.get if k == 2
                else lambda s: letter + "".join(map(str, s)))
        for whole, part in zip((elements, order, complements),
                               _boolean_block(k, name)):
            whole += part
    return build_logic(elements, order, complements)


def gen_mo(n: int) -> QuantumLogic:
    """Horizontal sum of n two-atom blocks (2n + 2 elements); atoms from
    distinct blocks are noncompatible as soon as n >= 2."""
    if not 1 <= n <= 8:
        raise SizeOutOfRange(f"mo family supports 1..8 blocks, got {n}")
    return horizontal_sum([2] * n)


# ---------------------------------------------------------------------------
# block structure


def infer_blocks(logic: QuantumLogic) -> tuple[tuple[str, ...], ...]:
    """Partition the atoms into Boolean blocks of a horizontal sum.

    Blocks are the connected components of the orthogonality graph on the
    atoms.  A block with one atom (`gen_boolean(1)`) or one that is not a
    clique (a pasting) is rejected; on an orthomodular lattice nothing else
    can fail.  A block joins to 1: else an atom c <= j' (j its join) is
    orthogonal to the block, so in it, and c <= j ^ j' = 0.  The atoms below
    e != 0, 1 share one block, that of any atom c <= e'.  Their join j is e:
    else j' ^ e != 0 (orthomodular law), and an atom below it is below e
    but not below j.
    """
    names = logic.names
    return tuple(tuple(names[a] for a in block) for block in _block_indices(logic))


@kept
def _block_indices(logic: QuantumLogic) -> tuple[tuple[int, ...], ...]:
    """:func:`infer_blocks` as atom indices, on the lattice's index tables."""
    names, leq, comp = logic.names, logic._leq, logic._comp
    atoms = [logic.index(a) for a in logic.atoms()]
    seen = set()
    blocks: list[list[int]] = []
    for atom in atoms:
        if atom not in seen:
            seen.add(atom)
            component, frontier = [atom], [atom]
            while frontier:
                current = frontier.pop()
                new = [b for b in atoms
                       if b not in seen and leq[current][comp[b]]]
                seen.update(new)
                component += new
                frontier += new
            blocks.append(tuple(sorted(component)))
    for block in blocks:
        if len(block) < 2:
            raise UnsupportedLattice(f"block of {names[block[0]]} has a single atom")
        for a, b in combinations(block, 2):
            if not leq[a][comp[b]]:
                raise UnsupportedLattice(f"atoms {names[a]} and {names[b]} share "
                                         f"a block but are not orthogonal")
    return tuple(blocks)


# ---------------------------------------------------------------------------
# seeded random models


def random_state(logic: QuantumLogic, seed: int) -> State:
    """Seeded random state on a horizontal-sum (or Boolean) lattice, with
    strictly positive mass on every atom: the diagonal of
    :func:`random_smap` for the same seed."""
    return random_smap(logic, seed).diagonal_state()


@kept
def _sampling_plan(logic: QuantumLogic) -> tuple:
    """What :func:`random_smap` needs of the lattice alone: the blocks;
    each ordered pair of distinct blocks as (rows but the last, last row,
    columns); DENOMINATOR_BOUND to the power of the most draws one pair
    takes; and the atoms below each element, which the additivity folds sum
    (1 decomposes through the first block, and any block gives the same
    sums)."""
    blocks = _block_indices(logic)  # UnsupportedLattice propagates
    pairs = [(rows[:-1], rows[-1], cols) for rows in blocks
             for cols in blocks if rows is not cols]
    draws = max((len(rows) * len(cols) for rows, _, cols in pairs), default=0)
    below = [(e,) if name == ZERO else blocks[0] if name == ONE else
             tuple(a for block in blocks for a in block if logic._leq[a][e])
             for e, name in enumerate(logic.names)]
    return blocks, pairs, DENOMINATOR_BOUND ** draws, below


def random_smap(logic: QuantumLogic, seed: int) -> SMap:
    """Seeded random s-map on a horizontal-sum (or Boolean) lattice.

    Draws a strictly positive diagonal state over each block's atoms, then
    one table per ordered pair of distinct blocks from the transportation
    polytope with those margins (sequential sampling stays feasible, so no
    retries are needed).  Every row but the last is drawn; each drawn row
    takes all its mass, so the last row's mass is the columns' remainder,
    and the last row is that remainder.  Remaining entries follow by
    additivity, so the result is a valid s-map by construction; it is
    deterministic for a fixed seed.  The lattice-only part of the work is
    done once per lattice (see :func:`_sampling_plan`).

    The arithmetic is on integers over one denominator.  Draw k of a block
    pair moves a value by u / DENOMINATOR_BOUND of a span whose denominator
    divides the block totals' product times DENOMINATOR_BOUND^(k-1), so over
    `den` below every value is an integer and every draw divides exactly.
    The draws are `randrange` calls, the stream `randint` would draw.
    """
    blocks, pairs, scale, below = _sampling_plan(logic)
    draw, bound = random.Random(seed).randrange, DENOMINATOR_BOUND
    weights = [[1 + draw(bound) for _ in block] for block in blocks]
    totals = [sum(w) for w in weights]
    den = math.lcm(*totals) ** 2 * scale
    n = len(logic)
    mass = [0] * n  # by element index; 0 off the atoms
    for block, ws, total in zip(blocks, weights, totals):
        for a, w in zip(block, ws):
            mass[a] = w * (den // total)

    cells = [[0] * n for _ in range(n)]  # atom pairs, by element index
    for e, row in enumerate(cells):
        row[e] = mass[e]
    for rows, last, cols in pairs:
        remaining_col = [mass[b] for b in cols]
        for a in rows:
            row, remaining_row, tail = cells[a], mass[a], sum(remaining_col)
            for j, b in enumerate(cols):
                col = remaining_col[j]
                tail -= col  # what cols[j + 1:] can take
                lo = remaining_row - tail if remaining_row > tail else 0
                hi = remaining_row if remaining_row < col else col
                t = lo + (hi - lo) * draw(bound + 1) // bound
                row[b] = t
                remaining_row -= t
                remaining_col[j] = col - t
        row = cells[last]
        for b, col in zip(cols, remaining_col):
            row[b] = col

    # remaining entries by additivity, summing whole rows over the atoms
    # below each element, then whole columns; a row of one atom is copied,
    # and so is that of 0, which is 0 in both folds
    def fold(table):
        return [table[atoms[0]] if len(atoms) == 1 else
                list(map(sum, zip(*map(table.__getitem__, atoms))))
                for atoms in below]

    columns = fold(list(zip(*fold(cells))))
    num = [v for row in zip(*columns) for v in row]
    return SMap.from_table(logic, num, den)


# ---------------------------------------------------------------------------
# brute-force oracles

#: cubic witness search cap
BRUTE_FORCE_MAX = 24


def _witnessed(logic: QuantumLogic) -> set:
    """The witness relation, as pairs of indices: (a, b) is in it when some
    c has x and y orthogonal to c and to each other with x v c = a and
    y v c = b.  One pass over every such triple (c, x, y) collects it."""
    leq, comp, join, n = logic._leq, logic._comp, logic._join, len(logic)
    if n > BRUTE_FORCE_MAX:
        raise SizeOutOfRange(
            f"witness search is cubic; {n} elements exceeds {BRUTE_FORCE_MAX}")
    orthogonal = [[x for x in range(n) if leq[x][comp[c]]] for c in range(n)]
    return {(join[x][c], join[y][c]) for c in range(n) for x in orthogonal[c]
            for y in orthogonal[c] if leq[y][comp[x]]}


def brute_force_compatible(logic: QuantumLogic, a: str, b: str) -> bool:
    """Decide compatibility straight from the definition: search every
    triple of mutually orthogonal elements recombining to a and b."""
    witnessed, index = _witnessed(logic), logic._index
    return a in index and b in index and (index[a], index[b]) in witnessed


def oracle_scan(logic: QuantumLogic) -> str | None:
    """Compare the table identity against the witness search on every pair;
    returns a description of the first disagreement, or None."""
    witnessed, compatible = _witnessed(logic), _compatibility(logic)
    for i, a in enumerate(logic.names):
        for j, b in enumerate(logic.names):
            fast, slow = compatible[i][j], (i, j) in witnessed
            if fast != slow:
                return (f"compatibility mismatch at ({a}, {b}): "
                        f"identity says {fast}, witness search says {slow}")
    return None


@kept
def _compatibility(logic: QuantumLogic) -> tuple:
    """`is_compatible` as an index table, one row per element, built from
    the lattice's own `is_compatible`."""
    names = logic.names
    return tuple(tuple(logic.is_compatible(a, b) for b in names) for a in names)


def distributivity_scan(logic: QuantumLogic) -> str | None:
    """Check that b is compatible with a1 v a2 and that b ^ (a1 v a2) =
    (a1 ^ b) v (a2 ^ b), for every pair a1, a2 of elements compatible with b.

    Larger families add nothing.  Let the pairs pass, take a1, a2, a3 all
    compatible with b, and let j = a1 v a2.  The pair (a1, a2) gives that b
    is compatible with j and that b ^ j = (a1 ^ b) v (a2 ^ b).  If j = a3,
    the family's join is j and its meets join to b ^ j, so nothing is new;
    otherwise the pair {j, a3} is visited, and its two checks are the
    family's.  Only two table facts are used, that join is associative and
    commutative with unit 0 and that meet is symmetric, so this holds for
    any compatibility table, however wrong.
    """
    names, meet, join = logic.names, logic._meet, logic._join
    compatible = _compatibility(logic)
    for a1, a2 in combinations(range(len(names)), 2):
        joined = join[a1][a2]
        for b, row in enumerate(compatible):
            if not (row[a1] and row[a2]):
                continue
            family = (names[a1], names[a2])
            if not row[joined]:
                return (f"compatibility does not propagate to the join: "
                        f"b={names[b]}, family={family}")
            lhs = meet[b][joined]
            rhs = join[meet[a1][b]][meet[a2][b]]
            if lhs != rhs:
                return (f"distributivity over compatible joins fails: "
                        f"b={names[b]}, family={family}: "
                        f"{names[lhs]} != {names[rhs]}")
    return None


# ---------------------------------------------------------------------------
# property suite


class SuiteReport(FrozenRecord):
    """How many trials of the roundtrip suite ran, passed and failed, and
    the first failure's description, or None."""

    _fields = ("trials", "passed", "failed", "first_failure")

    def __init__(self, trials: int, passed: int, failed: int,
                 first_failure: str | None):
        self.__dict__.update(trials=trials, passed=passed, failed=failed,
                             first_failure=first_failure)

    @property
    def ok(self) -> bool:
        return self.failed == 0


@kept
def _law_cells(logic: QuantumLogic) -> tuple:
    """Gathers of the cells :func:`smap_law_scan` compares on a whole
    table, by row-major index: the orthogonal cells, which must be 0; two
    sides that must be equal, each cell (i, j) of a compatible or ordered
    pair against the diagonal cell of i ^ j and against cell (j, i); and
    two sides that must be ordered, row i below row j for each ordered pair
    i < j.  A table that passes meets every cell law of the scan: for
    ordered i <= j, i ^ j is i, and a cell (i, j) lies below (1, j), which
    equals (j, 1) and (j, j).  Every s-map passes, as comparable elements
    are compatible."""
    leq, meet, n = logic._leq, logic._meet, len(logic)
    compatible = _compatibility(logic)
    cells = [(i, j, i * n + j) for i in range(n) for j in range(n)]
    equal = [(k, e) for i, j, k in cells if compatible[i][j] or leq[i][j]
             for e in (meet[i][j] * (n + 1), j * n + i)]
    below = [(i * n + c, j * n + c) for i, j, _ in cells
             if i != j and leq[i][j] for c in range(n)]
    sides = (*zip(*equal), *zip(*below))
    return (_orthogonal_cells(logic)[1], *(itemgetter(*side) for side in sides))


def smap_law_scan(p: SMap) -> str | None:
    """The derived s-map laws, checked exhaustively on one s-map.

    A pre-pass decides the laws of single cells on the whole table at
    once, through the lattice's kept gathers (see :func:`_law_cells`), and
    only a table that fails it is walked cell by cell, to name its first
    failure.  The marginal law sums whole rows and columns, and only a sum
    that fails is walked in the same way."""
    logic = p.logic
    names, leq, comp, meet = logic.names, logic._leq, logic._comp, logic._meet
    n, num = len(names), p.num
    rows, diagonal = p.rows(), num[::n + 1]
    orthogonal, left, right, lower, upper = _law_cells(logic)
    if (any(orthogonal(num)) or left(num) != right(num)
            or not all(map(le, lower(num), upper(num)))):
        compatible = _compatibility(logic)
        for i, a in enumerate(names):
            row = rows[i]
            for j, b in enumerate(names):
                v = row[j]
                if leq[i][comp[j]] and v != 0:
                    return f"orthogonal pair ({a}, {b}) with nonzero value"
                if compatible[i][j]:
                    if not v == diagonal[meet[i][j]] == rows[j][i]:
                        return f"compatible pair ({a}, {b}) breaks the meet identity"
                if leq[i][j]:
                    if v != row[i]:
                        return f"p({a}, {b}) != p({a}, {a}) despite {a} <= {b}"
                    if not all(map(le, row, rows[j])):
                        c = next(c for c, (u, w) in enumerate(zip(row, rows[j]))
                                 if u > w)
                        return f"monotonicity fails at ({a}, {b}; {names[c]})"
                if v > diagonal[j]:
                    return f"p({a}, {b}) exceeds the diagonal at {b}"
    # marginal law: each block's atoms decompose 1
    columns = [num[c::n] for c in range(n)]
    for block in _block_indices(logic):
        by_row = list(map(sum, zip(*map(columns.__getitem__, block))))
        by_column = list(map(sum, zip(*map(rows.__getitem__, block))))
        if by_row == by_column == list(diagonal):
            continue
        block = tuple(names[b] for b in block)
        for i, a in enumerate(names):
            if by_row[i] != diagonal[i]:
                return f"row marginal over block {block} fails at {a}"
            if by_column[i] != diagonal[i]:
                return f"column marginal over block {block} fails at {a}"
    return None


def independence_law_scan(f) -> str | None:
    """The three equivalences that follow from the independence definition,
    over every admissible triple.

    At c = a every b is independent, so (ii) and (iii) hold there, and (i)
    asks that the columns of a and a' be equal: one comparison decides the
    pair, and only a pair that fails is walked b by b."""
    logic = f.logic
    names, comp = logic.names, logic._comp
    col, one = f._common_columns
    compatible = _compatibility(logic)
    # b is independent of a given c (where f(c | a) = 1) iff
    # f(b | c) = f(b | a), that is col[c][b] == col[a][b]
    for a, col_a in col.items():
        for c, col_c in col.items():
            if col_a[c] != one:
                continue
            col_ac = col.get(comp[a])
            if col_ac is not None and col_ac[c] != one:
                col_ac = None
            if c == a and (col_ac is None or col_ac == col_a):
                continue
            for b in range(len(names)):
                ind = col_c[b] == col_a[b]
                # (ii) b and its complement agree
                if (col_c[comp[b]] == col_a[comp[b]]) != ind:
                    return (f"(ii) fails at b={names[b]}, a={names[a]}, "
                            f"c={names[c]}")
                # (i) complementary conditioning events agree
                if col_ac is not None and (col_c[b] == col_ac[b]) != ind:
                    return (f"(i) fails at b={names[b]}, a={names[a]}, "
                            f"c={names[c]}")
                # (iii) symmetry for compatible members
                col_b = col.get(b)
                if (col_b is not None and compatible[a][b] and col_b[c] == one
                        and (col_c[a] == col_b[a]) != ind):
                    return (f"(iii) fails at b={names[b]}, a={names[a]}, "
                            f"c={names[c]}")
    return None


def product_equivalence_scan(p: SMap, f) -> str | None:
    """Product factorization against the conditional-state definition of
    independence, conditioned on 1 (which f must condition on, as every
    conditional state derived from an s-map does)."""
    names = p.logic.names
    rows, den = p.rows(), p.den
    col, one = f._common_columns
    top = p.logic.index(ONE)
    given_one = col[top]
    for a, col_a in col.items():
        if col_a[top] != one:
            f.is_independent(ONE, names[a], ONE)  # raises PreconditionFailed
        for b in range(len(names)):
            # p(b, a) = p(a, a) p(b, b), on numerators over den
            lhs = rows[b][a] * den == rows[a][a] * rows[b][b]
            rhs = given_one[b] == col_a[b]
            if lhs != rhs:
                return (f"independence routes disagree at "
                        f"(b={names[b]}, a={names[a]})")
    return None


def _value_vectors(logic: QuantumLogic, rng: random.Random):
    """The two observables of the statistics scan, drawn from the trial
    stream: for each of the first two blocks (one block twice, when there
    is one), distinct integer values in -9..9 for its atoms, as the atom
    indices and their values in increasing value order.  A block's atoms
    already make an observable (see :func:`infer_blocks`)."""
    drawn = [sorted(zip(rng.sample(range(-9, 10), len(block)), block))
             for block in (_block_indices(logic) * 2)[:2]]
    return [([a for _, a in pairs], [v for v, _ in pairs]) for pairs in drawn]


def _fractions(scale: int, values) -> str:
    return ", ".join(str(Fraction(v, scale)) for v in values)


def _differ(scale: int, got: list, expected: list) -> str | None:
    """None when the integer lists agree, else both, over `scale`."""
    if got != expected:
        return f"{_fractions(scale, got)} against {_fractions(scale, expected)}"
    return None


#: The laws of the statistics scan, in the order it decides them, each as
#: (name, the paper's statement, a check that returns None or a witness).
#: A check reads the `_PairStats` of the pair (x, y), after its classical
#: route: numerators over p's denominator d, with means over c d,
#: covariances over (c d)^2 and the classical covariances over c^2 d^3 (the
#: scan's values are integers, c = 1).  Where the variances are not
#: negative, the first check also refuses a vanishing one, which leaves the
#: correlation undefined (`DegenerateVariance`).  The last three, on the
#: (x, x) table, run after the scan's two message checks.
STATISTICS_LAWS = (
    ("variance-signs", "Var(x) = c(x, x) >= 0 and Var(y) = c(y, y) >= 0",
     lambda s: _check_variances(s.vx, s.vy) if s.vx >= 0 <= s.vy else
     "Var(x), Var(y) = " + _fractions((s.c * s.d) ** 2, (s.vx, s.vy))),
    ("margins-total", "the (x, y) and (y, x) joint distributions sum to 1",
     lambda s: _differ(s.d, [sum(s.rows_xy), sum(s.rows_yx)], [s.d] * 2)),
    ("row-margins", "sum_s p(x(t), y(s)) = p(x(t), x(t)), in both orders",
     lambda s: _differ(s.d, s.rows_xy + s.rows_yx, s.nu_x + s.nu_y)),
    ("column-margins", "sum_t p(x(t), y(s)) = p(y(s), y(s)), in both orders",
     lambda s: _differ(s.d, s.columns_xy + s.columns_yx, s.nu_y + s.nu_x)),
    ("classical-mean-x", "x has the mean E(x) on both classical spaces",
     lambda s: _differ(s.c * s.d, [s.mx1, s.mx2], [s.sx] * 2)),
    ("classical-mean-y", "y has the mean E(y) on both classical spaces",
     lambda s: _differ(s.c * s.d, [s.my1, s.my2], [s.sy] * 2)),
    ("classical-covariance-xy", "the covariance on the first space is c(x, y)",
     lambda s: _differ(s.c ** 2 * s.d ** 3, [s.cov1], [s.d * s.cxy])),
    ("classical-covariance-yx", "the covariance on the second space is c(y, x)",
     lambda s: _differ(s.c ** 2 * s.d ** 3, [s.cov2], [s.d * s.cyx])),
    ("cauchy-schwarz-xy", "c(x, y)^2 <= Var(x) Var(y)",
     lambda s: None if s.cov1 * s.cov1 <= s.vx * s.vy * s.d * s.d else
     "c(x, y), Var(x), Var(y) = " + _fractions((s.c * s.d) ** 2, (s.cxy, s.vx, s.vy))),
    ("cauchy-schwarz-yx", "c(y, x)^2 <= Var(x) Var(y)",
     lambda s: None if s.cov2 * s.cov2 <= s.vx * s.vy * s.d * s.d else
     "c(y, x), Var(x), Var(y) = " + _fractions((s.c * s.d) ** 2, (s.cyx, s.vx, s.vy))),
    ("xx-margins-total", "the (x, x) joint distribution sums to 1",
     lambda s: _differ(s.d, [sum(map(sum, s.xx))], [s.d])),
    ("xx-row-margins", "sum_s p(x(t), x(s)) = p(x(t), x(t))",
     lambda s: _differ(s.d, _sums(s.xx), s.nu_x)),
    ("xx-column-margins", "sum_t p(x(t), x(s)) = p(x(s), x(s))",
     lambda s: _differ(s.d, _sums(zip(*s.xx)), s.nu_x)),
)


def _broken(laws, stats) -> str | None:
    """The first of `laws` that `stats` breaks, as 'law: witness', or None."""
    for name, _, check in laws:
        witness = check(stats)
        if witness is not None:
            return f"{name}: {witness}"
    return None


def statistics_law_scan(p: SMap, rng: random.Random) -> str | None:
    """Centered-moment identity, defined correlation, classical
    representation (Cauchy-Schwarz included), and symmetry under
    compatibility, on observables derived from the block structure, for
    the pairs (x, y) and (x, x); the cells are read once, by (x, y).

    (y, x) would decide nothing new.  The (x, y) pass tests both variances,
    and its classical representation tests the margins of the (x, y) and
    (y, x) tables, both means, the centered-moment identity of (y, x) and
    Cauchy-Schwarz in both orders.  Compatibility is symmetric on an
    orthomodular lattice, so the symmetry check would be the same one.
    Of (x, x), its centered-moment identity and the margins of the xx block
    remain.  Its variances were tested in the (x, y) pass; its classical
    covariance is the number of the identity; Cauchy-Schwarz is then an
    equality; its two joint moments are the same sum.  The observables are
    the only draw from `rng`, so the trial stream does not depend on this.

    The observables are integer value vectors over the blocks' atoms, and
    compatibility is read from the lattice's table.  A broken law of
    STATISTICS_LAWS is returned as 'law: witness'.
    """
    (xs, X), (ys, Y) = _value_vectors(p.logic, rng)
    s = _PairStats(p, xs, ys, X, Y, 1)
    if _centered(X, Y, s.xy, s.d, s.sx, s.sy) != s.d * s.cxy:
        return "centered-moment identity fails"
    s.classical()
    failure = _broken(STATISTICS_LAWS[:10], s)
    if failure is not None:
        return failure
    compatible = _compatibility(p.logic)
    if s.mxy != s.myx and all(compatible[e][f] for e in xs for f in ys):
        return "compatible observables with asymmetric joint moment"
    if _centered(X, X, s.xx, s.d, s.sx, s.sx) != s.d * s.vx:
        return "centered-moment identity fails"
    return _broken(STATISTICS_LAWS[10:], s)


def roundtrip_suite(logic: QuantumLogic, trials: int, seed: int) -> SuiteReport:
    """Generate seeded s-maps and drive each through the validators, the
    conversion roundtrips and the full theorem battery.  A trial that
    raises a QLogicError or an AssertionError after sampling failed, with
    the exception's class and message as its failure."""
    rng = random.Random(seed)
    passed = failed = 0
    first_failure = None

    def run_trial(p: SMap) -> str | None:
        _check_smap(p)
        f = conditional_from_smap(p)
        _check_conditional(f)
        p2 = smap_from_conditional(f)
        if p2 != p:
            return "s-map -> conditional -> s-map is not the identity"
        return (smap_law_scan(p)
                or product_equivalence_scan(p, f)
                or independence_law_scan(f)
                or statistics_law_scan(p, rng))

    for i in range(trials):
        trial_seed = rng.getrandbits(32)
        p = random_smap(logic, trial_seed)  # UnsupportedLattice propagates
        try:
            failure = run_trial(p)
        except (QLogicError, AssertionError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure is None:
            passed += 1
        else:
            failed += 1
            if first_failure is None:
                first_failure = f"trial {i} (seed {trial_seed}): {failure}"
    return SuiteReport(trials, passed, failed, first_failure)
