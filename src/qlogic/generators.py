"""Stock lattices, seeded random models, and brute-force oracles.

Two lattice families cover the interesting finite territory at desk scale:
Boolean powerset algebras (everything compatible) and horizontal sums of
Boolean blocks glued at 0 and 1 (cross-block pairs noncompatible).  On the
horizontal sums, a seeded sampler produces valid s-maps by drawing each
cross-block atom table from the transportation polytope with the diagonal
state as margins, so every draw satisfies the s-map axioms by construction.

The brute-force routines re-decide compatibility by exhaustive witness
search; they exist to cross-check the O(1) table identities used everywhere
else, and they share no code with them.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import SizeOutOfRange, UnsupportedLattice
from .lattice import ONE, ZERO, QuantumLogic, build_logic
from .observables import (
    build_observable,
    classical_representation,
    correlation,
    covariance,
    expectation,
    first_joint_moment,
)
from .smaps import SMap, conditional_from_smap, smap_from_conditional, validate_smap
from .states import State, validate_conditional_state

#: resolution of the random rational draws
DENOMINATOR_BOUND = 1000


# ---------------------------------------------------------------------------
# lattice constructors


def gen_boolean(n: int) -> QuantumLogic:
    """Powerset lattice of an n-point set, n in 1..4; subsets are named
    's' plus their sorted member digits."""
    if not 1 <= n <= 4:
        raise SizeOutOfRange(f"boolean family supports 1..4 points, got {n}")
    points = list(range(1, n + 1))
    subsets = []
    for r in range(n + 1):
        subsets.extend(combinations(points, r))

    def name(s):
        if not s:
            return ZERO
        if len(s) == n:
            return ONE
        return "s" + "".join(str(i) for i in s)

    elements = [name(s) for s in subsets]
    order = [(name(s), name(t)) for s in subsets for t in subsets
             if set(s) <= set(t)]
    complements = [(name(s), name(tuple(i for i in points if i not in s)))
                   for s in subsets]
    return build_logic(elements, order, complements)


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

    elements = [ZERO, ONE]
    order = []
    complements = []
    for letter, k in zip(string.ascii_lowercase, sizes):
        if k == 2:
            names = {(1,): letter, (2,): letter + "'"}
        else:
            names = {}
            for r in range(1, k):
                for s in combinations(range(1, k + 1), r):
                    names[s] = letter + "".join(str(i) for i in s)
        elements.extend(names[s] for s in sorted(names, key=lambda s: (len(s), s)))
        full = tuple(range(1, k + 1))
        for s, sname in names.items():
            rest = tuple(i for i in full if i not in s)
            if rest:
                complements.append((sname, names[rest]))
            for t, tname in names.items():
                if set(s) < set(t):
                    order.append((sname, tname))
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
    atoms.  The partition is verified: blocks must be cliques of that graph
    joining to 1, and every element other than the bounds must be the join
    of the atoms below it, all from a single block.  Anything else is not a
    horizontal sum and is rejected.
    """
    atoms = logic.atoms()
    block_of = {}
    blocks: list[list[str]] = []
    for atom in atoms:
        if atom in block_of:
            continue
        component = [atom]
        block_of[atom] = len(blocks)
        frontier = [atom]
        while frontier:
            current = frontier.pop()
            for other in atoms:
                if other not in block_of and logic.is_orthogonal(current, other):
                    block_of[other] = len(blocks)
                    component.append(other)
                    frontier.append(other)
        blocks.append(sorted(component, key=logic.index))

    for block in blocks:
        if len(block) < 2:
            raise UnsupportedLattice(f"block of {block[0]} has a single atom")
        for a, b in combinations(block, 2):
            if not logic.is_orthogonal(a, b):
                raise UnsupportedLattice(
                    f"atoms {a} and {b} share a block but are not orthogonal")
        if logic.join_all(block) != ONE:
            raise UnsupportedLattice(f"block of {block[0]} does not join to 1")
    for e in logic.names:
        if e in (ZERO, ONE):
            continue
        below = [a for a in atoms if logic.leq(a, e)]
        if not below or len({block_of[a] for a in below}) != 1:
            raise UnsupportedLattice(f"element {e} spans several blocks")
        if logic.join_all(below) != e:
            raise UnsupportedLattice(f"element {e} is not a join of atoms")
    return tuple(tuple(b) for b in blocks)


def _atoms_below(logic: QuantumLogic, blocks) -> dict:
    """Atom decomposition used for additive completion; 1 decomposes
    through the first block (any block gives the same sums)."""
    table = {ZERO: (), ONE: tuple(blocks[0])}
    for e in logic.names:
        if e in (ZERO, ONE):
            continue
        table[e] = tuple(a for block in blocks for a in block if logic.leq(a, e))
    return table


# ---------------------------------------------------------------------------
# seeded random models


def _random_unit(rng: random.Random) -> Fraction:
    """Uniform draw from [0, 1] at 1/DENOMINATOR_BOUND resolution."""
    return Fraction(rng.randint(0, DENOMINATOR_BOUND), DENOMINATOR_BOUND)


def _random_block_masses(rng: random.Random, k: int) -> list[Fraction]:
    """Strictly positive rational masses summing to 1."""
    weights = [rng.randint(1, DENOMINATOR_BOUND) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_state(logic: QuantumLogic, seed: int) -> State:
    """Seeded random state on a horizontal-sum (or Boolean) lattice, with
    strictly positive mass on every atom: the diagonal of
    :func:`random_smap` for the same seed."""
    return random_smap(logic, seed).diagonal_state()


def random_smap(logic: QuantumLogic, seed: int) -> SMap:
    """Seeded random s-map on a horizontal-sum (or Boolean) lattice.

    Draws a strictly positive diagonal state over each block's atoms, then
    one table per ordered pair of distinct blocks from the transportation
    polytope with those margins (sequential sampling stays feasible, so no
    retries are needed).  Remaining entries follow by additivity, so the
    result is a valid s-map by construction; it is deterministic for a
    fixed seed.
    """
    blocks = infer_blocks(logic)
    below = _atoms_below(logic, blocks)
    rng = random.Random(seed)

    mass = {}
    for block in blocks:
        for atom, m in zip(block, _random_block_masses(rng, len(block))):
            mass[atom] = m

    atom_table = {}
    for block in blocks:
        for a in block:
            for b in block:
                atom_table[a, b] = mass[a] if a == b else Fraction(0)
    for rows in blocks:
        for cols in blocks:
            if rows is cols:
                continue
            remaining_col = {b: mass[b] for b in cols}
            for i, a in enumerate(rows):
                remaining_row = mass[a]
                for j, b in enumerate(cols):
                    tail = sum((remaining_col[c] for c in cols[j + 1:]),
                               Fraction(0))
                    lo = max(Fraction(0), remaining_row - tail)
                    hi = min(remaining_row, remaining_col[b])
                    if i == len(rows) - 1:
                        t = hi  # last row is forced to the column remainder
                    else:
                        t = lo + (hi - lo) * _random_unit(rng)
                    atom_table[a, b] = t
                    remaining_row -= t
                    remaining_col[b] -= t

    values = {}
    for u in logic.names:
        for v in logic.names:
            values[u, v] = sum((atom_table[a, b]
                                for a in below[u] for b in below[v]),
                               Fraction(0))
    return SMap(logic, values)


# ---------------------------------------------------------------------------
# brute-force oracles

#: cubic witness search cap
BRUTE_FORCE_MAX = 24


def brute_force_compatible(logic: QuantumLogic, a: str, b: str) -> bool:
    """Decide compatibility straight from the definition: search every
    triple of mutually orthogonal elements recombining to a and b."""
    if len(logic) > BRUTE_FORCE_MAX:
        raise SizeOutOfRange(
            f"witness search is cubic; {len(logic)} elements exceeds "
            f"{BRUTE_FORCE_MAX}")
    for a1 in logic.names:
        for b1 in logic.names:
            if not logic.is_orthogonal(a1, b1):
                continue
            for c in logic.names:
                if (logic.is_orthogonal(a1, c) and logic.is_orthogonal(b1, c)
                        and logic.join(a1, c) == a and logic.join(b1, c) == b):
                    return True
    return False


def oracle_scan(logic: QuantumLogic) -> str | None:
    """Compare the table identity against the witness search on every pair;
    returns a description of the first disagreement, or None."""
    for a in logic.names:
        for b in logic.names:
            fast = logic.is_compatible(a, b)
            slow = brute_force_compatible(logic, a, b)
            if fast != slow:
                return (f"compatibility mismatch at ({a}, {b}): "
                        f"identity says {fast}, witness search says {slow}")
    return None


def distributivity_scan(logic: QuantumLogic, family_sizes=(2, 3)) -> str | None:
    """Check b ^ (v a_i) = v (a_i ^ b) for families of elements all
    compatible with b, exhaustively for the given family sizes."""
    for r in family_sizes:
        for family in combinations(logic.names, r):
            joined = logic.join_all(family)
            for b in logic.names:
                if not all(logic.is_compatible(b, a) for a in family):
                    continue
                if not logic.is_compatible(b, joined):
                    return (f"compatibility does not propagate to the join: "
                            f"b={b}, family={family}")
                lhs = logic.meet(b, joined)
                rhs = logic.join_all(logic.meet(a, b) for a in family)
                if lhs != rhs:
                    return (f"distributivity over compatible joins fails: "
                            f"b={b}, family={family}: {lhs} != {rhs}")
    return None


# ---------------------------------------------------------------------------
# property suite


@dataclass(frozen=True)
class SuiteReport:
    trials: int
    passed: int
    failed: int
    first_failure: str | None

    @property
    def ok(self) -> bool:
        return self.failed == 0


def smap_law_scan(p: SMap) -> str | None:
    """The derived s-map laws, checked exhaustively on one s-map."""
    logic = p.logic
    nu = p.diagonal_state()
    for a in logic.names:
        for b in logic.names:
            if logic.is_orthogonal(a, b) and p(a, b) != 0:
                return f"orthogonal pair ({a}, {b}) with nonzero value"
            if logic.is_compatible(a, b):
                m = logic.meet(a, b)
                if not p(a, b) == p(m, m) == p(b, a):
                    return f"compatible pair ({a}, {b}) breaks the meet identity"
            if logic.leq(a, b):
                if p(a, b) != p(a, a):
                    return f"p({a}, {b}) != p({a}, {a}) despite {a} <= {b}"
                for c in logic.names:
                    if p(a, c) > p(b, c):
                        return f"monotonicity fails at ({a}, {b}; {c})"
            if p(a, b) > p(b, b):
                return f"p({a}, {b}) exceeds the diagonal at {b}"
    # marginal law: each block's atoms decompose 1
    for block in infer_blocks(logic):
        for a in logic.names:
            if sum(p(a, b) for b in block) != nu(a):
                return f"row marginal over block {block} fails at {a}"
            if sum(p(b, a) for b in block) != nu(a):
                return f"column marginal over block {block} fails at {a}"
    return None


def independence_law_scan(f) -> str | None:
    """The three equivalences that follow from the independence definition,
    over every admissible triple."""
    logic = f.logic
    members = f.cs.sorted_members()
    for a in members:
        ac = logic.complement(a)
        for c in members:
            if f(c, a) != 1:
                continue
            for b in logic.names:
                ind = f.is_independent(b, a, c)
                # (ii) b and its complement agree
                if f.is_independent(logic.complement(b), a, c) != ind:
                    return f"(ii) fails at b={b}, a={a}, c={c}"
                # (i) complementary conditioning events agree
                if ac in f.cs and f(c, ac) == 1:
                    if f.is_independent(b, ac, c) != ind:
                        return f"(i) fails at b={b}, a={a}, c={c}"
                # (iii) symmetry for compatible members
                if (b in f.cs and logic.is_compatible(a, b)
                        and f(c, b) == 1):
                    if f.is_independent(a, b, c) != ind:
                        return f"(iii) fails at b={b}, a={a}, c={c}"
    return None


def product_equivalence_scan(p: SMap, f) -> str | None:
    """Product factorization against the conditional-state definition of
    independence, conditioned on 1."""
    for a in f.cs.sorted_members():
        for b in p.logic.names:
            lhs = p.is_independent_pair(b, a)
            rhs = f.is_independent(b, a, ONE)
            if lhs != rhs:
                return f"independence routes disagree at (b={b}, a={a})"
    return None


def _derived_observables(logic: QuantumLogic, rng: random.Random):
    """One observable per block (first two blocks), with distinct small
    integer values drawn from the trial stream."""
    blocks = infer_blocks(logic)
    chosen = (blocks * 2)[:2]
    out = []
    for block in chosen:
        values = rng.sample(range(-9, 10), len(block))
        out.append(build_observable(logic, zip(values, block)))
    return out


def statistics_law_scan(p: SMap, rng: random.Random) -> str | None:
    """Centered-moment identity, correlation bounds, classical
    representation, and symmetry under compatibility, on observables
    derived from the block structure."""
    logic = p.logic
    nu = p.diagonal_state()
    x, y = _derived_observables(logic, rng)
    for u, v in ((x, y), (y, x), (x, x)):
        centered_u = u.compose(lambda t, m=expectation(nu, u): t - m)
        centered_v = v.compose(lambda t, m=expectation(nu, v): t - m)
        if covariance(p, u, v) != first_joint_moment(p, centered_u, centered_v):
            return "centered-moment identity fails"
        r = correlation(p, u, v)
        if not -1.0 <= r <= 1.0:
            return f"correlation {r} escapes [-1, 1]"
        classical_representation(p, u, v)  # asserts its own equalities
        if u.is_compatible_with(v):
            if first_joint_moment(p, u, v) != first_joint_moment(p, v, u):
                return "compatible observables with asymmetric joint moment"
            if covariance(p, u, v) != covariance(p, v, u):
                return "compatible observables with asymmetric covariance"
    return None


def roundtrip_suite(logic: QuantumLogic, trials: int, seed: int) -> SuiteReport:
    """Generate seeded s-maps and drive each through the validators, the
    conversion roundtrips and the full theorem battery."""
    rng = random.Random(seed)
    passed = failed = 0
    first_failure = None

    def run_trial(trial_seed: int) -> str | None:
        p = random_smap(logic, trial_seed)
        validate_smap(logic, p.values)
        f = conditional_from_smap(p)
        validate_conditional_state(logic, f.cs, f.values)
        p2 = smap_from_conditional(f)
        if p2.values != p.values:
            return "s-map -> conditional -> s-map is not the identity"
        f2 = conditional_from_smap(p2)
        if f2.values != f.values or f2.cs != f.cs:
            return "conditional -> s-map -> conditional is not the identity"
        return (smap_law_scan(p)
                or product_equivalence_scan(p, f)
                or independence_law_scan(f)
                or statistics_law_scan(p, rng))

    for i in range(trials):
        trial_seed = rng.getrandbits(32)
        failure = run_trial(trial_seed)
        if failure is None:
            passed += 1
        else:
            failed += 1
            if first_failure is None:
                first_failure = f"trial {i} (seed {trial_seed}): {failure}"
    return SuiteReport(trials, passed, failed, first_failure)
