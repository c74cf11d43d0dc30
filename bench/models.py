"""Seeded model texts for horizontal sums of Boolean blocks.

The benchmark writes its own inputs instead of asking the program under
test for them: the element names, atom decompositions, s-map tables,
conditional states and observables below are computed here with plain
`Fraction` arithmetic, so the values the program returns can be compared
against numbers it did not produce.

A shape is a list of block sizes.  A block of two atoms is named `c`, `c'`;
a larger block `c1..ck` with proper joins `c12`, `c13`, ...  A single block
named `s` is the Boolean algebra that `gen_boolean` builds.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

ZERO, ONE = "0", "1"

#: resolution of the seeded rational draws
DENOMINATOR = 97


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Shape:
    """A lattice family member: its benchmark label, the qlogic constructor
    call that builds it, and its block sizes."""

    label: str
    constructor: str      # "gen_mo", "gen_boolean" or "horizontal_sum"
    arg: object
    blocks: tuple

    def build(self, generators):
        return getattr(generators, self.constructor)(self.arg)


def mo(n):
    return Shape(f"mo-{n}", "gen_mo", n, (2,) * n)


def boolean(n):
    return Shape(f"boolean-{n}", "gen_boolean", n, (n,))


def hs(*sizes):
    return Shape("hs-" + "-".join(map(str, sizes)), "horizontal_sum",
                 list(sizes), tuple(sizes))


class Structure:
    """Blocks, atoms and the atom set below every element of one shape."""

    def __init__(self, shape: Shape):
        letters = "s" if shape.constructor == "gen_boolean" else string.ascii_lowercase
        self.blocks = []          # list of atom-name lists
        self.below = {ZERO: frozenset()}
        self.complement = {ZERO: ONE, ONE: ZERO}
        self.covers = []          # (a, b) with b covering a, inside a block
        for letter, k in zip(letters, shape.blocks):
            if k == 2:
                names = {(1,): letter, (2,): letter + "'"}
            else:
                names = {s: letter + "".join(map(str, s))
                         for r in range(1, k) for s in combinations(range(1, k + 1), r)}
            atoms = [names[(i,)] for i in range(1, k + 1)]
            self.blocks.append(atoms)
            full = set(range(1, k + 1))
            for s, name in names.items():
                self.below[name] = frozenset(atoms[i - 1] for i in s)
                self.complement[name] = names[tuple(sorted(full - set(s)))]
                for t, other in names.items():
                    if len(t) == len(s) + 1 and set(s) < set(t):
                        self.covers.append((name, other))
        # 1 decomposes through the first block; every block gives the same sums
        self.below[ONE] = frozenset(self.blocks[0])
        self.block_of = {a: i for i, block in enumerate(self.blocks) for a in block}
        self.names = [ZERO, ONE] + [n for n in self.below if n not in (ZERO, ONE)]

    def block_of_element(self, e: str):
        return None if e in (ZERO, ONE) else self.block_of[min(self.below[e])]

    def orthogonal(self, u: str, v: str) -> bool:
        """u <= v'; for elements of one block the atom sets are disjoint,
        across blocks only the bounds are orthogonal to anything."""
        if ZERO in (u, v):
            return True
        if ONE in (u, v):
            return False
        if self.block_of_element(u) != self.block_of_element(v):
            return False
        return not (self.below[u] & self.below[v])


@dataclass
class Model:
    """One generated model: its text and the exact tables behind it."""

    text: str
    state: dict           # element -> Fraction, bounds included
    cond: dict            # (b, a) -> f(b | a), every element b, nonzero a
    smap: dict            # (a, b) -> p(a, b), all ordered pairs
    x: dict               # value -> element
    y: dict
    perturbed: tuple      # (a, b) cell to perturb, and its perturbed value


def _masses(rng: random.Random, atoms) -> dict:
    weights = [rng.randint(1, DENOMINATOR) for _ in atoms]
    total = sum(weights)
    return {a: Fraction(w, total) for a, w in zip(atoms, weights)}


def _atom_table(rng: random.Random, structure: Structure, mass: dict) -> dict:
    """Joint atom masses: diagonal within a block, and across two blocks a
    product table moved away from independence by margin-preserving swaps."""
    table = {}
    for block in structure.blocks:
        for a in block:
            for b in block:
                table[a, b] = mass[a] if a == b else Fraction(0)
    for rows in structure.blocks:
        for cols in structure.blocks:
            if rows is cols:
                continue
            for a in rows:
                for b in cols:
                    table[a, b] = mass[a] * mass[b]
            for _ in range(len(rows) * len(cols)):
                a1, a2 = rng.sample(rows, 2)
                b1, b2 = rng.sample(cols, 2)
                room = min(table[a1, b2], table[a2, b1])
                t = room * Fraction(rng.randint(1, DENOMINATOR - 1), DENOMINATOR)
                table[a1, b1] += t
                table[a2, b2] += t
                table[a1, b2] -= t
                table[a2, b1] -= t
    return table


def _observables(rng: random.Random, structure: Structure):
    """x reads the atoms of the first block; y the atoms of the second
    block, or two halves of the only block."""
    first = structure.blocks[0]
    if len(structure.blocks) > 1:
        y_events = structure.blocks[1]
    else:
        half = len(first) // 2
        by_atoms = {atoms: e for e, atoms in structure.below.items()}
        y_events = [by_atoms[frozenset(first[:half])], by_atoms[frozenset(first[half:])]]
    out = []
    for events in (first, y_events):
        values = rng.sample(range(-9, 10), len(events))
        out.append(dict(zip(map(Fraction, values), events)))
    return out


def generate(structure: Structure, order, seed, tag: str = "") -> Model:
    """A model on `structure` with every section kind, deterministic in
    `seed`.  `order` is the element order to declare (the order of the
    lattice the program builds), `tag` goes into a leading comment."""
    rng = random.Random(seed)
    mass = {}
    for block in structure.blocks:
        mass.update(_masses(rng, block))
    atoms = _atom_table(rng, structure, mass)
    below = structure.below
    smap = {(u, v): sum((atoms[a, b] for a in below[u] for b in below[v]), Fraction(0))
            for u in order for v in order}
    state = {u: smap[u, u] for u in order}
    cond = {(u, v): smap[u, v] / state[v] for v in order if v != ZERO for u in order}
    x, y = _observables(rng, structure)

    inner = [u for u in order if u not in (ZERO, ONE)]
    candidates = [(u, v) for u in inner for v in inner
                  if not structure.orthogonal(u, v)]
    cell = rng.choice(candidates)
    shrink = Fraction(rng.randint(1, DENOMINATOR - 1), DENOMINATOR)

    lines = [f"# generated model {tag}".rstrip(), "[logic]", "elements " + " ".join(order)]
    lines += [f"order {a} {b}" for a, b in structure.covers]
    lines += [f"complement {a} {structure.complement[a]}" for a in inner
              if order.index(a) < order.index(structure.complement[a])]
    lines += ["", "[state m]"] + [f"{u} = {fmt(state[u])}" for u in inner]
    lines += ["", "[cond f]"] + [f"{u} | {v} = {fmt(cond[u, v])}"
                                 for v in order if v != ZERO for u in inner]
    lines += ["", "[smap p]"] + [f"{u} , {v} = {fmt(smap[u, v])}"
                                 for u in order for v in order]
    for name, obs in (("x", x), ("y", y)):
        lines += ["", f"[observable {name}]"] + [f"{fmt(t)} -> {e}" for t, e in obs.items()]
    return Model("\n".join(lines) + "\n", state, cond, smap, x, y,
                 (cell, smap[cell] * shrink))


def expected_stats(model: Model) -> dict:
    """The exact moments compute_stats must report, from the generated
    tables: means under the diagonal, first joint moments in both orders,
    covariances and variances."""
    nu, p, x, y = model.state, model.smap, model.x, model.y
    nu_x = sum(t * nu[e] for t, e in x.items())
    nu_y = sum(s * nu[e] for s, e in y.items())
    m_xy = sum(t * s * p[e, f] for t, e in x.items() for s, f in y.items())
    m_yx = sum(s * t * p[f, e] for t, e in x.items() for s, f in y.items())
    return {
        "nu_x": nu_x, "nu_y": nu_y, "moment_xy": m_xy, "moment_yx": m_yx,
        "cov_xy": m_xy - nu_x * nu_y, "cov_yx": m_yx - nu_x * nu_y,
        "var_x": sum(t * t * nu[e] for t, e in x.items()) - nu_x * nu_x,
        "var_y": sum(s * s * nu[e] for s, e in y.items()) - nu_y * nu_y,
    }
