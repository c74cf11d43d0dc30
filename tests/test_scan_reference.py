"""The law scans of `qlogic check` against name-keyed reference scans.

The reference scans below walk element names and compare Fractions, in the
order the package's scans promise to report their first failure.  They
share no code with those scans, which read index tables and integer
numerators; the statistics reference also keeps its own name-keyed
moments, covariances and classical representation.  On seeded, perturbed,
unvalidated s-maps and conditional states, and on a lattice whose
`is_compatible` answers wrongly on chosen pairs, both must return the same
message (or None), or raise the same exception.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from qlogic import conditional_from_smap, horizontal_sum, random_smap
from qlogic.errors import DegenerateVariance, PreconditionFailed, SizeOutOfRange
from qlogic.generators import (
    BRUTE_FORCE_MAX,
    STATISTICS_LAWS,
    brute_force_compatible,
    distributivity_scan,
    independence_law_scan,
    infer_blocks,
    oracle_scan,
    product_equivalence_scan,
    smap_law_scan,
    statistics_law_scan,
)
from qlogic.lattice import ONE, QuantumLogic
from qlogic.observables import build_observable
from qlogic.smaps import SMap
from qlogic.states import ConditionalState

# -- reference scans ----------------------------------------------------------


def reference_smap_law_scan(p):
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
    for block in infer_blocks(logic):
        for a in logic.names:
            if sum(p(a, b) for b in block) != nu(a):
                return f"row marginal over block {block} fails at {a}"
            if sum(p(b, a) for b in block) != nu(a):
                return f"column marginal over block {block} fails at {a}"
    return None


def reference_independence_law_scan(f):
    logic = f.logic
    members = f.cs.sorted_members()
    for a in members:
        ac = logic.complement(a)
        for c in members:
            if f(c, a) != 1:
                continue
            for b in logic.names:
                ind = f.is_independent(b, a, c)
                if f.is_independent(logic.complement(b), a, c) != ind:
                    return f"(ii) fails at b={b}, a={a}, c={c}"
                if ac in f.cs and f(c, ac) == 1:
                    if f.is_independent(b, ac, c) != ind:
                        return f"(i) fails at b={b}, a={a}, c={c}"
                if (b in f.cs and logic.is_compatible(a, b)
                        and f(c, b) == 1):
                    if f.is_independent(a, b, c) != ind:
                        return f"(iii) fails at b={b}, a={a}, c={c}"
    return None


def reference_product_equivalence_scan(p, f):
    for a in f.cs.sorted_members():
        for b in p.logic.names:
            lhs = p.is_independent_pair(b, a)
            rhs = f.is_independent(b, a, ONE)
            if lhs != rhs:
                return f"independence routes disagree at (b={b}, a={a})"
    return None


def reference_brute_force_compatible(logic, a, b):
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


def reference_oracle_scan(logic):
    for a in logic.names:
        for b in logic.names:
            fast = logic.is_compatible(a, b)
            slow = reference_brute_force_compatible(logic, a, b)
            if fast != slow:
                return (f"compatibility mismatch at ({a}, {b}): "
                        f"identity says {fast}, witness search says {slow}")
    return None


def reference_distributivity_scan(logic, family_sizes=(2, 3)):
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


# the statistics reference keeps its own name-keyed statistics


def ref_expectation(nu, x):
    return sum((t * nu(x.element(t)) for t in x.spectrum), F(0))


def ref_moment(p, x, y):
    return sum((t * s * p(x.element(t), y.element(s))
                for t in x.spectrum for s in y.spectrum), F(0))


def ref_covariance(p, x, y):
    nu = p.diagonal_state()
    return ref_moment(p, x, y) - ref_expectation(nu, x) * ref_expectation(nu, y)


def ref_variance(p, x):
    v = ref_covariance(p, x, x)
    assert v >= 0
    return v


def ref_correlation(p, x, y):
    cov, vx, vy = ref_covariance(p, x, y), ref_variance(p, x), ref_variance(p, y)
    if vx == 0:
        raise DegenerateVariance("x")
    if vy == 0:
        raise DegenerateVariance("y")
    return max(-1.0, min(1.0, float(cov) / math.sqrt(float(vx * vy))))


def ref_joint(p, x, y):
    nu = p.diagonal_state()
    table = {(t, s): p(x.element(t), y.element(s))
             for t in x.spectrum for s in y.spectrum}
    assert sum(table.values()) == 1
    for t in x.spectrum:
        assert sum(table[t, s] for s in y.spectrum) == nu(x.element(t))
    for s in y.spectrum:
        assert sum(table[t, s] for t in x.spectrum) == nu(y.element(s))
    return table


def ref_classical(p, x, y):
    jxy, jyx = ref_joint(p, x, y), ref_joint(p, y, x)
    pts_xy = [(t, s) for t in x.spectrum for s in y.spectrum]
    pts_yx = [(s, t) for s in y.spectrum for t in x.spectrum]
    mx1 = sum((t * jxy[t, s] for t, s in pts_xy), F(0))
    my1 = sum((s * jxy[t, s] for t, s in pts_xy), F(0))
    mx2 = sum((t * jyx[s, t] for s, t in pts_yx), F(0))
    my2 = sum((s * jyx[s, t] for s, t in pts_yx), F(0))
    cov_1 = sum(((t - mx1) * (s - my1) * jxy[t, s] for t, s in pts_xy), F(0))
    cov_2 = sum(((t - mx2) * (s - my2) * jyx[s, t] for s, t in pts_yx), F(0))
    nu = p.diagonal_state()
    assert mx1 == mx2 == ref_expectation(nu, x)
    assert my1 == my2 == ref_expectation(nu, y)
    vx, vy = ref_variance(p, x), ref_variance(p, y)
    assert cov_1 == ref_covariance(p, x, y)
    assert cov_2 == ref_covariance(p, y, x)
    assert cov_1 * cov_1 <= vx * vy
    assert cov_2 * cov_2 <= vx * vy


def reference_statistics_law_scan(p, rng):
    logic = p.logic
    nu = p.diagonal_state()
    blocks = infer_blocks(logic)
    x, y = (build_observable(logic, zip(rng.sample(range(-9, 10), len(b)), b))
            for b in (blocks * 2)[:2])
    for u, v in ((x, y), (y, x), (x, x)):
        centered_u = u.compose(lambda t, m=ref_expectation(nu, u): t - m)
        centered_v = v.compose(lambda t, m=ref_expectation(nu, v): t - m)
        if ref_covariance(p, u, v) != ref_moment(p, centered_u, centered_v):
            return "centered-moment identity fails"
        r = ref_correlation(p, u, v)
        if not -1.0 <= r <= 1.0:
            return f"correlation {r} escapes [-1, 1]"
        ref_classical(p, u, v)
        if u.is_compatible_with(v):
            if ref_moment(p, u, v) != ref_moment(p, v, u):
                return "compatible observables with asymmetric joint moment"
            if ref_covariance(p, u, v) != ref_covariance(p, v, u):
                return "compatible observables with asymmetric covariance"
    return None


# -- inputs ---------------------------------------------------------------------


class Miswired(QuantumLogic):
    """A copy of a logic whose `is_compatible` answers wrongly on the
    ordered pairs in `flipped`; everything else is the original's."""

    def __init__(self, logic, flipped):
        super().__init__(logic.names, logic._leq, logic._comp, logic._meet,
                         logic._join)
        self.flipped = frozenset(flipped)

    def is_compatible(self, a, b):
        return super().is_compatible(a, b) != ((a, b) in self.flipped)


def miswired(logic, rng):
    """`logic` with `is_compatible` wrong on four ordered pairs of
    comparable elements (where the right answer is always True), two with
    the smaller element first and two with the larger."""
    names = logic.names
    comparable = [(a, b) for a in names for b in names if logic.lt(a, b)]
    flipped = rng.sample(comparable, 2)
    flipped += [(b, a) for a, b in rng.sample(comparable, 2)]
    return Miswired(logic, flipped)


#: the statistics laws the package names where the reference asserts
STATISTICS_LAW_NAMES = tuple(f"{name}: " for name, _, _ in STATISTICS_LAWS)


def outcome(scan, *args):
    """What a scan did: ('return', message or None) or ('raise', class,
    args).  The reference asserts the statistics theorems, and the package
    returns each as a named law ('law: witness'); both count as the one
    outcome ('raise', AssertionError, ()), by class alone: pytest adds
    messages to the asserts in this file."""
    try:
        result = scan(*args)
    except AssertionError:
        return ("raise", AssertionError, ())
    except Exception as exc:
        return ("raise", type(exc), exc.args)
    if result is not None and result.startswith(STATISTICS_LAW_NAMES):
        return ("raise", AssertionError, ())
    return ("return", result)


def nudge(rng) -> F:
    return F(rng.choice([-1, 1]), rng.choice([2, 7, 10, 1000]))


def perturb_smap(values, logic, rng) -> dict:
    """One seeded perturbation of a total s-map table; the table stays total."""
    values = dict(values)
    names = logic.names
    cell = lambda: (rng.choice(names), rng.choice(names))  # noqa: E731
    kind = rng.randrange(6)
    if kind == 0:                       # nudge one cell
        c = cell()
        values[c] += nudge(rng)
    elif kind == 1:                     # swap two cells
        c, d = cell(), cell()
        values[c], values[d] = values[d], values[c]
    elif kind == 2:                     # transpose one cell
        a, b = cell()
        values[a, b], values[b, a] = values[b, a], values[a, b]
    elif kind == 3:                     # move mass between the atoms of
        atoms = rng.choice(infer_blocks(logic))  # a block, keeping margins
        a, c, b, d = (rng.sample(atoms, 4) if len(atoms) >= 4
                      else [rng.choice(atoms) for _ in range(4)])
        delta = nudge(rng)
        values[a, b] += delta
        values[c, d] += delta
        values[a, d] -= delta
        values[c, b] -= delta
    elif kind == 4:                     # set one cell to 0 or 1
        values[cell()] = F(rng.randint(0, 1))
    else:                               # copy one row over another
        a, b = rng.choice(names), rng.choice(names)
        for c in names:
            values[b, c] = values[a, c]
    return values


def perturb_conditional(values, names, members, rng) -> dict:
    """One seeded perturbation of a total conditional table f(b | a)."""
    values = dict(values)
    kind = rng.randrange(5)
    b, a, c = rng.choice(names), rng.choice(members), rng.choice(members)
    if kind == 0:                       # nudge one entry
        values[b, a] += nudge(rng)
    elif kind == 1:                     # make f(c | a) = 1
        values[c, a] = F(1)
    elif kind == 2:                     # swap two columns
        for d in names:
            values[d, a], values[d, c] = values[d, c], values[d, a]
    elif kind == 3:                     # copy one column over another
        for d in names:
            values[d, c] = values[d, a]
    else:                               # break f(1 | a) = 1
        values[ONE, a] += nudge(rng)
    return values


def trial_inputs(logic, seed):
    """A random s-map and its conditional state on `logic`, then perturbed,
    unvalidated copies of each (built directly, without the validators),
    on `logic` itself or on a miswired copy; plus a seed for the
    statistics scan's observables."""
    rng = random.Random(seed)
    p = random_smap(logic, seed)
    f = conditional_from_smap(p)
    members = f.cs.sorted_members()
    smap_values, cond_values = dict(p.values), dict(f.values)
    base = logic
    if rng.random() < 0.4:  # miswire, and nudge the cell of a miswired pair
        base = miswired(logic, rng)
        smap_values[rng.choice(sorted(base.flipped))] += nudge(rng)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        smap_values = perturb_smap(smap_values, base, rng)
    for _ in range(rng.choice([0, 1, 1, 2])):
        cond_values = perturb_conditional(cond_values, logic.names, members, rng)
    return (SMap(base, smap_values), ConditionalState(base, f.cs, cond_values),
            rng.getrandbits(32))


#: a distinctive part of every message each scan can return.  The statistics
#: reference keeps two more that the package dropped, a correlation outside
#: [-1, 1] and an asymmetric covariance of compatible observables: neither
#: can occur (the coefficient is clamped, and equal joint moments give equal
#: covariances), and `summary` fails on any message not listed here
MESSAGE_KINDS = {
    "smap": ("orthogonal pair", "compatible pair", "despite", "monotonicity",
             "exceeds the diagonal", "row marginal", "column marginal"),
    "independence": ("(i) ", "(ii) ", "(iii) "),
    "product": ("independence routes disagree",),
    "statistics": ("centered-moment identity fails",
                   "compatible observables with asymmetric joint moment"),
    "oracle": ("compatibility mismatch",),
    "distributivity": ("compatibility does not propagate",
                       "distributivity over compatible joins fails"),
}


def summary(name, result):
    """(scan, 'return', message kind or None) or (scan, 'raise', class)."""
    if result[0] == "raise":
        return name, "raise", result[1]
    message = result[1]
    return name, "return", message and next(
        kind for kind in MESSAGE_KINDS[name] if kind in message)


def test_law_scans_match_reference(sampled_lattices):
    seen = set()
    for label, logic in sampled_lattices.items():
        for seed in range(40):
            p, f, stats_seed = trial_inputs(logic, seed * 7919 + len(label))
            cases = (
                ("smap", reference_smap_law_scan, smap_law_scan,
                 lambda: (p,)),
                ("independence", reference_independence_law_scan,
                 independence_law_scan, lambda: (f,)),
                ("product", reference_product_equivalence_scan,
                 product_equivalence_scan, lambda: (p, f)),
                ("statistics", reference_statistics_law_scan,
                 statistics_law_scan, lambda: (p, random.Random(stats_seed))),
            )
            for name, reference, scan, args in cases:
                expected = outcome(reference, *args())
                assert outcome(scan, *args()) == expected, (name, label, seed)
                seen.add(summary(name, expected))
    for name in ("smap", "independence", "product", "statistics"):
        assert (name, "return", None) in seen
        for kind in MESSAGE_KINDS[name]:
            assert (name, "return", kind) in seen
    # where a perturbed table breaks a theorem the scan asserts, or a
    # precondition of independence, both sides raise the same exception
    assert ("statistics", "raise", AssertionError) in seen
    assert ("product", "raise", PreconditionFailed) in seen


def single_cell_nudges(logic, seed):
    """A random s-map p and its conditional state f, then, for each cell of
    p and each entry of f in turn, the pair with that one value moved by
    +1/7 and by -1/7 (built without the validators)."""
    p = random_smap(logic, seed)
    f = conditional_from_smap(p)
    for values, rebuild in ((p.values, lambda v: (SMap(logic, v), f)),
                            (f.values, lambda v: (p, ConditionalState(
                                logic, f.cs, v)))):
        for key in values:
            for step in (F(1, 7), F(-1, 7)):
                yield rebuild({**values, key: values[key] + step})


def test_law_scans_match_reference_on_every_single_cell_nudge(mo2, mo3,
                                                              boolean3):
    """A scan that tests a whole row or column at once must still reject
    every table that differs from a valid one in a single cell, and name
    the same first failure as the reference."""
    seen = set()
    for logic in (mo2, mo3, boolean3):
        for k, (p, f) in enumerate(single_cell_nudges(logic, 3)):
            cases = (
                ("smap", reference_smap_law_scan, smap_law_scan,
                 lambda: (p,)),
                ("independence", reference_independence_law_scan,
                 independence_law_scan, lambda: (f,)),
                ("product", reference_product_equivalence_scan,
                 product_equivalence_scan, lambda: (p, f)),
                ("statistics", reference_statistics_law_scan,
                 statistics_law_scan, lambda: (p, random.Random(k))),
            )
            for name, reference, scan, args in cases:
                expected = outcome(reference, *args())
                assert outcome(scan, *args()) == expected, (name, logic, k)
                seen.add(summary(name, expected))
    # the nudges reach these first failures, each at least once
    assert seen >= {("smap", "return", kind) for kind in (
        "orthogonal pair", "compatible pair", "monotonicity", "row marginal",
        "column marginal")}
    assert seen >= {("independence", "return", "(i) "),
                    ("independence", "return", "(ii) "),
                    ("product", "return", "independence routes disagree"),
                    ("product", "raise", PreconditionFailed),
                    ("statistics", "return", "centered-moment identity fails"),
                    ("statistics", "raise", AssertionError)}


def lattice_cases(sampled_lattices, pasting12):
    """Every sampled lattice and the pasting, each also miswired twice:
    wrong on a few comparable pairs, and calling every pair compatible."""
    rng = random.Random(5)
    for label, logic in {**sampled_lattices, "pasting12": pasting12}.items():
        yield label, logic
        yield f"{label} miswired", miswired(logic, rng)
        incompatible = [(a, b) for a in logic.names for b in logic.names
                        if not logic.is_compatible(a, b)]
        yield f"{label} all compatible", Miswired(logic, incompatible)


def random_miswirings(logic, rng):
    """20 copies of `logic`, each with `is_compatible` wrong on one to four
    ordered pairs drawn from all of them, comparable or not."""
    pairs = [(a, b) for a in logic.names for b in logic.names]
    for _ in range(20):
        yield Miswired(logic, rng.sample(pairs, rng.randint(1, 4)))


def test_lattice_scans_match_reference(sampled_lattices, pasting12):
    seen = set()
    for label, logic in lattice_cases(sampled_lattices, pasting12):
        for name, reference, scan in (
                ("oracle", reference_oracle_scan, oracle_scan),
                ("distributivity", reference_distributivity_scan,
                 distributivity_scan)):
            expected = outcome(reference, logic)
            assert outcome(scan, logic) == expected, (name, label)
            seen.add(summary(name, expected))
    for name in ("oracle", "distributivity"):
        assert (name, "return", None) in seen
        for kind in MESSAGE_KINDS[name]:
            assert (name, "return", kind) in seen
    # the package scans pairs only and the reference families of 2 and 3,
    # so random miswirings test that the triples never decide anything;
    # the reference is cubic, so only the distributivity scan gets them
    rng = random.Random(11)
    seen = set()
    for label, logic in {**sampled_lattices, "pasting12": pasting12}.items():
        for k, wrong in enumerate(random_miswirings(logic, rng)):
            expected = outcome(reference_distributivity_scan, wrong)
            assert outcome(distributivity_scan, wrong) == expected, (label, k)
            seen.add(summary("distributivity", expected))
    assert seen == {("distributivity", "return", kind)
                    for kind in (None, *MESSAGE_KINDS["distributivity"])}


def test_oracle_never_consults_is_compatible(mo2):
    """The witness search decides from the order, complement and join
    tables alone, so a miswired `is_compatible` cannot sway it."""
    wrong = Miswired(mo2, [(a, b) for a in mo2.names for b in mo2.names])
    for a in mo2.names:
        for b in mo2.names:
            assert (brute_force_compatible(wrong, a, b)
                    == brute_force_compatible(mo2, a, b)
                    == mo2.is_compatible(a, b)
                    != wrong.is_compatible(a, b))


def test_oversized_lattice_is_refused_before_any_pair():
    big = horizontal_sum([2] * 12)  # 26 elements
    for scan in (oracle_scan, reference_oracle_scan):
        with pytest.raises(SizeOutOfRange):
            scan(big)
