"""The package's eleven record classes against references: their
definitions as `dataclasses.dataclass` classes, kept here verbatim (only
the module each came from is noted above it).  On sample instances the
plain classes must construct, compare, hash, print and refuse assignment as
the references do.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType, SimpleNamespace

import pytest

from qlogic import gen_mo
from qlogic import generators, modelfile, observables, repro, states
from qlogic.errors import MissingTableEntry
from qlogic.lattice import QuantumLogic
from qlogic.modelfile import kind_attr
from qlogic.observables import build_observable
from qlogic.rational import frac

# qlogic.states
@dataclass(frozen=True, eq=True)
class State:
    """A finitely additive normalized measure, total on the logic."""

    logic: QuantumLogic
    values: Mapping

    def __post_init__(self):
        """Resolve each name, then coerce its value, entry by entry."""
        table = {}
        for a, v in self.values.items():
            self.logic.index(a)
            table[a] = frac(v)
        object.__setattr__(self, "values", MappingProxyType(table))

    def __call__(self, a: str) -> Fraction:
        try:
            return self.values[a]
        except KeyError:
            raise MissingTableEntry("state", a) from None

    def items(self):
        """The entries the table has, in `logic.names` order."""
        values = self.values
        return ((a, values[a]) for a in self.logic.names if a in values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {v}" for a, v in self.items())
        return f"State({inner})"


# qlogic.states
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


# qlogic.observables
@dataclass(frozen=True, eq=True)
class DiscreteObservable:
    """A finite-spectrum observable: distinct values mapped to mutually
    orthogonal nonzero events that join to 1.

    Observables are immutable (`assignment` is a read-only copy), so each
    one sorts its values once and keeps the result.
    """

    logic: QuantumLogic
    assignment: Mapping  # Fraction -> element name

    def __post_init__(self):
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    @cached_property
    def spectrum(self) -> tuple[Fraction, ...]:
        """The values in increasing order, sorted once per observable."""
        return tuple(sorted(self.assignment))

    def element(self, t) -> str:
        return self.assignment[frac(t)]

    @cached_property
    def elements(self) -> tuple[str, ...]:
        """Assigned events, in spectrum order."""
        return tuple(self.assignment[t] for t in self.spectrum)

    def compose(self, g) -> "DiscreteObservable":
        """The observable g o self: relabel the spectrum through g and join
        the events of values that collide."""
        merged: dict[Fraction, str] = {}
        for t in self.spectrum:
            image = frac(g(t))
            e = self.assignment[t]
            merged[image] = self.logic.join(merged[image], e) if image in merged else e
        return build_observable(self.logic, merged.items())

    def is_compatible_with(self, other: "DiscreteObservable") -> bool:
        """True iff every pair of assigned events is compatible; joins of
        compatible families stay compatible, so this covers both ranges."""
        return all(self.logic.is_compatible(e, f)
                   for e in self.elements for f in other.elements)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t} -> {self.assignment[t]}" for t in self.spectrum)
        return f"DiscreteObservable({inner})"


# qlogic.observables
@dataclass(frozen=True, eq=True)
class JointDistribution:
    """The table (t, s) -> p(x(t), y(s)) on the product of two spectra.
    Rows sum to the diagonal state of x's events, columns to y's, and the
    whole table sums to 1."""

    x_spectrum: tuple
    y_spectrum: tuple
    table: dict

    def __call__(self, t, s) -> Fraction:
        return self.table[frac(t), frac(s)]


# qlogic.observables
@dataclass(frozen=True, eq=True)
class CovarianceMatrix:
    """Exact 2x2 covariance matrix [[c(x,x), c(x,y)], [c(y,x), c(y,y)]].
    Need not be symmetric when x and y are noncompatible."""

    xx: Fraction
    xy: Fraction
    yx: Fraction
    yy: Fraction

    @property
    def entries(self):
        return ((self.xx, self.xy), (self.yx, self.yy))

    @property
    def is_symmetric(self) -> bool:
        return self.xy == self.yx


# qlogic.observables
@dataclass(frozen=True, eq=True)
class ClassicalRepresentation:
    """Two finite classical probability spaces carrying the (x, y) and
    (y, x) joint distributions, with coordinate random variables.

    Both coordinate pairs have the marginal means of x and y, the classical
    covariance on the first space equals the exact covariance of (x, y), on
    the second space that of (y, x), and both covariances obey the
    Cauchy-Schwarz bound against the variances.
    """

    outcomes_xy: tuple          # points (t, s), t in sigma(x)
    measure_xy: dict
    outcomes_yx: tuple          # points (s, t), s in sigma(y)
    measure_yx: dict
    mean_x: Fraction
    mean_y: Fraction
    cov_xy: Fraction            # classical covariance on the first space
    cov_yx: Fraction            # ... and on the second


# qlogic.observables
@dataclass(frozen=True, eq=True)
class StatsReport:
    """Everything the statistics pipeline computes for one pair (x, y)."""

    nu_x: Fraction
    nu_y: Fraction
    moment_xy: Fraction
    moment_yx: Fraction
    cov_xy: Fraction
    cov_yx: Fraction
    var_x: Fraction
    var_y: Fraction
    r_xy: float | None
    r_yx: float | None
    matrix: CovarianceMatrix
    compatible: bool
    joint_xy: JointDistribution
    joint_yx: JointDistribution
    independence: dict  # (event, event) -> bool, over the assigned events
    notes: tuple


# qlogic.modelfile
@dataclass
class ParsedModel:
    """Syntax-checked file content, before any axiom is tested."""

    elements: list = field(default_factory=list)
    order: list = field(default_factory=list)
    complements: list = field(default_factory=list)
    states: dict = field(default_factory=dict)
    conds: dict = field(default_factory=dict)
    smaps: dict = field(default_factory=dict)
    observables: dict = field(default_factory=dict)
    #: (kind, name) in file order, logic excluded
    sections: list = field(default_factory=list)

    def table(self, kind: str, name: str):
        return getattr(self, kind_attr(kind))[name]


# qlogic.modelfile
@dataclass
class ModelFile:
    """Fully realized file content: every section passed its validator."""

    logic: QuantumLogic
    states: dict
    conds: dict
    smaps: dict
    observables: dict


# qlogic.generators
@dataclass(frozen=True)
class SuiteReport:
    trials: int
    passed: int
    failed: int
    first_failure: str | None

    @property
    def ok(self) -> bool:
        return self.failed == 0


# qlogic.repro
@dataclass
class ReproReport:
    ident: str
    lines: list = field(default_factory=list)
    failures: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def check(self, condition: bool, text: str) -> None:
        if condition:
            self.lines.append(f"ok   {text}")
        else:
            self.failures += 1
            self.lines.append(f"FAIL {text}")


OLD = SimpleNamespace(
    State=State, ConditionalSystem=ConditionalSystem,
    DiscreteObservable=DiscreteObservable, JointDistribution=JointDistribution,
    CovarianceMatrix=CovarianceMatrix,
    ClassicalRepresentation=ClassicalRepresentation, StatsReport=StatsReport,
    ParsedModel=ParsedModel, ModelFile=ModelFile, SuiteReport=SuiteReport,
    ReproReport=ReproReport)
NEW = SimpleNamespace(
    State=states.State, ConditionalSystem=states.ConditionalSystem,
    DiscreteObservable=observables.DiscreteObservable,
    JointDistribution=observables.JointDistribution,
    CovarianceMatrix=observables.CovarianceMatrix,
    ClassicalRepresentation=observables.ClassicalRepresentation,
    StatsReport=observables.StatsReport, ParsedModel=modelfile.ParsedModel,
    ModelFile=modelfile.ModelFile, SuiteReport=generators.SuiteReport,
    ReproReport=repro.ReproReport)

FROZEN = {"State", "ConditionalSystem", "DiscreteObservable",
          "JointDistribution", "CovarianceMatrix", "ClassicalRepresentation",
          "StatsReport", "SuiteReport"}

LOGIC = gen_mo(2)
F = Fraction


def _joint(shift):
    """The arguments of a joint distribution on {-1, 1} x {2, 5}."""
    return ((F(-1), F(1)), (F(2), F(5)), {
        (F(-1), F(2)): F(1, 4) + shift, (F(-1), F(5)): F(1, 4),
        (F(1), F(2)): F(1, 4), (F(1), F(5)): F(1, 4) - shift})


def _report(ns, r_xy, notes):
    """The arguments of a statistics report, its records built from `ns`."""
    matrix = ns.CovarianceMatrix(F(24, 25), F(0), F(-2, 5), F(21, 4))
    return (F(1, 5), F(7, 2), F(7, 10), F(3, 10), F(0), F(-2, 5), F(24, 25),
            F(21, 4), r_xy, -0.178, matrix, False,
            ns.JointDistribution(*_joint(F(0))),
            ns.JointDistribution(*_joint(F(1, 8))),
            {("a", "b"): True, ("b", "a"): False}, notes)


#: class name -> ns -> the positional arguments of each sample; samples 0
#: and 1 are equal, every later one differs from them and from each other
SAMPLES = {
    "State": lambda ns: [
        (LOGIC, {"0": 0, "1": 1, "a": "2/5", "a'": F(3, 5), "b": "0.3"}),
        (LOGIC, {"0": F(0), "1": F(1), "a": F(2, 5), "a'": F(3, 5), "b": F(3, 10)}),
        (LOGIC, {"0": 0, "1": 1, "a": "2/5", "a'": F(3, 5)}),
        (gen_mo(3), {"0": 0, "1": 1})],
    "ConditionalSystem": lambda ns: [
        (LOGIC, frozenset({"a", "a'", "1"})), (LOGIC, frozenset({"1", "a", "a'"})),
        (LOGIC, frozenset({"1"})), (gen_mo(3), frozenset({"1"}))],
    "DiscreteObservable": lambda ns: [
        (LOGIC, {F(-1): "a", F(1): "a'"}), (LOGIC, {F(1): "a'", F(-1): "a"}),
        (LOGIC, {F(0): "a", F(1): "a'"}), (LOGIC, {F(1): "1"})],
    "JointDistribution": lambda ns: [
        _joint(F(0)), _joint(F(0)), _joint(F(1, 8)),
        ((F(0),), (F(0),), {(F(0), F(0)): F(1)})],
    "CovarianceMatrix": lambda ns: [
        (F(1), F(2), F(3), F(4)), (1, 2, 3, 4), (F(1), F(2), F(2), F(4)),
        (F(0), F(0), F(0), F(0))],
    "ClassicalRepresentation": lambda ns: [
        ((("t", "s"),), {("t", "s"): F(1)}, (("s", "t"),), {("s", "t"): F(1)},
         F(1, 5), F(7, 2), F(0), F(-2, 5)),
        ((("t", "s"),), {("t", "s"): F(1)}, (("s", "t"),), {("s", "t"): F(1)},
         F(1, 5), F(7, 2), F(0), F(-2, 5)),
        ((("t", "s"),), {("t", "s"): F(1)}, (("s", "t"),), {("s", "t"): F(1)},
         F(1, 5), F(7, 2), F(0), F(2, 5)),
        ((), {}, (), {}, F(0), F(0), F(0), F(0))],
    "StatsReport": lambda ns: [
        _report(ns, 0.0, ()), _report(ns, 0.0, ()), _report(ns, None, ("omitted",)),
        _report(ns, 0.5, ())],
    "ParsedModel": lambda ns: [
        (), ([], [], [], {}, {}, {}, {}, []),
        (["a", "a'"], [], [("a", "a'")], {}, {}, {"p": {("a", "a"): F(1)}}, {},
         [("smap", "p")]),
        (["a", "a'"],)],
    "ModelFile": lambda ns: [
        (LOGIC, {}, {}, {}, {}), (gen_mo(2), {}, {}, {}, {}),
        (LOGIC, {"m": "state"}, {}, {}, {}), (gen_mo(3), {}, {}, {}, {})],
    "SuiteReport": lambda ns: [
        (5, 5, 0, None), (5, 5, 0, None), (5, 4, 1, "boom"), (3, 3, 0, None)],
    "ReproReport": lambda ns: [
        ("2.1",), ("2.1", [], 0), ("2.1", ["ok   x"], 0), ("2.2", [], 1)],
}


def _failure(call):
    """Whether the exception `call()` raises is an AttributeError, whether
    it is exactly a TypeError, and its message; or the value returned."""
    try:
        value = call()
    except (TypeError, AttributeError) as exc:
        return isinstance(exc, AttributeError), type(exc) is TypeError, str(exc)
    return "value", value


def _build(ns, name):
    cls = getattr(ns, name)
    return cls, [cls(*args) for args in SAMPLES[name](ns)]


NAMES = sorted(SAMPLES)
OLD_FIELDS = {name: tuple(getattr(OLD, name).__dataclass_fields__)
              for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_construction_matches(name):
    """Positional and keyword construction give equal records with the
    reference's repr; a missing or extra argument fails alike."""
    reprs = {}
    for ns in (OLD, NEW):
        cls, fields, records = getattr(ns, name), OLD_FIELDS[name], []
        for args in SAMPLES[name](ns):
            record, keyword = cls(*args), cls(**dict(zip(fields, args)))
            assert keyword == record and repr(keyword) == repr(record)
            if name not in ("State", "DiscreteObservable"):  # these copy
                assert all(getattr(record, f) is a for f, a in zip(fields, args))
            records.append(record)
        reprs[ns is NEW] = [repr(r) for r in records]
        reprs[ns is NEW, "errors"] = [
            _failure(lambda: cls(*range(len(fields) + 1))),
            _failure(lambda: cls(**{"no_such_field": 0})),
            _failure(lambda: cls()) if name not in ("ParsedModel",) else None]
    assert reprs[True] == reprs[False]
    assert reprs[True, "errors"] == reprs[False, "errors"]


@pytest.mark.parametrize("name", ["ParsedModel", "ReproReport"])
def test_defaults_are_fresh_containers(name):
    """Each record built with defaults gets its own empty containers, as a
    `default_factory` gives."""
    for ns in (OLD, NEW):
        cls = getattr(ns, name)
        first, second = (cls() if name == "ParsedModel" else cls("2.1")
                         for _ in range(2))
        for f in OLD_FIELDS[name]:
            value = getattr(first, f)
            if isinstance(value, (list, dict)):
                assert value == type(value)() and value is not getattr(second, f)
    assert repr(NEW.ParsedModel()) == repr(OLD.ParsedModel())
    assert repr(NEW.ReproReport("2.1")) == repr(OLD.ReproReport("2.1"))


@pytest.mark.parametrize("name", NAMES)
def test_equality_matches(name):
    """== and != over every pair of samples and against foreign objects,
    where `__eq__` answers NotImplemented: a record of another class or of
    a subclass among them."""
    answers = {}
    for ns in (OLD, NEW):
        cls, records = _build(ns, name)
        other = "SuiteReport" if name == "CovarianceMatrix" else "CovarianceMatrix"
        foreign = [object(), 1, None, SimpleNamespace(**records[0].__dict__),
                   getattr(ns, other)(*SAMPLES[other](ns)[0]),
                   type("Sub", (cls,), {})(*SAMPLES[name](ns)[0])]
        answers[ns is NEW] = (
            [(a == b, a != b) for a in records for b in records],
            [(a == x, a != x, a.__eq__(x)) for a in records for x in foreign])
    assert answers[True] == answers[False]
    assert answers[True][0][1] == (True, False)  # samples 0 and 1 are equal
    new = _build(NEW, name)[1][0]
    old = _build(OLD, name)[1][0]
    assert new.__eq__(old) is NotImplemented and not new == old


@pytest.mark.parametrize("name", NAMES)
def test_hash_matches(name):
    """The hash of the fields' tuple, or the TypeError of an unhashable
    field, or the TypeError of an unhashable record."""
    hashes = {ns is NEW: [_failure(lambda: hash(r)) for r in _build(ns, name)[1]]
              for ns in (OLD, NEW)}
    assert hashes[True] == hashes[False]


@pytest.mark.parametrize("name", NAMES)
def test_assignment_matches(name):
    """The frozen records refuse assignment and deletion of every field and
    of a new name with an AttributeError naming it; the others take both."""
    outcomes = {}
    for ns in (OLD, NEW):
        cls, records = _build(ns, name)
        record, got = records[2], []
        for f in OLD_FIELDS[name] + ("extra",):
            got.append(_failure(lambda: setattr(record, f, 0)))
            got.append(_failure(lambda: delattr(record, f)))
        outcomes[ns is NEW] = got, repr(vars(record))
    assert outcomes[True] == outcomes[False]
    refused = [o for o in outcomes[True][0] if o[0] is True]
    assert len(refused) == (2 * (len(OLD_FIELDS[name]) + 1) if name in FROZEN else 0)


def test_observables_cache_their_spectrum():
    """`DiscreteObservable`'s cached properties still write to the
    instance's `__dict__`, and the cache takes no part in `==` or `hash`."""
    for ns in (OLD, NEW):
        x, same = (ns.DiscreteObservable(LOGIC, {F(1): "a'", F(-1): "a"})
                   for _ in range(2))
        assert x.spectrum == (F(-1), F(1)) and x.elements == ("a", "a'")
        assert "spectrum" in x.__dict__ and "spectrum" not in same.__dict__
        assert x == same
        with pytest.raises(TypeError, match="mappingproxy"):
            hash(x)


def test_the_plain_classes_keep_the_fields():
    """Each plain class lists its reference's dataclass fields, in order."""
    for name in NAMES:
        assert OLD_FIELDS[name] == getattr(NEW, name)._fields
