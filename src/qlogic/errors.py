"""Exception hierarchy.

Every failure carries the witnessing elements so that callers (and the CLI)
can print exactly which axiom broke and where.  Validators report the first
witness in element-index order, so error messages are reproducible.
"""

from __future__ import annotations


class QLogicError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# lattice construction

class LatticeError(QLogicError):
    pass


class BadElementName(LatticeError):
    pass


class MissingBounds(LatticeError):
    pass


class SizeOutOfRange(QLogicError):
    pass


class CycleInOrder(LatticeError):
    def __init__(self, a: str, b: str):
        self.a, self.b = a, b
        super().__init__(f"order closure is not antisymmetric: {a} <= {b} and {b} <= {a}")


class MissingMeetOrJoin(LatticeError):
    def __init__(self, kind: str, a: str, b: str):
        self.kind, self.a, self.b = kind, a, b
        super().__init__(f"pair ({a}, {b}) has no {kind}; input is not a lattice")


class MissingComplement(LatticeError):
    def __init__(self, a: str):
        self.a = a
        super().__init__(f"no orthocomplement declared for element {a!r}")


class ComplementConflict(LatticeError):
    def __init__(self, a: str, b: str, c: str):
        self.a, self.b, self.c = a, b, c
        super().__init__(f"conflicting complements for {a!r}: {b!r} and {c!r}")


class AxiomViolation(LatticeError):
    """One of the orthocomplementation axioms fails; `axiom` is iii/iv/v."""

    def __init__(self, axiom: str, message: str, witnesses: tuple = ()):
        self.axiom = axiom
        self.witnesses = witnesses
        super().__init__(f"axiom ({axiom}) fails: {message}")


class UnknownElementError(QLogicError, KeyError):
    def __init__(self, token: str):
        self.token = token
        Exception.__init__(self, f"unknown element {token!r}")

    def __str__(self) -> str:
        return self.args[0]


# ---------------------------------------------------------------------------
# measure validation

class ValidationError(QLogicError):
    pass


class MissingTableEntry(ValidationError):
    def __init__(self, what: str, key):
        self.what, self.key = what, key
        super().__init__(f"{what} table has no entry for {key}")


class ValueOutOfRange(ValidationError):
    def __init__(self, what: str, key, value):
        self.what, self.key, self.value = what, key, value
        super().__init__(f"{what}[{key}] = {value} lies outside [0, 1]")


class BoundsViolation(ValidationError):
    def __init__(self, element: str, value, expected):
        self.element, self.value, self.expected = element, value, expected
        super().__init__(f"m({element}) = {value}, expected {expected}")


class AdditivityViolation(ValidationError):
    def __init__(self, a: str, b: str, lhs, rhs):
        self.a, self.b, self.lhs, self.rhs = a, b, lhs, rhs
        super().__init__(
            f"additivity fails on orthogonal pair ({a}, {b}): "
            f"m({a} v {b}) = {lhs} != {rhs} = m({a}) + m({b})")


class ZeroInSeed(ValidationError):
    def __init__(self):
        super().__init__("a conditional system may not contain 0")


class InvalidConditionalSystem(ValidationError):
    pass


class C1Violation(ValidationError):
    def __init__(self, a: str, cause: ValidationError):
        self.a, self.cause = a, cause
        super().__init__(f"f(., {a}) is not a state: {cause}")


class C2Violation(ValidationError):
    def __init__(self, a: str, value):
        self.a, self.value = a, value
        super().__init__(f"f({a}, {a}) = {value} != 1")


class C3Violation(ValidationError):
    def __init__(self, family: tuple, b: str, lhs, rhs):
        self.family, self.b, self.lhs, self.rhs = family, b, lhs, rhs
        fam = ", ".join(family)
        super().__init__(
            f"decomposition over {{{fam}}} fails at {b}: "
            f"f({b}, v family) = {lhs} != {rhs} = sum of weighted conditionals")


class S1Violation(ValidationError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"p(1, 1) = {value} != 1")


class S2Violation(ValidationError):
    def __init__(self, a: str, b: str, value):
        self.a, self.b, self.value = a, b, value
        super().__init__(f"p({a}, {b}) = {value} != 0 on orthogonal pair")


class S3Violation(ValidationError):
    def __init__(self, side: str, a: str, b: str, c: str, lhs, rhs):
        self.side, self.a, self.b, self.c = side, a, b, c
        self.lhs, self.rhs = lhs, rhs
        if side == "left":
            eq = f"p({a} v {b}, {c}) = {lhs} != {rhs} = p({a}, {c}) + p({b}, {c})"
        else:
            eq = f"p({c}, {a} v {b}) = {lhs} != {rhs} = p({c}, {a}) + p({c}, {b})"
        super().__init__(f"additivity (s3) fails [{side} argument]: {eq}")


# ---------------------------------------------------------------------------
# constructors and conversions

class NotOrthogonal(QLogicError):
    """Two events that must be orthogonal are not: the parts `a` and `b` of
    a partition, or, when `elements` names them, the events of an
    observable's spectrum values `a` and `b`."""

    def __init__(self, a, b, elements=None):
        self.a, self.b = a, b
        if elements is None:
            message = f"elements for {a!r} and {b!r} are not orthogonal"
        else:
            message = (f"elements {elements[0]!r} and {elements[1]!r} for "
                       f"spectrum values {a} and {b} are not orthogonal")
        super().__init__(message)


class AlphaNotConcentrated(QLogicError):
    def __init__(self, i: int, part: str, value):
        self.i, self.part, self.value = i, part, value
        super().__init__(f"state #{i} assigns {value} != 1 to its block {part!r}")


class WeightsInvalid(QLogicError):
    pass


class PreconditionFailed(QLogicError):
    pass


class DomainTooSmall(QLogicError):
    def __init__(self, missing: str):
        self.missing = missing
        super().__init__(f"conditional state not defined at nonzero element {missing!r}")


class DegenerateDiagonal(QLogicError):
    """An s-map whose diagonal vanishes at a nonzero element, the first in
    index order (`element`).  The representation theorem is a bijection
    between the s-maps with a faithful diagonal (p(b, b) > 0 at every
    nonzero b) and the conditional states on the full conditional system
    (every nonzero element); an s-map outside that domain has no
    conditional state."""

    def __init__(self, element: str):
        self.element = element
        super().__init__(
            f"diagonal vanishes at {element!r}, which the positive-diagonal "
            f"set needs for closure; no conditional state can be recovered")


# ---------------------------------------------------------------------------
# observables

class DuplicateValue(QLogicError):
    def __init__(self, t):
        self.t = t
        super().__init__(f"spectrum value {t} assigned twice")


class ZeroElement(QLogicError):
    def __init__(self, t):
        self.t = t
        super().__init__(f"spectrum value {t} mapped to 0; drop it from the support")


class JoinNotOne(QLogicError):
    def __init__(self, join: str):
        self.join = join
        super().__init__(f"assigned elements join to {join!r}, not 1")


class DegenerateVariance(QLogicError):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"variance of {which} is 0; correlation undefined")


# ---------------------------------------------------------------------------
# generators

class UnsupportedLattice(QLogicError):
    pass


# ---------------------------------------------------------------------------
# model files

class ModelFileError(QLogicError):
    def __init__(self, line: int | None, message: str):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class ParseError(ModelFileError):
    pass


class UnknownElement(ParseError):
    def __init__(self, line: int | None, token: str):
        self.token = token
        super().__init__(line, f"unknown element {token!r}")


class DuplicateSection(ParseError):
    def __init__(self, line: int | None, name: str):
        self.name = name
        super().__init__(line, f"duplicate section {name!r}")
