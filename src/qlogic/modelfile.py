"""Plain-text model files.

A model file holds one lattice plus any number of named states,
conditional states, s-maps, and observables:

    [logic]
    elements 0 1 a a' b b'
    complement a a'
    complement b b'

    [state m]
    a = 2/5
    b = 0.3

    [cond f]
    b | a = 0.3

    [smap p]
    a , b = 3/25

    [observable x]
    -1 -> a
    1 -> a'

Element names are tokens without whitespace, `,`, `|`, `=`, `->`, `#`, `[`
or `]`, the characters that separate the fields of a line; the parser and
`build_logic` both enforce this, so every logic the library accepts can be
written out and read back.  Blank lines and text after `#` are ignored.
Numbers are integers, fractions n/d, or decimal literals, in the grammar of
:func:`qlogic.rational.read_literal`.  All are read exactly, and each
distinct literal once per file: tables repeat values, 0 and 1 above all.
Parsing checks syntax and that every referenced element was declared;
whether a section's numbers actually form a state, conditional state, or
s-map is decided by the validators when the section is realized.

Tables may omit entries forced by the axioms: states omit the bounds,
conditional states omit the 0 and 1 rows, s-maps omit rows and columns for
0 and 1 (recovered additively through a complement pair).  Everything else
must be written out.  Emission always writes full tables, with the lattice
order given by its covering pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DuplicateSection, ParseError, UnknownElement
from .lattice import (
    NAME_RULE,
    ONE,
    ZERO,
    QuantumLogic,
    build_logic,
    is_element_name,
)
from .observables import DiscreteObservable, build_observable
from .rational import NotALiteral, fmt, fmt_ratio, read_literal
from .records import Record
from .smaps import SMap, _check_smap
from .states import (
    ConditionalState,
    conditional_system_generated,
    validate_conditional_state,
    validate_state,
)

SECTION_KINDS = ("state", "cond", "smap", "observable")


class ParsedModel(Record):
    """Syntax-checked file content, before any axiom is tested.  Each
    field left out starts as a new empty list or dict; `sections` lists
    (kind, name) in file order, logic excluded."""

    _fields = ("elements", "order", "complements", "states", "conds", "smaps",
               "observables", "sections")

    def __init__(self, elements: list | None = None, order: list | None = None,
                 complements: list | None = None, states: dict | None = None,
                 conds: dict | None = None, smaps: dict | None = None,
                 observables: dict | None = None,
                 sections: list | None = None):
        self.elements = [] if elements is None else elements
        self.order = [] if order is None else order
        self.complements = [] if complements is None else complements
        self.states = {} if states is None else states
        self.conds = {} if conds is None else conds
        self.smaps = {} if smaps is None else smaps
        self.observables = {} if observables is None else observables
        self.sections = [] if sections is None else sections

    def table(self, kind: str, name: str):
        return getattr(self, kind_attr(kind))[name]


def kind_attr(kind: str) -> str:
    return {"state": "states", "cond": "conds", "smap": "smaps",
            "observable": "observables"}[kind]


class ModelFile(Record):
    """Fully realized file content: every section passed its validator."""

    _fields = ("logic", "states", "conds", "smaps", "observables")

    def __init__(self, logic: QuantumLogic, states: dict, conds: dict,
                 smaps: dict, observables: dict):
        self.logic, self.states, self.conds = logic, states, conds
        self.smaps, self.observables = smaps, observables


# ---------------------------------------------------------------------------
# parsing


def _number(token: str, line: int) -> Fraction:
    try:
        return read_literal(token)
    except NotALiteral:
        raise ParseError(line, f"bad number {token!r}") from None
    except ValueError as exc:
        raise ParseError(line, f"bad number: {exc}") from None


def _split_sections(text: str):
    """Group numbered lines under their section headers."""
    header = None
    body = []
    groups = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.partition("#")[0].strip()
        if not content:
            continue
        if content.startswith("["):
            if not content.endswith("]"):
                raise ParseError(lineno, "unterminated section header")
            if header is not None:
                groups.append((header, body))
            header = (lineno, content[1:-1].split())
            body = []
        elif header is None:
            raise ParseError(lineno, "content before any section header")
        else:
            body.append((lineno, content))
    if header is not None:
        groups.append((header, body))
    return groups


def parse_model_text(text: str) -> ParsedModel:
    parsed = ParsedModel()
    groups = _split_sections(text)

    logic_group = None
    seen = set()
    bodies = []  # (kind, name, body lines) in file order
    for (lineno, words), body in groups:
        if not words:
            raise ParseError(lineno, "empty section header")
        kind = words[0]
        if kind == "logic":
            if len(words) != 1:
                raise ParseError(lineno, "[logic] takes no name")
            if logic_group is not None:
                raise DuplicateSection(lineno, "logic")
            logic_group = body
        elif kind in SECTION_KINDS:
            if len(words) != 2:
                raise ParseError(lineno, f"[{kind}] needs exactly one name")
            name = words[1]
            if (kind, name) in seen:
                raise DuplicateSection(lineno, f"{kind} {name}")
            seen.add((kind, name))
            bodies.append((kind, name, body))
        else:
            raise ParseError(lineno, f"unknown section kind {kind!r}")
    if logic_group is None:
        raise ParseError(None, "no [logic] section")

    _parse_logic(parsed, logic_group)
    known = set(parsed.elements) | {ZERO, ONE}
    numbers = {}  # literal -> value, for this file only
    for kind, name, body in bodies:
        table = getattr(parsed, kind_attr(kind))[name] = {}
        parsed.sections.append((kind, name))
        if kind == "observable":
            for lineno, content in body:
                left, sep, target = content.partition("->")
                if not sep:
                    raise ParseError(lineno, "expected 'value -> element'")
                token, target = left.strip(), target.strip()
                value = numbers.get(token)
                if value is None:
                    value = numbers[token] = _number(token, lineno)
                if target not in known:
                    raise UnknownElement(lineno, target)
                if value in table:
                    raise ParseError(lineno, f"duplicate entry for {value}")
                table[value] = target
            continue
        pair, shape = {"cond": ("|", "b | a"), "smap": (",", "a , b"),
                       "state": (None, None)}[kind]
        for lineno, content in body:
            left, sep, token = content.partition("=")
            if not sep:
                raise ParseError(lineno, "expected '='")
            token = token.strip()
            value = numbers.get(token)
            if value is None:
                value = numbers[token] = _number(token, lineno)
            if pair is None:
                key = left.strip()
                if key not in known:
                    raise UnknownElement(lineno, key)
            else:
                a, sep, b = left.partition(pair)
                if not sep:
                    raise ParseError(lineno, f"expected '{shape} = value'")
                a, b = a.strip(), b.strip()
                if a not in known:
                    raise UnknownElement(lineno, a)
                if b not in known:
                    raise UnknownElement(lineno, b)
                key = (a, b)
            if key in table:
                raise ParseError(lineno, f"duplicate entry for {key}")
            table[key] = value
    return parsed


def _parse_logic(parsed: ParsedModel, body) -> None:
    declared = []
    for lineno, content in body:
        words = content.split()
        directive, args = words[0], words[1:]
        if directive == "elements":
            if not args:
                raise ParseError(lineno, "elements line lists names")
            for name in args:
                if not is_element_name(name):
                    raise ParseError(lineno, f"bad element name {name!r}: "
                                             f"names are {NAME_RULE}")
            declared.extend(args)
        elif directive == "order":
            if len(args) != 2:
                raise ParseError(lineno, "order takes two elements")
            parsed.order.append((lineno, args[0], args[1]))
        elif directive == "complement":
            if len(args) != 2:
                raise ParseError(lineno, "complement takes two elements")
            parsed.complements.append((lineno, args[0], args[1]))
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    known = set(declared) | {ZERO, ONE}
    for lineno, a, b in parsed.order + parsed.complements:
        for token in (a, b):
            if token not in known:
                raise UnknownElement(lineno, token)
    parsed.elements = declared
    parsed.order = [(a, b) for _, a, b in parsed.order]
    parsed.complements = [(a, b) for _, a, b in parsed.complements]


def parse_model(path) -> ParsedModel:
    with open(path, encoding="utf-8") as handle:
        return parse_model_text(handle.read())


# ---------------------------------------------------------------------------
# realization (syntax -> validated objects)


def realize_logic(parsed: ParsedModel) -> QuantumLogic:
    elements = list(parsed.elements)
    elements += [b for b in (ZERO, ONE) if b not in elements]
    return build_logic(elements, parsed.order, parsed.complements)


#: the bounds' values, shared by every table that omits them
_NIL, _UNIT = Fraction(0), Fraction(1)


def realize_state(logic: QuantumLogic, table: dict):
    values = dict(table)
    values.setdefault(ZERO, _NIL)
    values.setdefault(ONE, _UNIT)
    return validate_state(logic, values)


def realize_cond(logic: QuantumLogic, table: dict) -> ConditionalState:
    """Fill the omitted 0 and 1 rows, then validate over the conditional
    system the conditioning events generate; an unknown event is reported
    in the table's order."""
    values = dict(table)
    members = dict.fromkeys(a for _, a in values)
    for a in members:
        values.setdefault((ZERO, a), _NIL)
        values.setdefault((ONE, a), _UNIT)
    cs = conditional_system_generated(logic, members)
    return validate_conditional_state(logic, cs, values)


def realize_smap(logic: QuantumLogic, table: dict) -> SMap:
    """Read every given value exactly, then fill the omitted cells on the
    integer table: 0 in the 0 row and column, and the 1 row, the 1 column
    and (1, 1) by additivity over the first complement pair (c, c') where
    its cells are given.  The sums use only given cells."""
    p = SMap(logic, table)
    n, num = len(logic), list(p.num)
    zero, one = logic.index(ZERO), logic.index(ONE)
    inner = [e for e in range(n) if e not in (zero, one)]
    fills = [(cell, ()) for e in range(n) for cell in (zero * n + e, e * n + zero)]
    if inner:  # c' is inner too: it is 0 only for c = 1, 1 only for c = 0
        c, d = inner[0], logic._comp[inner[0]]
        fills += [(e * n + one, (e * n + c, e * n + d)) for e in inner]
        fills += [(one * n + e, (c * n + e, d * n + e)) for e in inner]
        fills.append((one * n + one, [u * n + v for u in (c, d) for v in (c, d)]))
    elif num[one * n + one] is None:
        num[one * n + one] = p.den
    for cell, parts in fills:
        terms = [num[q] for q in parts]
        if num[cell] is None and None not in terms:
            num[cell] = sum(terms)
    p.num = tuple(num)
    _check_smap(p)
    return p


def realize_observable(logic: QuantumLogic, table: dict) -> DiscreteObservable:
    return build_observable(logic, table.items())


#: section kind -> realizer taking (logic, parsed table)
REALIZERS = {"state": realize_state, "cond": realize_cond,
             "smap": realize_smap, "observable": realize_observable}


def realize_model(parsed: ParsedModel) -> ModelFile:
    logic = realize_logic(parsed)
    model = ModelFile(logic, {}, {}, {}, {})
    for kind, name in parsed.sections:
        built = REALIZERS[kind](logic, parsed.table(kind, name))
        getattr(model, kind_attr(kind))[name] = built
    return model


def load_model(path) -> ModelFile:
    return realize_model(parse_model(path))


# ---------------------------------------------------------------------------
# emission


def emit_logic(logic: QuantumLogic) -> list:
    lines = ["[logic]"]
    lines.append("elements " + " ".join(logic.names))
    for a, b in logic.covers():
        if a not in (ZERO, ONE) and b not in (ZERO, ONE):
            lines.append(f"order {a} {b}")
    for a in logic.names:
        b = logic.complement(a)
        if logic.index(a) < logic.index(b) and (a, b) != (ZERO, ONE):
            lines.append(f"complement {a} {b}")
    return lines


def emit_state(name: str, state) -> list:
    return [f"[state {name}]"] + [f"{e} = {fmt(state(e))}"
                                  for e in state.logic.names]


def emit_cond(name: str, f: ConditionalState) -> list:
    names = f.logic.names  # f(b, a) raises MissingTableEntry for a hole
    return [f"[cond {name}]"] + [
        f"{b} | {names[a]} = {f(b, names[a]) if v is None else fmt_ratio(v, d)}"
        for a, (column, d) in f.columns.items() for b, v in zip(names, column)]


def emit_smap(name: str, p: SMap) -> list:
    names = p.logic.names  # p(a, b) raises MissingTableEntry for a hole
    return [f"[smap {name}]"] + [
        f"{a} , {b} = {p(a, b) if v is None else fmt_ratio(v, p.den)}"
        for a, row in zip(names, p.rows()) for b, v in zip(names, row)]


def emit_observable(name: str, x: DiscreteObservable) -> list:
    return [f"[observable {name}]"] + [f"{fmt(t)} -> {x.element(t)}"
                                       for t in x.spectrum]


def emit_model(model: ModelFile) -> str:
    chunks = [emit_logic(model.logic)]
    for emit, objects in ((emit_state, model.states), (emit_cond, model.conds),
                          (emit_smap, model.smaps),
                          (emit_observable, model.observables)):
        chunks += [emit(name, obj) for name, obj in objects.items()]
    return "\n\n".join("\n".join(chunk) for chunk in chunks) + "\n"
