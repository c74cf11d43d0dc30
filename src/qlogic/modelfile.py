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

Element names are printable tokens without whitespace, `,`, `|`, `=`, `->`,
`#`, `[` or `]`, the characters that separate the fields of a line; the
parser and `build_logic` both enforce this, so every logic the library
accepts can be written out and read back, and no two names print alike.  Blank lines and text after `#` are ignored.
Numbers are integers, fractions n/d, or decimal literals, in the grammar of
:func:`qlogic.rational.read_literal`.  All are read exactly, and each
distinct literal once per file: tables repeat values, 0 and 1 above all.
Parsing checks syntax and that every referenced element was declared;
whether a section's numbers actually form a state, conditional state, or
s-map is decided by the validators when the section is realized.

The text is split into lines once, at every line break `str.splitlines`
knows.  Only a line containing `[` can be a section header, and each
section is then read straight from the line list by its index range.  The
first fault is reported, in this order: header faults (content before the
first header, then the first unterminated header, then the first empty,
unknown, misnamed or duplicate header, then a missing `[logic]`), then the
`[logic]` section, then the other sections in file order, line by line.

Tables may omit entries forced by the axioms: states omit the bounds,
conditional states omit the 0 and 1 rows, s-maps omit rows and columns for
0 and 1 (recovered additively through a complement pair).  Everything else
must be written out.  Emission always writes full tables, with the lattice
order given by its covering pairs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import DuplicateSection, ParseError, UnknownElement
from .lattice import (
    NAME_RULE,
    ONE,
    ZERO,
    QuantumLogic,
    build_logic,
    is_element_name,
    kept,
)
from .observables import DiscreteObservable, build_observable
from .rational import NotALiteral, fmt, fmt_ratio, read_literal
from .records import Record
from .smaps import SMap, _check_smap
from .states import (
    ConditionalState,
    _check_conditional,
    conditional_system_generated,
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


#: section kind -> the ParsedModel and ModelFile field holding its tables
_KIND_ATTRS = {"state": "states", "cond": "conds", "smap": "smaps",
               "observable": "observables"}


def kind_attr(kind: str) -> str:
    return _KIND_ATTRS[kind]


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


#: section kind -> (separator, the fault of a line without it, separator of
#: the element pair or None for one element, the fault of a pair without it)
_LINE_FORMS = {"state": ("=", "expected '='", None, None),
               "cond": ("=", "expected '='", "|", "expected 'b | a = value'"),
               "smap": ("=", "expected '='", ",", "expected 'a , b = value'"),
               "observable": ("->", "expected 'value -> element'", None, None)}


def parse_model_text(text: str) -> ParsedModel:
    """Read `text` in one pass over its lines (see the module docstring);
    a line's number is its index in the line list + 1."""
    lines = text.splitlines()
    heads = []  # (index, header content) in file order
    for i in [i for i, line in enumerate(lines) if "[" in line]:
        content = lines[i].partition("#")[0].strip()
        if content.startswith("["):
            heads.append((i, content))
    for i in range(heads[0][0] if heads else len(lines)):
        if lines[i].partition("#")[0].strip():
            raise ParseError(i + 1, "content before any section header")
    for i, content in heads:
        if not content.endswith("]"):
            raise ParseError(i + 1, "unterminated section header")

    parsed = ParsedModel()
    logic_lines = None
    seen = set()
    ranges = []  # (kind, name, first body index, end index) in file order
    for (i, content), (end, _) in zip(heads, heads[1:] + [(len(lines), "")]):
        words = content[1:-1].split()
        if not words:
            raise ParseError(i + 1, "empty section header")
        kind = words[0]
        if kind == "logic":
            if len(words) != 1:
                raise ParseError(i + 1, "[logic] takes no name")
            if logic_lines is not None:
                raise DuplicateSection(i + 1, "logic")
            logic_lines = (i + 1, end)
        elif kind in SECTION_KINDS:
            if len(words) != 2:
                raise ParseError(i + 1, f"[{kind}] needs exactly one name")
            name = words[1]
            if (kind, name) in seen:
                raise DuplicateSection(i + 1, f"{kind} {name}")
            seen.add((kind, name))
            ranges.append((kind, name, i + 1, end))
        else:
            raise ParseError(i + 1, f"unknown section kind {kind!r}")
    if logic_lines is None:
        raise ParseError(None, "no [logic] section")

    _parse_logic(parsed, lines, *logic_lines)
    known = set(parsed.elements) | {ZERO, ONE}
    numbers = {}  # literal -> value, for this file only
    for kind, name, start, end in ranges:
        table = getattr(parsed, kind_attr(kind))[name] = {}
        parsed.sections.append((kind, name))
        split, fault, pair, pair_fault = _LINE_FORMS[kind]
        flip = split == "->"  # an observable writes its value first
        size = 0  # of the table; an insert that leaves it is a duplicate
        for lineno, line in enumerate(lines[start:end], start + 1):
            if "#" in line:
                line = line.partition("#")[0]
            left, sep, token = line.partition(split)
            if not sep:
                if line.strip():
                    raise ParseError(lineno, fault)
                continue
            if flip:
                left, token = token, left
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
                    raise ParseError(lineno, pair_fault)
                a, b = a.strip(), b.strip()
                if a not in known:
                    raise UnknownElement(lineno, a)
                if b not in known:
                    raise UnknownElement(lineno, b)
                key = (a, b)
            if flip:
                key, value = value, key
            table[key] = value
            if len(table) == size:
                raise ParseError(lineno, f"duplicate entry for {key}")
            size += 1
    return parsed


def _parse_logic(parsed: ParsedModel, lines, start: int, end: int) -> None:
    pairs = {"order": (parsed.order, []), "complement": (parsed.complements, [])}
    for lineno, line in enumerate(lines[start:end], start + 1):
        words = (line.partition("#")[0] if "#" in line else line).split()
        if not words:
            continue
        directive, args = words[0], words[1:]
        if directive == "elements":
            if not args:
                raise ParseError(lineno, "elements line lists names")
            for name in args:
                if not is_element_name(name):
                    raise ParseError(lineno, f"bad element name {name!r}: "
                                             f"names are {NAME_RULE}")
            parsed.elements.extend(args)
        elif directive in pairs:
            if len(args) != 2:
                raise ParseError(lineno, f"{directive} takes two elements")
            found, at = pairs[directive]
            found.append(tuple(args))
            at.append(lineno)
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    known = set(parsed.elements) | {ZERO, ONE}
    for found, at in pairs.values():  # every order pair, then every complement
        for lineno, pair in zip(at, found):
            for token in pair:
                if token not in known:
                    raise UnknownElement(lineno, token)


def parse_model(path) -> ParsedModel:
    """Read the file at `path` as UTF-8 bytes, decoded at once, without its
    leading byte-order mark, if any.  The mark is cut after decoding, not by
    the "utf-8-sig" codec, so a bad byte's reported offset counts from the
    start of the file.  No newline is translated: lines break wherever
    `str.splitlines` breaks them, `\\r\\n` and a lone `\\r` included."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    return parse_model_text(text.removeprefix("\ufeff"))


# ---------------------------------------------------------------------------
# realization (syntax -> validated objects)


def realize_logic(parsed: ParsedModel) -> QuantumLogic:
    elements = list(parsed.elements)
    elements += [b for b in (ZERO, ONE) if b not in elements]
    return build_logic(elements, parsed.order, parsed.complements)


#: the bounds' values, shared by every state that omits them
_NIL, _UNIT = Fraction(0), Fraction(1)


def realize_state(logic: QuantumLogic, table: dict):
    values = dict(table)
    values.setdefault(ZERO, _NIL)
    values.setdefault(ONE, _UNIT)
    return validate_state(logic, values)


def realize_cond(logic: QuantumLogic, table: dict) -> ConditionalState:
    """Read every given value exactly over the conditional system the
    conditioning events generate, an unknown event reported in the table's
    order; then fill the omitted 0 and 1 rows of every column of that
    system on the integer table and check the axioms (an unwritten column
    fails at its first inner row); the system is closed by construction."""
    cs = conditional_system_generated(logic, dict.fromkeys(a for _, a in table))
    f = ConditionalState(logic, cs, table)
    zero, one = logic._index[ZERO], logic._index[ONE]
    for a, (num, den) in f.columns.items():
        num = list(num)
        if num[zero] is None:
            num[zero] = 0
        if num[one] is None:
            num[one] = den
        f.columns[a] = tuple(num), den
    _check_conditional(f)
    return f


def realize_smap(logic: QuantumLogic, table: dict) -> SMap:
    """Read every given value exactly, then fill the omitted cells on the
    integer table: 0 in the 0 row and column, and the 1 row, the 1 column
    and (1, 1) by additivity over the first complement pair (c, c') where
    its cells are given.  The sums use only given cells; which cells they
    are is planned once per lattice (`_completion_plan`)."""
    p = SMap(logic, table)
    num = list(p.num)
    zeros, sums = _completion_plan(logic)
    for cell in zeros:
        if num[cell] is None:
            num[cell] = 0
    for cell, parts in sums:
        if num[cell] is None:
            terms = parts(num)
            if None not in terms:
                num[cell] = sum(terms)
    if not sums:  # the logic {0, 1}: p(1, 1) = 1
        top = logic._index[ONE] * (len(logic) + 1)
        if num[top] is None:
            num[top] = p.den
    p.num = tuple(num)
    _check_smap(p)
    return p


@kept
def _completion_plan(logic: QuantumLogic) -> tuple:
    """The cells of the 0 row and column, then (cell, gather of the cells
    that sum to it) for each cell of the 1 row and column and for (1, 1),
    over the first complement pair (c, c') of inner elements; the sums
    read only inner cells, so the order of the fills does not matter."""
    n, zero, one = len(logic), logic._index[ZERO], logic._index[ONE]
    inner = [e for e in range(n) if e not in (zero, one)]
    zeros = tuple(cell for e in range(n) for cell in (zero * n + e, e * n + zero))
    if not inner:
        return zeros, ()
    c, d = inner[0], logic._comp[inner[0]]  # c' is inner too
    sums = [(e * n + one, itemgetter(e * n + c, e * n + d)) for e in inner]
    sums += [(one * n + e, itemgetter(c * n + e, d * n + e)) for e in inner]
    sums.append((one * n + one, itemgetter(*[u * n + v for u in (c, d)
                                             for v in (c, d)])))
    return zeros, tuple(sums)


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
