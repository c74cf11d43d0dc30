"""`parse_model_text` against a reference: the parser as it was when it
grouped numbered lines under their headers first (`_split_sections`) and
read each group after, kept here verbatim but for the names of its three
functions.  On a seeded corpus of mutated model files the two must return
equal parsed models, tables in the same order, or raise the same error
class with the same message, line and witness attributes.

The mutations cover every line break `str.splitlines` knows, comments
(with `[` and `]` inside), blank lines, content before the first header,
unterminated, empty, unknown, misnamed and duplicate headers, and edits of
single lines and characters.
"""

from __future__ import annotations

import random
import re
from collections import Counter

from qlogic import (
    build_observable,
    conditional_from_smap,
    gen_boolean,
    gen_mo,
    horizontal_sum,
    random_smap,
)
from qlogic.errors import DuplicateSection, ParseError, UnknownElement
from qlogic.lattice import NAME_RULE, ONE, ZERO, is_element_name
from qlogic.modelfile import (
    SECTION_KINDS,
    ModelFile,
    ParsedModel,
    _number,
    emit_model,
    kind_attr,
    parse_model_text,
)
from qlogic.repro import FIXTURES, fixture_text

# -- the reference parser -----------------------------------------------------


def reference_split_sections(text: str):
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


def reference_parse_model_text(text: str) -> ParsedModel:
    parsed = ParsedModel()
    groups = reference_split_sections(text)

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

    reference_parse_logic(parsed, logic_group)
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


def reference_parse_logic(parsed: ParsedModel, body) -> None:
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


# -- the corpus ---------------------------------------------------------------

#: every line break of `str.splitlines`
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029")
COMMENTS = ("# a note", "#", "# [state q]", "#[", "# ] [ = | ,", "  # [logic]",
            "\t#\x0c")
BLANKS = ("", " ", "\t", "\u3000", " \x1f ")
STRAY = ("elements a b", "a = 1", "x", "order a b", "]", "a [b]")
HEADERS = ("[state q", "[", "[]", "[ ]", "[ # ]", "[logic x]", "[state]",
           "[smap p q]", "[foo bar]", "[ logic ]", "[cond  g ]", "[observable z]",
           "[[logic]]", "[logic] ]")
CHARS = "[]#=|,->/. \t\n\r\x85\u2028x01a'\\"
#: what the corpus must reach, beside files that parse
FAULTS = ("content before any section header", "unterminated section header",
          "empty section header", "duplicate section", "unknown section kind",
          "[logic] takes no name", "needs exactly one name", "no [logic] section",
          "unknown directive", "unknown element", "bad number", "duplicate entry",
          "expected")

EDITS = ("breaks", "comment", "trailing", "blank", "stray", "header",
         "unterminate", "indent", "headless", "duplicate", "drop", "copy",
         "swap", "char", "token")

CORPUS_SIZE = 5000


def generated_models() -> list[str]:
    """Full tables of every section kind on four small stock lattices."""
    texts = []
    for seed, logic in enumerate((gen_mo(2), gen_mo(3), gen_boolean(2),
                                  horizontal_sum([2, 3]))):
        p = random_smap(logic, seed)
        c = next(e for e in logic.names if e not in (ZERO, ONE))
        x = build_observable(logic, {-1: c, 2: logic.complement(c)})
        model = ModelFile(logic, {"m": p.diagonal_state()},
                          {"f": conditional_from_smap(p)}, {"p": p}, {"x": x})
        texts.append(emit_model(model))
    return texts


def mutate(rng: random.Random, text: str) -> tuple[str, list]:
    """One to three random edits of `text`, and the edits' names."""
    lines = text.splitlines()
    breaks = ["\n"] * len(lines)
    edits = []
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(EDITS)
        edits.append(edit)
        at = rng.randrange(len(lines) + 1)
        heads = [i for i, line in enumerate(lines) if line.startswith("[")]
        if edit == "breaks":
            if rng.random() < 0.5:
                breaks = [rng.choice(BREAKS)] * len(lines)
            else:
                breaks = [rng.choice(BREAKS) for _ in lines]
        elif edit in ("comment", "blank", "stray", "header"):
            pool = {"comment": COMMENTS, "blank": BLANKS, "stray": STRAY,
                    "header": HEADERS}[edit]
            if edit == "stray" and heads:  # before the first header
                at = rng.randrange(heads[0] + 1)
            if edit == "header" and heads and rng.random() < 0.5:  # in place
                lines[rng.choice(heads)] = rng.choice(pool)
                continue
            lines.insert(at, rng.choice(pool))
            breaks.insert(at, "\n")
        elif not lines:
            continue
        elif edit == "trailing":
            i = rng.randrange(len(lines))
            lines[i] += rng.choice(("  # [x] = 1", "#", " # ]", "#[state q"))
        elif edit == "unterminate" and heads:
            i = rng.choice(heads)
            lines[i] = lines[i].replace("]", rng.choice(("", " ", "#]")), 1)
        elif edit == "duplicate" and heads:
            i = rng.choice(heads)
            end = next((h for h in heads if h > i), len(lines))
            chunk = lines[i:end] if rng.random() < 0.5 else lines[i:i + 1]
            lines[at:at] = chunk
            breaks[at:at] = ["\n"] * len(chunk)
        elif edit == "indent":
            i = rng.choice(heads or range(len(lines)))
            lines[i] = rng.choice(BLANKS[1:]) + lines[i]
        elif edit == "headless":
            lines = [line for line in lines if not line.startswith("[")]
            breaks = breaks[:len(lines)]
        elif edit == "drop":
            i = rng.randrange(len(lines))
            del lines[i], breaks[i]
        elif edit == "copy":
            i = rng.randrange(len(lines))
            lines.insert(at, lines[i])
            breaks.insert(at, "\n")
        elif edit == "swap":
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "char":
            i = rng.randrange(len(lines))
            k = rng.randrange(len(lines[i]) + 1)
            new, cut = rng.choice(CHARS) * rng.randint(0, 1), rng.randint(0, 1)
            lines[i] = lines[i][:k] + new + lines[i][k + cut:]
        elif edit == "token":
            i = rng.randrange(len(lines))
            words = re.split(r"(\s+)", lines[i])
            k = rng.randrange(len(words))
            words[k] = rng.choice(("zz", "1/0", "nan", "0x1", "2", "-1/2", "0.5e1",
                                   "a", "1", "0", "->", "=", "|", ","))
            lines[i] = "".join(words)
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if rng.random() < 0.2:  # no final line break
        text = text.rstrip("".join(BREAKS))
    return text, edits


def outcome(parse, text: str) -> tuple:
    try:
        parsed = parse(text)
    except Exception as exc:  # noqa: BLE001 -- any exception must agree
        return type(exc).__name__, str(exc), vars(exc)
    fields = {name: getattr(parsed, name) for name in ParsedModel._fields}
    return "ok", {name: list(value.items()) if isinstance(value, dict) else value
                  for name, value in fields.items()}


def test_agrees_with_the_reference_on_mutated_files():
    bases = [fixture_text(ident) for ident in FIXTURES] + generated_models()
    for text in bases:
        got = outcome(parse_model_text, text)
        assert got[0] == "ok" and got == outcome(reference_parse_model_text, text)
    rng = random.Random("parse-reference")
    reached, edits_seen = Counter(), set()
    for trial in range(CORPUS_SIZE):
        text, edits = mutate(rng, rng.choice(bases))
        got = outcome(parse_model_text, text)
        assert got == outcome(reference_parse_model_text, text), (trial, edits, text)
        reached.update(["ok"] if got[0] == "ok" else
                       [fault for fault in FAULTS if fault in got[1]])
        edits_seen.update(edits)
    assert set(reached) == {"ok", *FAULTS}, reached
    assert reached["ok"] > 200, reached
    assert set(edits_seen) == set(EDITS), edits_seen
