"""A seeded fuzzer of the CLI's exit-code contract.

The three packaged fixtures and four generated models are mutated: the
line and character edits of `test_parse_reference.mutate`, a section
spliced in from another file, an extreme literal in place of a value, a
flipped byte, and a lowered `rational.MAX_DENOMINATOR_BITS`.  Each case runs
`validate`, `derive` both ways and `stats` in-process through `cli.main`.

Every run must exit 0, 1 or 2 without an exception.  An exit 1 or 2 prints
exactly one `error:` line and nothing on stdout, except `validate`'s exit
1, which prints its INVALID lines and nothing on stderr.  A file that
`validate` accepts and whose s-map `derive --from smap` converts must come
back unchanged from the conditional state, read again from its emitted
text, through `derive --from cond`.  The seeded corpus must reach every
exit code of every command, 30 such round trips, and a `stats` refused by
the cap on its two observables' values taken together.
"""

from __future__ import annotations

import random
from collections import Counter

from qlogic import rational
from qlogic.cli import main
from qlogic.modelfile import (
    emit_logic,
    emit_smap,
    parse_model,
    realize_logic,
    realize_smap,
)
from qlogic.repro import FIXTURES, fixture_text
from test_parse_reference import generated_models, mutate

CASES = 300

#: numbers at and past the parser's limits of 256 characters and a
#: decimal exponent of 256
EXTREME = ("9" * 256, "9" * 257, "1/" + "7" * 254, "0." + "0" * 253 + "1",
           "-" + "3" * 255, "1e256", "1e-256", "1e257", "2/3e-256")
CAPS = (8, 64, 256, 600)


def _sections(text: str) -> list:
    """The sections of `text`, each its header line and the lines after."""
    chunks = []
    for line in text.splitlines():
        if line.startswith("[") or not chunks:
            chunks.append([])
        chunks[-1].append(line)
    return chunks


def _splice(rng: random.Random, text: str, donor: str) -> str:
    """`text` with one of `donor`'s sections put in place of one of its own
    or inserted at a random line."""
    chunks, given = _sections(text), rng.choice(_sections(donor))
    if rng.random() < 0.5:
        chunks[rng.randrange(len(chunks))] = given
    else:
        chunks.insert(rng.randrange(len(chunks) + 1), given)
    return "\n".join(line for chunk in chunks for line in chunk) + "\n"


def _extreme(rng: random.Random, text: str) -> str:
    """`text` with an extreme literal in place of the value of one line;
    an observable's line half the time, as observables have few lines."""
    lines = text.splitlines()
    valued = [i for i, line in enumerate(lines) if "=" in line or "->" in line]
    spectral = [i for i in valued if "->" in lines[i]]
    if not valued:
        return text
    i = rng.choice(spectral if spectral and rng.random() < 0.5 else valued)
    literal = rng.choice(EXTREME)
    if "->" in lines[i]:
        lines[i] = literal + " ->" + lines[i].split("->", 1)[1]
    else:
        lines[i] = lines[i].rsplit("=", 1)[0] + "= " + literal
    return "\n".join(lines) + "\n"


def _case(rng: random.Random, bases: list) -> tuple[bytes, list]:
    """One fuzzed file and the names of the edits that made it."""
    text, edits = rng.choice(bases), []
    if rng.random() < 0.4:
        text, edits = mutate(rng, text)
    if rng.random() < 0.2:
        text = _splice(rng, text, rng.choice(bases))
        edits.append("splice")
    if rng.random() < 0.3:
        text = _extreme(rng, text)
        edits.append("extreme")
    data = text.encode("utf-8")
    if data and rng.random() < 0.1:
        at = rng.randrange(len(data))
        data = data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
        edits.append("byte")
    return data, edits


def _commands(path: str, y: str) -> dict:
    return {
        "validate": ["validate", path],
        "derive-smap": ["derive", path, "--from", "smap", "--name", "p"],
        "derive-cond": ["derive", path, "--from", "cond", "--name", "f"],
        "stats": ["stats", path, "--smap", "p", "--x", "x", "--y", y],
    }


def _run(capsys, argv: list) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _keeps_contract(command: str, code: int, out: str, err: str) -> bool:
    if code == 0:
        return err == ""
    if command == "validate" and code == 1:
        return "INVALID" in out and err == ""
    return code in (1, 2) and out == "" and (
        err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


def test_cli_exit_codes_on_fuzzed_files(tmp_path, monkeypatch, capsys):
    bases = [fixture_text(ident) for ident in FIXTURES] + generated_models()
    rng = random.Random("cli-fuzz")
    path, back = str(tmp_path / "case.qlm"), str(tmp_path / "back.qlm")
    reached, edits_seen, roundtrips, stats_capped = Counter(), Counter(), 0, 0
    for trial in range(CASES):
        data, edits = _case(rng, bases)
        with open(path, "wb") as out:
            out.write(data)
        y = "y" if b"[observable y]" in data else "x"
        runs = {}
        with monkeypatch.context() as patch:
            if rng.random() < 0.4:
                cap = rng.choice(CAPS)
                patch.setattr(rational, "MAX_DENOMINATOR_BITS", cap)
                edits.append("cap")
            for command, argv in _commands(path, y).items():
                code, out, err = _run(capsys, argv)
                assert _keeps_contract(command, code, out, err), (
                    trial, edits, command, code, out, err, data)
                reached[command, code] += 1
                runs[command] = code, out, err
        edits_seen.update(edits)
        # the s-map passed the cap, so only the observables' values
        # taken together in compute_stats can have been refused
        stats_capped += (runs["derive-smap"][0] == 0 and runs["stats"][0] == 1
                         and "common denominator" in runs["stats"][2])
        if runs["validate"][0] == 0 and runs["derive-smap"][0] == 0:
            parsed = parse_model(path)
            logic = realize_logic(parsed)
            with open(back, "w", encoding="utf-8") as out:
                out.write("\n".join(emit_logic(logic) + ["", runs["derive-smap"][1]]))
            got = _run(capsys, ["derive", back, "--from", "cond", "--name", "p"])
            table = emit_smap("p", realize_smap(logic, parsed.table("smap", "p")))
            assert got == (0, "\n".join(table) + "\n", ""), (trial, edits)
            roundtrips += 1
    assert set(edits_seen) >= {"splice", "extreme", "byte", "cap"}, edits_seen
    assert set(reached) == {(command, code) for command in _commands(path, y)
                            for code in (0, 1, 2)}, reached
    assert roundtrips >= 30, roundtrips
    assert stats_capped >= 1
