"""Command-line behavior: output contracts and exit codes."""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from qlogic import (
    build_logic,
    cli,
    conditional_from_smap,
    generators,
    lattice,
    rational,
    repro,
    validate_smap,
)
from qlogic.cli import build_parser, main
from qlogic.errors import ParseError
from qlogic.generators import SuiteReport
from qlogic.lattice import NAME_RULE, ONE, ZERO
from qlogic.modelfile import (
    ModelFile,
    emit_cond,
    emit_logic,
    emit_model,
    parse_model,
    parse_model_text,
    realize_logic,
    realize_model,
    realize_smap,
)
from qlogic.repro import fixture_text
from qlogic.rational import MAX_DENOMINATOR_BITS, fmt
from test_generators import _raising_a_cell


@pytest.fixture()
def files(tmp_path):
    out = {}
    for ident, stem in (("2.1", "e21"), ("2.2-printed", "printed"),
                        ("2.2-corrected", "corrected")):
        path = tmp_path / f"{stem}.qlm"
        path.write_text(fixture_text(ident), encoding="utf-8")
        out[ident] = str(path)
    return out


def machine_values(output: str) -> dict:
    pairs = [line.split("=", 1) for line in output.splitlines()
             if "=" in line and " " not in line.split("=", 1)[0]]
    return dict(pairs)


# -- validate -----------------------------------------------------------------


def test_validate_ok(files, capsys):
    assert main(["validate", files["2.1"]]) == 0
    out = capsys.readouterr().out
    assert "logic: ok (6 elements)" in out
    assert "cond f: ok" in out
    assert "smap p: ok" in out
    assert "observable y: ok" in out


def test_validate_detects_s3(files, capsys):
    assert main(["validate", files["2.2-printed"]]) == 1
    out = capsys.readouterr().out
    assert "smap p: INVALID" in out
    assert "s3" in out
    for name in ("a", "b", "b'"):
        assert name in out


def test_validate_corrected_ok(files, capsys):
    assert main(["validate", files["2.2-corrected"]]) == 0


def test_validate_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.qlm"
    bad.write_text("[logic]\nelements 0 1 x\nfrobnicate\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_names_that_print_alike_exit_2(tmp_path, capsys):
    """An invisible character would let two declared names print alike
    ('a' and 'a' with a zero-width space); the parser refuses the first
    such name and names its line."""
    bad = tmp_path / "invisible.qlm"
    bad.write_text("[logic]\n# a and b twice\nelements 0 1 a a\u200b b b\ufeff\n"
                   "complement a a\u200b\ncomplement b b\ufeff\n",
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: line 3: bad element name "
                            f"'a\\u200b': names are {NAME_RULE}\n")
    with pytest.raises(ParseError) as exc:
        parse_model(str(bad))
    assert exc.value.line == 3


def test_validate_without_logic_names_no_line(tmp_path, capsys):
    bad = tmp_path / "bare.qlm"
    bad.write_text("[state m]\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: no [logic] section\n"


@pytest.mark.parametrize("literal", ["1e-20000", "1e+1000000", "0." + "1" * 300],
                         ids=["small-exponent", "large-exponent", "long"])
def test_validate_oversized_literal_exits_2(tmp_path, capsys, literal):
    bad = tmp_path / "huge.qlm"
    bad.write_text("[logic]\nelements 0 1 a a' b b'\ncomplement a a'\n"
                   "complement b b'\n[state m]\nb = 1/2\nb' = 1/2\n"
                   f"a = {literal}\na' = 3/5\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 8: bad number: rational literal" in err


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.qlm")]) == 2


def test_validate_invalid_logic_exits_1(tmp_path, capsys):
    bad = tmp_path / "chain.qlm"
    bad.write_text("[logic]\nelements 0 1 x y\norder x y\ncomplement x y\n",
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "logic: INVALID" in capsys.readouterr().out


def test_validate_names_non_orthogonal_observable_events(tmp_path, capsys):
    bad = tmp_path / "twice.qlm"
    bad.write_text("[logic]\nelements a a' b b'\ncomplement a a'\n"
                   "complement b b'\n[observable x]\n1 -> a\n2 -> a\n",
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "observable x: INVALID (elements 'a' and 'a' for spectrum values "
        "1 and 2 are not orthogonal)")


# -- derive -------------------------------------------------------------------


def test_derive_cond_to_smap(files, capsys):
    assert main(["derive", files["2.1"], "--from", "cond", "--name", "f"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[smap f]")
    assert "a , b = 3/25" in out
    assert "b , a = 2/25" in out
    assert "1 , 1 = 1" in out


def test_derive_smap_to_cond(files, capsys):
    assert main(["derive", files["2.1"], "--from", "smap", "--name", "p"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[cond p]")
    assert "b | a' = 11/30" in out
    assert "b' | 1 = 7/10" in out


def test_derive_missing_section(files, capsys):
    """A name no section has, and one only a [cond] section has."""
    for name in ("q", "f"):
        assert main(["derive", files["2.1"], "--from", "smap", "--name", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no [smap {name}] section in {files['2.1']}\n"


def test_derive_caps_the_columns_taken_together(tmp_path, monkeypatch, capsys):
    """`validate` caps the denominator of each conditioning event's column,
    `derive --from cond` that of all columns together.  On mo(2), with the
    cap at 600 bits: columns a and a' hold y and 1 - y over 3^250 (397
    bits), columns b and b' hold x and 1 - x over 7^141 (396 bits), and the
    column of 1 holds 1/2 everywhere."""
    monkeypatch.setattr(rational, "MAX_DENOMINATOR_BITS", 600)
    x, y = F(1, 7 ** 141), F(1, 3 ** 250)
    columns = {"1": (F(1, 2),) * 4, "a": (1, 0, y, 1 - y), "a'": (0, 1, 1 - y, y),
               "b": (x, 1 - x, 1, 0), "b'": (1 - x, x, 0, 1)}
    path = tmp_path / "wide.qlm"
    path.write_text("[logic]\nelements 0 1 a a' b b'\ncomplement a a'\n"
                    "complement b b'\n[cond f]\n" + "".join(
                        f"{b} | {a} = {v}\n" for a, column in columns.items()
                        for b, v in zip(("a", "a'", "b", "b'"), column)),
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "logic: ok (6 elements)\ncond f: ok\n"
    assert main(["derive", str(path), "--from", "cond", "--name", "f"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the common denominator of a table "
                            "exceeds 600 bits\n")


@pytest.mark.parametrize("argv", [
    ["derive", "{}", "--from", "smap", "--name", "p"],
    ["stats", "{}", "--smap", "p", "--x", "x", "--y", "y"],
], ids=["derive", "stats"])
def test_unparsable_file_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.qlm"
    bad.write_text("[logic]\nelements 0 1 x\nfrobnicate\n", encoding="utf-8")
    assert main([arg.format(bad) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: unknown directive" in captured.err


@pytest.mark.parametrize("argv", [
    ["validate", "{}"],
    ["derive", "{}", "--from", "smap", "--name", "p"],
    ["stats", "{}", "--smap", "p", "--x", "x", "--y", "y"],
], ids=["validate", "derive", "stats"])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    """One error line naming the byte offset in the whole file, past a
    comment longer than any read buffer."""
    bad = tmp_path / "latin1.qlm"
    bad.write_bytes(b"[logic]\n# " + b"x" * 10_000 + b"\nelements a a\xe9\n")
    assert main([arg.format(bad) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: 'utf-8' codec can't decode byte "
                            "0xe9 in position 10023: invalid continuation "
                            "byte\n")


def test_a_byte_order_mark_only_starts_a_file(tmp_path, capsys):
    """A UTF-8 file as Windows editors write it, beginning with a byte-order
    mark, validates; a bad byte's offset still counts the mark.  U+FEFF
    anywhere else is an ordinary character, and there it is refused."""
    text = fixture_text("2.1")
    marked = tmp_path / "marked.qlm"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(["validate", str(marked)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "logic: ok (6 elements)"
    marked.write_bytes(b"\xef\xbb\xbf[logic]\nelements a a\xe9\n")
    assert main(["validate", str(marked)]) == 2
    assert "byte 0xe9 in position 23:" in capsys.readouterr().err
    inner = tmp_path / "inner.qlm"
    inner.write_text(text.replace("[cond f]", "\ufeff[cond f]"), encoding="utf-8")
    assert main(["validate", str(inner)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {inner}: line 11: unknown directive "
                            "'\\ufeff[cond'\n")


def test_derive_invalid_input_exits_1(files, capsys):
    assert main(["derive", files["2.2-printed"],
                 "--from", "smap", "--name", "p"]) == 1
    assert "s3" in capsys.readouterr().err


# -- stats --------------------------------------------------------------------


def test_stats_machine_block(files, capsys):
    assert main(["stats", files["2.1"], "--smap", "p",
                 "--x", "x", "--y", "y"]) == 0
    got = machine_values(capsys.readouterr().out)
    expected = {
        "nu_x": "1/5", "nu_y": "7/2",
        "moment_xy": "7/10", "moment_yx": "3/10",
        "cov_xy": "0", "cov_yx": "-2/5",
        "var_x": "24/25", "var_y": "21/4",
        "r_xy": "0.000000000", "r_yx": "-0.178174161",
        "cov_matrix_00": "24/25", "cov_matrix_01": "0",
        "cov_matrix_10": "-2/5", "cov_matrix_11": "21/4",
        "covariance_symmetric": "false",
        "observables_compatible": "false",
        "joint_xy(-1,0)": "3/25", "joint_xy(-1,5)": "7/25",
        "joint_xy(1,0)": "9/50", "joint_xy(1,5)": "21/50",
        "joint_yx(0,-1)": "2/25", "joint_yx(0,1)": "11/50",
        "joint_yx(5,-1)": "8/25", "joint_yx(5,1)": "19/50",
        "indep(a,b)": "true", "indep(b,a)": "false",
    }
    for key, value in expected.items():
        assert got[key] == value, key


def test_stats_corrected_is_symmetric(files, capsys):
    assert main(["stats", files["2.2-corrected"], "--smap", "p",
                 "--x", "x", "--y", "y"]) == 0
    got = machine_values(capsys.readouterr().out)
    assert got["covariance_symmetric"] == "true"
    assert got["observables_compatible"] == "false"
    assert got["cov_xy"] == got["cov_yx"] == "-2/5"
    assert got["r_xy"] == got["r_yx"] == "-0.178174161"


def test_stats_with_itself(files, capsys):
    assert main(["stats", files["2.1"], "--smap", "p",
                 "--x", "x", "--y", "x"]) == 0
    got = machine_values(capsys.readouterr().out)
    assert (got["cov_matrix_00"] == got["cov_matrix_01"]
            == got["cov_matrix_10"] == got["cov_matrix_11"] == "24/25")
    assert got["covariance_symmetric"] == "true"


def test_stats_degenerate_variance_warns(tmp_path, capsys):
    text = fixture_text("2.1") + "\n[observable c]\n4 -> 1\n"
    path = tmp_path / "const.qlm"
    path.write_text(text, encoding="utf-8")
    assert main(["stats", str(path), "--smap", "p",
                 "--x", "c", "--y", "y"]) == 0
    out = capsys.readouterr().out
    assert "warning: correlation omitted" in out
    got = machine_values(out)
    assert "r_xy" not in got and "r_yx" not in got
    assert got["var_x"] == "0"


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_stats_at_extreme_scales(tmp_path, capsys, scale):
    """Values whose squares leave the float range still give a
    correlation, with its sign."""
    path = tmp_path / "scaled.qlm"
    path.write_text(
        "[logic]\nelements 0 1 a b\ncomplement a b\n\n[smap p]\n"
        "a , a = 1/2\na , b = 0\nb , a = 0\nb , b = 1/2\n\n"
        f"[observable x]\n{scale} -> a\n-{scale} -> b\n\n"
        f"[observable y]\n-{scale} -> a\n{scale} -> b\n", encoding="utf-8")
    for y, r in (("x", "1.000000000"), ("y", "-1.000000000")):
        assert main(["stats", str(path), "--smap", "p", "--x", "x", "--y", y]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got = machine_values(captured.out)
        assert got["r_xy"] == got["r_yx"] == r


def test_stats_invalid_smap_exits_1(files, capsys):
    assert main(["stats", files["2.2-printed"], "--smap", "p",
                 "--x", "x", "--y", "y"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "s3" in captured.err


def test_stats_missing_observable(files, capsys):
    """A name no section has, and one only an [smap] section has."""
    for x, y, missing in (("x", "z", "z"), ("p", "y", "p")):
        assert main(["stats", files["2.1"], "--smap", "p", "--x", x, "--y", y]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: no [observable {missing}] section in "
                                f"{files['2.1']}\n")


def test_stats_caps_the_values_taken_together(tmp_path, monkeypatch, capsys):
    """`stats` caps the values of its two observables taken together, and
    exits 1 with the error line of `derive --from cond` over the cap.  On
    mo(2), with the cap at 600 bits: x takes 1/3^250 and 2/3^250 (397
    bits), y takes 1/7^141 and 2/7^141 (396 bits), 793 bits together, and
    `validate` accepts both."""
    monkeypatch.setattr(rational, "MAX_DENOMINATOR_BITS", 600)
    path = tmp_path / "wide.qlm"
    path.write_text(fixture_text("2.1").split("[observable x]")[0] + "".join(
        f"[observable {name}]\n1/{base ** k} -> {e}\n2/{base ** k} -> {e}'\n"
        for name, base, k, e in (("x", 3, 250, "a"), ("y", 7, 141, "b"))),
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == ("logic: ok (6 elements)\ncond f: ok\n"
                                       "smap p: ok\nobservable x: ok\n"
                                       "observable y: ok\n")
    assert main(["stats", str(path), "--smap", "p", "--x", "x", "--y", "y"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the common denominator of a table "
                            "exceeds 600 bits\n")


# -- a lattice that is not a horizontal sum ----------------------------------

PASTING_LOGIC = """\
# two 8-element Boolean blocks, atoms {x, a1, a2} and {x, b1, b2},
# pasted along {0, x, x', 1}
[logic]
elements 0 1 x x' a1 a2 a1' a2' b1 b2 b1' b2'
order a1 x'
order a2 x'
order x a1'
order a2 a1'
order x a2'
order a1 a2'
order b1 x'
order b2 x'
order x b1'
order b2 b1'
order x b2'
order b1 b2'
complement x x'
complement a1 a1'
complement a2 a2'
complement b1 b1'
complement b2 b2'
"""

#: the two-valued states with their mixing weights: each picks one atom per
#: block (x for both, or one a and one b) and gives 1 to exactly the
#: elements above a picked atom
TWO_VALUED = {("x",): F(1, 10), ("a1", "b1"): F(1, 5), ("a1", "b2"): F(3, 10),
              ("a2", "b1"): F(1, 10), ("a2", "b2"): F(3, 10)}


def pasting_model(logic) -> tuple[str, dict]:
    """Model-file text with a state, a conditional state, two observables
    and an s-map p, the mixture of d(a) d(b) over the two-valued states d,
    on `logic`; the s-map section omits its 0 and 1 rows and columns.
    Returns the text and the complete table of p."""
    def delta(picked, e):
        return int(any(logic.leq(t, e) for t in picked))

    p = {(a, b): sum((w * delta(d, a) * delta(d, b)
                      for d, w in TWO_VALUED.items()), F(0))
         for a in logic.names for b in logic.names}
    inner = [e for e in logic.names if e not in (ZERO, ONE)]
    lines = [PASTING_LOGIC, "[state m]"]
    lines += [f"{e} = {fmt(p[e, e])}" for e in inner]
    lines.append("\n[cond f]   # f(b | a) = p(b, a) / p(a, a)")
    lines += [f"{b} | {a} = {fmt(p[b, a] / p[a, a])}"
              for a in logic.names if a != ZERO for b in inner]
    lines.append("\n[smap p]")
    lines += [f"{a} , {b} = {fmt(p[a, b])}" for a in inner for b in inner]
    lines.append("\n[observable x]\n1 -> a1\n2 -> a2\n3 -> x")
    lines.append("\n[observable y]\n-1 -> b1\n0 -> b2\n5 -> x")
    return "\n".join(lines) + "\n", p


def test_pasting_model_through_the_cli(tmp_path, capsys, pasting12):
    text, p = pasting_model(pasting12)
    path = tmp_path / "pasting12.qlm"
    path.write_text(text, encoding="utf-8")

    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "logic: ok (12 elements)", "state m: ok", "cond f: ok", "smap p: ok",
        "observable x: ok", "observable y: ok"]

    # the completion fills the rows and columns of 0 and 1 the file omits
    parsed = parse_model(path)
    logic = realize_logic(parsed)
    assert logic == pasting12
    assert not any({ZERO, ONE} & set(key) for key in parsed.smaps["p"])
    assert realize_smap(logic, parsed.smaps["p"]).values == p
    model = realize_model(parsed)

    # derived sections parse again, and the conversions invert each other
    assert main(["derive", str(path), "--from", "smap", "--name", "p"]) == 0
    derived = realize_model(parse_model_text(
        PASTING_LOGIC + capsys.readouterr().out))
    assert derived.conds["p"] == model.conds["f"]
    assert main(["derive", str(path), "--from", "cond", "--name", "f"]) == 0
    derived = realize_model(parse_model_text(
        PASTING_LOGIC + capsys.readouterr().out))
    assert derived.smaps["f"].values == p

    assert main(["stats", str(path), "--smap", "p", "--x", "x", "--y", "y"]) == 0
    got = machine_values(capsys.readouterr().out)
    x = {"1": "a1", "2": "a2", "3": "x"}
    y = {"-1": "b1", "0": "b2", "5": "x"}
    for t, e in x.items():
        for s, f in y.items():
            assert got[f"joint_xy({t},{s})"] == fmt(p[e, f])
            assert got[f"joint_yx({s},{t})"] == fmt(p[f, e])
    assert got["observables_compatible"] == "false"
    assert got["nu_x"] == fmt(sum(int(t) * p[e, e] for t, e in x.items()))


# -- gen / check --------------------------------------------------------------


def test_gen_is_self_validating(tmp_path, capsys):
    assert main(["gen", "mo", "2", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.qlm"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "state m: ok" in out and "smap p: ok" in out


def test_gen_without_seed_emits_logic_only(capsys):
    assert main(["gen", "boolean", "3"]) == 0
    out = capsys.readouterr().out
    assert "[logic]" in out and "[smap" not in out
    assert "elements 0 s1 s2 s3 s12 s13 s23 1" in out


def test_gen_deterministic(capsys):
    assert main(["gen", "mo", "3", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "mo", "3", "--seed", "42"]) == 0
    assert capsys.readouterr().out == first


def test_gen_size_out_of_range(capsys):
    assert main(["gen", "mo", "9"]) == 2
    assert main(["gen", "boolean", "0"]) == 2


@pytest.mark.parametrize("argv", [["gen", "boolean", "1", "--seed", "4"],
                                  ["check", "boolean", "1"]])
def test_unsampled_lattice_exits_2(capsys, argv):
    # boolean 1 has a single atom, so it is no horizontal sum to sample on
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block of 1 has a single atom\n"


def test_check_passes(capsys):
    assert main(["check", "mo", "2", "--trials", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "8/8 trials passed" in out
    assert "witness search agree" in out


def test_check_boolean(capsys):
    assert main(["check", "boolean", "2", "--trials", "5"]) == 0


#: every stock shape `check` samples, all within the witness search's cap
CHECK_SHAPES = [("mo", n) for n in range(1, 9)] + [("boolean", n) for n in (2, 3, 4)]


def test_a_repeated_check_prints_the_same(capsys):
    """The first request on a freshly built lattice derives the lattice's
    verdicts and tables; the second reads them as kept."""
    lattice._memo.cache_clear()
    for family, n in CHECK_SHAPES:
        argv = ["check", family, str(n), "--trials", "3", "--seed", "11"]
        first = (main(argv), capsys.readouterr().out)
        assert first[0] == 0 and "3/3 trials passed" in first[1]
        assert (main(argv), capsys.readouterr().out) == first, (family, n)


@pytest.mark.parametrize("scan,failing,line", [
    ("oracle_scan", lambda logic: "a ~ b disagree",
     "compatibility oracle: FAIL (a ~ b disagree)"),
    ("distributivity_scan", lambda logic: "b=a, family=('a', 'b')",
     "distributivity over compatible joins: FAIL (b=a, family=('a', 'b'))"),
    ("roundtrip_suite",
     lambda logic, trials, seed: SuiteReport(trials, trials - 1, 1, "trial 2"),
     "first failure: trial 2"),
], ids=["oracle", "distributivity", "roundtrip"])
def test_check_reports_a_failing_scan(monkeypatch, capsys, scan, failing, line):
    monkeypatch.setattr(cli, scan, failing)
    assert main(["check", "mo", "2", "--trials", "4"]) == 1
    assert line in capsys.readouterr().out.splitlines()


def test_check_reports_a_trial_that_raises(monkeypatch, capsys):
    monkeypatch.setattr(generators, "random_smap",
                        _raising_a_cell(generators.random_smap))
    assert main(["check", "mo", "2", "--trials", "3", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "roundtrips and laws: 0/3 trials passed" in lines
    assert re.fullmatch(r"first failure: trial 0 \(seed \d+\): "
                        r"S3Violation: additivity \(s3\) fails .*", lines[-1])
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_check_needs_a_positive_trial_count(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["check", "mo", "2", "--trials", trials])
    assert exc.value.code == 2
    assert "--trials: must be at least 1" in capsys.readouterr().err


# -- repro --------------------------------------------------------------------


@pytest.mark.parametrize("ident,checks", [
    ("2.1", "32/32"), ("2.2-printed", "2/2"), ("2.2-corrected", "28/28")])
def test_repro_ids(ident, checks, capsys):
    assert main(["repro", ident]) == 0
    out = capsys.readouterr().out
    assert f"repro {ident}: ok" in out
    assert checks in out
    assert "FAIL" not in out


def test_repro_reports_failing_checks(monkeypatch, capsys):
    monkeypatch.setitem(repro.EXAMPLE21_STATS, "nu_x", F(0))
    assert main(["repro", "2.1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL nu_x = 1/5 (expected 0)" in out
    assert "repro 2.1: FAIL (31/32 checks passed)" in out
    monkeypatch.setattr(repro, "realize_smap", lambda logic, table: None)
    assert main(["repro", "2.2-printed"]) == 1
    assert ("FAIL validator accepted a table that is not additive"
            in capsys.readouterr().out)


def test_repro_unknown_id(capsys):
    assert main(["repro", "3.7"]) == 2
    assert "unknown repro id" in capsys.readouterr().err


def test_repro_unknown_id_is_one_error_line(capsys):
    assert main(["repro", "3.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown repro id '3.7'; choose from 2.1, "
                            "2.2-printed, 2.2-corrected\n")


def test_the_library_names_an_unknown_repro_id_as_the_cli_does(capsys):
    """`run_repro` refuses an unknown id itself, with the text that
    `qlogic repro` prints after `error: `."""
    with pytest.raises(KeyError) as exc:
        repro.run_repro("3.7")
    assert main(["repro", "3.7"]) == 2
    assert capsys.readouterr().err == f"error: {exc.value.args[0]}\n"


def test_a_key_error_inside_a_runner_is_not_an_unknown_id(monkeypatch, capsys):
    """A runner that fails with KeyError, as on a fixture that lost its
    [cond f], is a defect: it propagates instead of exiting 2."""
    def lost_section(report):
        raise KeyError("f")

    monkeypatch.setitem(repro.RUNNERS, "2.1", lost_section)
    with pytest.raises(KeyError, match="f"):
        main(["repro", "2.1"])
    assert capsys.readouterr().err == ""


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["derive", "somefile"])  # missing required options
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert main(["repro", "2.2-printed"]) == 0
        assert main(["gen", "mo", "2"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["check", "mo", "2", "--trials", "0"])
        assert exc.value.code == 2
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def _module_env() -> dict:
    """The environment for `python -m qlogic`, with this package first."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = [src, os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [src]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_python_dash_m_runs_the_cli():
    env = _module_env()
    for module in ("qlogic", "qlogic.cli"):
        done = subprocess.run([sys.executable, "-m", module, "repro", "2.1"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, (module, done.stderr)
        assert "repro 2.1: ok (32/32 checks passed)" in done.stdout
    assert importlib.import_module("qlogic.__main__").main is main


def test_importing_the_cli_generates_no_code():
    """Without site, whose .pth files may import more, `import qlogic.cli`
    loads neither `dataclasses` (nor its `inspect`) nor `importlib.resources`;
    `repro` reads its fixtures as plain files next to the package, and
    `repro 2.1` prints what it printed when both were imported with the
    package."""
    env = _module_env()
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, qlogic.cli; print(sorted("
         "{'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout == "[]\n", done.stderr
    done = subprocess.run([sys.executable, "-S", "-m", "qlogic", "repro", "2.1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "baff7db3bbc83008e93664c8d717104a0ef179487c31b0a21c257939ab573043")


def test_a_table_of_distinct_large_denominators_is_refused_quickly(tmp_path):
    """A 64-element logic whose [smap] cells are 1/d, each d a distinct
    241-digit number (about 1 MB of text): the lcm of the denominators
    passes the cap after about 80 cells, so `validate` stops there.
    Without the cap it would take about a minute and 2 GB."""
    rng = random.Random(0)
    names = ["0", "1"] + [f"a{i}" for i in range(31)] + [f"b{i}" for i in range(31)]
    lines = ["[logic]", "elements " + " ".join(names)]
    lines += [f"complement a{i} b{i}" for i in range(31)]
    lines += ["[smap p]"] + [f"{a} , {b} = 1/{rng.randrange(10 ** 240, 10 ** 241)}"
                             for a in names for b in names]
    path = tmp_path / "hostile.qlm"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qlogic", "validate", str(path)],
                          capture_output=True, text=True, env=_module_env(),
                          timeout=5)
    elapsed = time.perf_counter() - start
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    assert done.stdout.splitlines() == [
        "logic: ok (64 elements)",
        f"smap p: INVALID (the common denominator of a table exceeds "
        f"{MAX_DENOMINATOR_BITS} bits)"]
    assert elapsed < 3.0, elapsed  # start-up included; about 0.3 s unloaded


def test_a_valid_conditional_state_of_large_distinct_denominators(tmp_path):
    """`derive --from cond` on a valid 64-element conditional state whose
    columns have large, distinct denominators: the horizontal sum of 31
    two-atom blocks, atom masses x and 1 - x with a distinct 127-digit
    denominator per block (the longest a 256-character literal can hold),
    and a product s-map across blocks.  Column b then holds the masses of
    every other block, about 13,000 bits over one denominator, and the
    derived s-map about 25,000 bits; the file is about 1 MB."""
    rng = random.Random(0)
    names = ["0", "1"] + [f"a{i}" for i in range(31)] + [f"b{i}" for i in range(31)]
    logic = build_logic(names, (), [(f"a{i}", f"b{i}") for i in range(31)])
    mass, block = {}, {}
    for i in range(31):
        d = rng.randrange(10 ** 126, 10 ** 127)
        mass[f"a{i}"] = F(rng.randrange(1, d), d)
        mass[f"b{i}"] = 1 - mass[f"a{i}"]
        block[f"a{i}"] = block[f"b{i}"] = i
    below = {ZERO: (), ONE: ("a0", "b0"), **{a: (a,) for a in mass}}

    def atoms(a, b):  # the s-map on a pair of atoms
        if block[a] != block[b]:
            return mass[a] * mass[b]
        return mass[a] if a == b else 0

    p = validate_smap(logic, {(u, v): sum(atoms(a, b) for a in below[u] for b in below[v])
                              for u in names for v in names})
    path = tmp_path / "wide_cond.qlm"
    model = emit_logic(logic) + emit_cond("f", conditional_from_smap(p))
    path.write_text("\n".join(model) + "\n", encoding="utf-8")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qlogic", "derive", str(path),
                           "--from", "cond", "--name", "f"],
                          capture_output=True, text=True, env=_module_env(),
                          timeout=120)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert len(lines) == 1 + 64 * 64 and lines[0] == "[smap f]"
    assert f"a0 , a1 = {fmt(mass['a0'] * mass['a1'])}" in lines
    assert elapsed < 25.0, elapsed  # start-up included; about 2.5 s unloaded


def test_a_closed_stdout_is_one_error_line(tmp_path):
    """`qlogic derive ... | head -n 1`: the reader closes the pipe after one
    line.  The derived table (about 120 kB) overflows the pipe buffer, so a
    later write fails; that is one error line and exit 2, not a traceback."""
    logic = generators.horizontal_sum([5, 5])
    path = tmp_path / "wide.qlm"
    model = ModelFile(logic, {}, {}, {"p": generators.random_smap(logic, 0)}, {})
    path.write_text(emit_model(model), encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-m", "qlogic", "derive", str(path), "--from", "smap",
         "--name", "p"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
    with child:
        assert child.stdout.readline() == b"[cond p]\n"
        child.stdout.close()
        stderr = child.stderr.read().decode()
        code = child.wait(timeout=60)
    assert code == 2, stderr
    assert stderr == ("error: standard output closed before all output was "
                      "written\n")
    # `2>&1 | head -n 1`: the error line goes into the closed pipe as well
    child = subprocess.Popen(
        [sys.executable, "-m", "qlogic", "derive", str(path), "--from", "smap",
         "--name", "p"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=_module_env())
    with child:
        assert child.stdout.readline() == b"[cond p]\n"
        child.stdout.close()
        assert child.wait(timeout=60) == 2
    # with no standard output at all, the output is dropped, as before
    done = subprocess.run(["sh", "-c", '"$0" -m qlogic gen mo 2 >&-',
                           sys.executable], capture_output=True, text=True,
                          env=_module_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
