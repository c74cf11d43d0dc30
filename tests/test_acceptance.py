"""Acceptance gate.

Eight numbered criteria, each one test, each printing a single
"criterion N: PASS/FAIL (...)" line (visible with -s).  Expected values
are frozen here as exact rationals and checked independently of the
repro module's own bookkeeping.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qlogic import cli, repro
from qlogic.errors import (
    S1Violation,
    S2Violation,
    S3Violation,
    ValidationError,
    ValueOutOfRange,
)
from qlogic.generators import (
    brute_force_compatible,
    gen_boolean,
    gen_mo,
    independence_law_scan,
    infer_blocks,
    oracle_scan,
    product_equivalence_scan,
    random_smap,
    roundtrip_suite,
    smap_law_scan,
    statistics_law_scan,
)
from qlogic.lattice import ONE, ZERO
from qlogic.modelfile import parse_model_text, realize_model
from qlogic.observables import compute_stats
from qlogic.repro import fixture_text, run_repro
from qlogic.smaps import conditional_from_smap, smap_from_conditional, validate_smap
from qlogic.states import (
    conditional_state_from_partition,
    validate_conditional_state,
    validate_state,
)

F = Fraction


@contextmanager
def verdict(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({summary})")
        raise
    print(f"criterion {number}: PASS ({summary})")


def timed_cli(argv, limit):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code == 0, f"{argv} exited {code}"
    assert elapsed < limit, f"{argv} took {elapsed:.3f}s"


# the randomized corpus shared by criteria 4, 5 and 7: 510 trials total
@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    reports = {k: roundtrip_suite(gen_mo(k), trials=170, seed=1000 + k)
               for k in (2, 3, 4)}
    return reports, time.perf_counter() - start


# every entry of the printed two-atom-block table, as exact fractions
P_TABLE = {
    ("a", "a"): F(2, 5), ("a", "a'"): F(0), ("a", "b"): F(3, 25), ("a", "b'"): F(7, 25),
    ("a'", "a"): F(0), ("a'", "a'"): F(3, 5), ("a'", "b"): F(9, 50), ("a'", "b'"): F(21, 50),
    ("b", "a"): F(2, 25), ("b", "a'"): F(11, 50), ("b", "b"): F(3, 10), ("b", "b'"): F(0),
    ("b'", "a"): F(8, 25), ("b'", "a'"): F(19, 50), ("b'", "b"): F(0), ("b'", "b'"): F(7, 10),
}


def _section(text: str, header: str) -> str:
    start = text.index(header)
    return text[start:text.index("\n[", start)]


def test_criterion_1_primary_fixture(monkeypatch):
    with verdict(1, "p-table from f-table, all statistics, asymmetric matrix, < 1 s"):
        start = time.perf_counter()
        report = run_repro("2.1")
        elapsed = time.perf_counter() - start
        assert report.ok, "\n".join(report.lines)
        assert elapsed < 1.0, f"repro took {elapsed:.3f}s"
        timed_cli(["repro", "2.1"], 1.0)

        model = realize_model(parse_model_text(fixture_text("2.1")))
        p = smap_from_conditional(model.conds["f"])
        for key, expected in P_TABLE.items():
            assert p(*key) == expected, (key, p(*key), expected)
        # and back: conditioning the derived table recovers the input
        f2 = conditional_from_smap(p)
        assert f2.values == model.conds["f"].values

        stats = compute_stats(p, model.observables["x"], model.observables["y"])
        assert stats.nu_x == F(1, 5)
        assert stats.nu_y == F(7, 2)
        assert stats.moment_xy == F(7, 10)
        assert stats.moment_yx == F(3, 10)
        assert stats.cov_xy == 0
        assert stats.cov_yx == F(-2, 5)
        assert stats.var_x == F(24, 25)
        assert stats.var_y == F(21, 4)
        assert stats.r_xy == 0.0
        assert stats.r_yx < 0
        assert abs(abs(stats.r_yx) - 0.178) < 5e-4
        assert not stats.matrix.is_symmetric

        # with example 2.2's valid s-map in place of p, f no longer
        # determines it, nor it f, and both exactness checks say so
        text = fixture_text("2.1")
        swapped = text.replace(_section(text, "[smap p]"),
                               _section(fixture_text("2.2-corrected"), "[smap p]"))
        assert swapped != text
        monkeypatch.setattr(repro, "fixture_text", lambda ident: swapped)
        report = run_repro("2.1")
        assert not report.ok
        for check in ("conditional state determines the packaged s-map exactly",
                      "s-map determines the packaged conditional state exactly"):
            assert f"FAIL {check}" in report.lines, check


def test_criterion_2_printed_defect_detected():
    with verdict(2, "additivity defect in the printed table is caught, < 1 s"):
        start = time.perf_counter()
        report = run_repro("2.2-printed")
        elapsed = time.perf_counter() - start
        assert report.ok, "\n".join(report.lines)
        assert elapsed < 1.0, f"repro took {elapsed:.3f}s"
        timed_cli(["repro", "2.2-printed"], 1.0)

        with pytest.raises(S3Violation) as info:
            realize_model(parse_model_text(fixture_text("2.2-printed")))
        exc = info.value
        # row a sums to 0.46 against the diagonal 0.40
        assert {exc.a, exc.b, exc.c} == {"a", "b", "b'"}
        assert {exc.lhs, exc.rhs} == {F(2, 5), F(23, 50)}


def test_criterion_3_corrected_fixture():
    with verdict(3, "symmetric statistics without compatibility, < 1 s"):
        start = time.perf_counter()
        report = run_repro("2.2-corrected")
        elapsed = time.perf_counter() - start
        assert report.ok, "\n".join(report.lines)
        assert elapsed < 1.0, f"repro took {elapsed:.3f}s"
        timed_cli(["repro", "2.2-corrected"], 1.0)

        model = realize_model(parse_model_text(fixture_text("2.2-corrected")))
        p = model.smaps["p"]
        stats = compute_stats(p, model.observables["x"], model.observables["y"])
        assert stats.moment_xy == stats.moment_yx == F(3, 10)
        assert stats.cov_xy == stats.cov_yx == F(-2, 5)
        assert stats.matrix.entries == ((F(24, 25), F(-2, 5)),
                                        (F(-2, 5), F(21, 4)))
        assert stats.matrix.is_symmetric
        assert not stats.compatible


def test_criterion_4_roundtrip_corpus(corpus):
    with verdict(4, ">= 500 seeded roundtrips on mo(2..4), exact, < 30 s"):
        reports, elapsed = corpus
        total = sum(r.trials for r in reports.values())
        assert total >= 500
        for k, report in reports.items():
            assert report.ok, f"mo({k}): {report.first_failure}"
            assert report.passed == report.trials
        assert elapsed < 30.0, f"corpus took {elapsed:.3f}s"


def test_criterion_5_theorem_suite(corpus):
    with verdict(5, "derived laws, product equivalence, classical"
                    " representation, moment identity, symmetry"):
        reports, _ = corpus
        assert all(r.ok for r in reports.values())
        # the same battery, invoked directly on fresh samples
        for k in (2, 3):
            p = random_smap(gen_mo(k), seed=7 * k)
            f = conditional_from_smap(p)
            assert smap_law_scan(p) is None
            assert product_equivalence_scan(p, f) is None
            assert statistics_law_scan(p, random.Random(k)) is None
        # compatibility everywhere forces symmetric tables and statistics
        for n in (2, 3):
            report = roundtrip_suite(gen_boolean(n), trials=30, seed=40 + n)
            assert report.ok, f"boolean({n}): {report.first_failure}"


def test_criterion_6_oracle_equivalence():
    with verdict(6, "table identity vs witness search on boolean(1..3), mo(1..4)"):
        for logic in [gen_boolean(n) for n in (1, 2, 3)] + \
                     [gen_mo(n) for n in (1, 2, 3, 4)]:
            assert oracle_scan(logic) is None
            # spot check that the scan exercised the brute-force route
            a = logic.names[-1]
            assert brute_force_compatible(logic, a, a)


def test_criterion_7_independence_asymmetry(corpus):
    with verdict(7, "fixture asymmetry witness plus corpus-wide laws"):
        model = realize_model(parse_model_text(fixture_text("2.1")))
        p = smap_from_conditional(model.conds["f"])
        assert p.is_independent_pair("a", "b") is True
        assert p.is_independent_pair("b", "a") is False

        reports, _ = corpus
        assert all(r.ok for r in reports.values())
        for k in (2, 3):
            for seed in range(6):
                f = conditional_from_smap(random_smap(gen_mo(k), seed))
                assert independence_law_scan(f) is None


def _concentrated_state(logic, part, rng):
    """Random state giving its whole block's mass to one atom."""
    values = {ZERO: F(0), ONE: F(1)}
    for block in infer_blocks(logic):
        if part in block:
            for atom in block:
                values[atom] = F(1) if atom == part else F(0)
        else:
            t = F(rng.randint(0, 100), 100)
            values[block[0]] = t
            values[block[1]] = 1 - t
    return validate_state(logic, values)


def _witness_correct(exc, table, logic):
    """Recompute the reported violation from the perturbed table."""
    if isinstance(exc, ValueOutOfRange):
        v = table[exc.key]
        return v == exc.value and not 0 <= v <= 1
    if isinstance(exc, S1Violation):
        return table[ONE, ONE] == exc.value != 1
    if isinstance(exc, S2Violation):
        return (logic.is_orthogonal(exc.a, exc.b)
                and table[exc.a, exc.b] == exc.value != 0)
    if isinstance(exc, S3Violation):
        if not logic.is_orthogonal(exc.a, exc.b):
            return False
        ab = logic.join(exc.a, exc.b)
        if exc.side == "left":
            lhs = table[ab, exc.c]
            rhs = table[exc.a, exc.c] + table[exc.b, exc.c]
        else:
            lhs = table[exc.c, ab]
            rhs = table[exc.c, exc.a] + table[exc.c, exc.b]
        return lhs == exc.lhs and rhs == exc.rhs and lhs != rhs
    return False


def test_criterion_8_validator_soundness():
    with verdict(8, "constructions validate, 200 perturbed tables rejected"
                    " with correct witnesses"):
        # every sampler output survives an independent second validation
        for k in (2, 3):
            logic = gen_mo(k)
            for seed in range(10):
                p = random_smap(logic, seed)
                assert validate_smap(logic, p.values).values == p.values

        # partition-built conditional states validate too
        for k in (2, 3):
            logic = gen_mo(k)
            for seed in range(10):
                rng = random.Random(seed)
                parts = ("a", "a'")
                alphas = [_concentrated_state(logic, part, rng) for part in parts]
                w = F(rng.randint(1, 99), 100)
                f = conditional_state_from_partition(logic, parts, alphas, (w, 1 - w))
                g = validate_conditional_state(logic, f.cs, f.values)
                assert g.values == f.values

        # single-entry perturbations by 1/100 must be caught and the
        # witness must be recomputable from the perturbed table itself
        rng = random.Random(20260826)
        rejected = accepted = 0
        for trial in range(200):
            logic = gen_mo(2 + trial % 2)
            base = random_smap(logic, seed=trial)
            key = rng.choice(sorted(base.values))
            delta = F(rng.choice((-1, 1)), 100)
            table = dict(base.values)
            table[key] = table[key] + delta
            try:
                validate_smap(logic, table)
            except ValidationError as exc:
                rejected += 1
                assert _witness_correct(exc, table, logic), (key, delta, exc)
            else:
                # only tolerable if the table is genuinely still valid,
                # which a second validator pass has just confirmed
                accepted += 1
        assert rejected >= 198, f"only {rejected}/200 rejected"
        assert rejected + accepted == 200
