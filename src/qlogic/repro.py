"""End-to-end reruns of the packaged worked examples.

Each id names a packaged model file and a frozen set of expected results.
The checks run the full pipeline (parse, validate, convert in both
directions, statistics) and compare exactly, except for correlation
coefficients, which are floats and compared to 1e-9.  One id covers a
table that must be rejected; reproducing the expected rejection counts as
success there.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction as F

from .errors import S3Violation
from .modelfile import (
    parse_model_text,
    realize_logic,
    realize_model,
    realize_smap,
)
from .observables import CORRELATION_TOL, compute_stats
from .rational import fmt, fmt_float
from .records import Record
from .smaps import conditional_from_smap, smap_from_conditional

REPRO_IDS = ("2.1", "2.2-printed", "2.2-corrected")

FIXTURES = {
    "2.1": "example21.qlm",
    "2.2-printed": "example22_printed.qlm",
    "2.2-corrected": "example22_corrected.qlm",
}

#: atom table of the example21 s-map, also the target for deriving it
#: from the conditional state
EXAMPLE21_SMAP = {
    ("a", "a"): F(2, 5), ("a", "a'"): F(0), ("a", "b"): F(3, 25),
    ("a", "b'"): F(7, 25),
    ("a'", "a"): F(0), ("a'", "a'"): F(3, 5), ("a'", "b"): F(9, 50),
    ("a'", "b'"): F(21, 50),
    ("b", "a"): F(2, 25), ("b", "a'"): F(11, 50), ("b", "b"): F(3, 10),
    ("b", "b'"): F(0),
    ("b'", "a"): F(8, 25), ("b'", "a'"): F(19, 50), ("b'", "b"): F(0),
    ("b'", "b'"): F(7, 10),
}

EXAMPLE21_STATS = {
    "nu_x": F(1, 5), "nu_y": F(7, 2),
    "moment_xy": F(7, 10), "moment_yx": F(3, 10),
    "cov_xy": F(0), "cov_yx": F(-2, 5),
    "var_x": F(24, 25), "var_y": F(21, 4),
}

EXAMPLE22_STATS = {
    "nu_x": F(1, 5), "nu_y": F(7, 2),
    "moment_xy": F(3, 10), "moment_yx": F(3, 10),
    "cov_xy": F(-2, 5), "cov_yx": F(-2, 5),
    "var_x": F(24, 25), "var_y": F(21, 4),
}


class ReproReport(Record):
    """The checks of one repro id: one `ok` or `FAIL` line each, and the
    number that failed."""

    _fields = ("ident", "lines", "failures")

    def __init__(self, ident: str, lines: list | None = None, failures: int = 0):
        self.ident = ident
        self.lines = [] if lines is None else lines
        self.failures = failures

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def check(self, condition: bool, text: str) -> None:
        if condition:
            self.lines.append(f"ok   {text}")
        else:
            self.failures += 1
            self.lines.append(f"FAIL {text}")


def fixture_text(ident: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "fixtures", FIXTURES[ident])
    with open(path, "rb") as file:
        return file.read().decode("utf-8")


def _check_stats(report, stats, expected, r_xy: float, r_yx: float) -> None:
    for key, want in expected.items():
        got = getattr(stats, key)
        report.check(got == want, f"{key} = {fmt(got)} (expected {fmt(want)})")
    for key, want in (("r_xy", r_xy), ("r_yx", r_yx)):
        got = getattr(stats, key)
        ok = got is not None and math.isclose(got, want, abs_tol=CORRELATION_TOL)
        report.check(ok, f"{key} = {fmt_float(got)} "
                         f"(expected {fmt_float(want)})")


def _repro_21(report: ReproReport) -> None:
    model = realize_model(parse_model_text(fixture_text("2.1")))
    f = model.conds["f"]
    p = model.smaps["p"]
    x, y = model.observables["x"], model.observables["y"]

    derived = smap_from_conditional(f)
    for (u, v), want in sorted(EXAMPLE21_SMAP.items()):
        got = derived(u, v)
        report.check(got == want,
                     f"derived p({u}, {v}) = {fmt(got)} (expected {fmt(want)})")
    report.check(derived == p,
                 "conditional state determines the packaged s-map exactly")
    back = conditional_from_smap(p)
    report.check(back == f,
                 "s-map determines the packaged conditional state exactly")

    stats = compute_stats(p, x, y)
    r_yx = -0.4 / math.sqrt(5.04)
    _check_stats(report, stats, EXAMPLE21_STATS, 0.0, r_yx)
    report.check(not stats.matrix.is_symmetric,
                 "covariance matrix is asymmetric")
    report.check(stats.compatible is False, "x and y are not compatible")
    report.check(p.is_independent_pair("a", "b") is True,
                 "a is independent of b (product rule holds)")
    report.check(p.is_independent_pair("b", "a") is False,
                 "b is not independent of a (independence is one-sided)")


def _repro_22_printed(report: ReproReport) -> None:
    parsed = parse_model_text(fixture_text("2.2-printed"))
    logic = realize_logic(parsed)
    try:
        realize_smap(logic, parsed.table("smap", "p"))
    except S3Violation as exc:
        witnesses = {exc.a, exc.b, exc.c}
        report.check(witnesses == {"a", "b", "b'"},
                     f"additivity failure witnessed by {sorted(witnesses)}")
        report.check({exc.lhs, exc.rhs} == {F(2, 5), F(23, 50)},
                     f"sums disagree: {fmt(exc.lhs)} vs {fmt(exc.rhs)}")
    else:
        report.check(False, "validator accepted a table that is not additive")


def _repro_22_corrected(report: ReproReport) -> None:
    model = realize_model(parse_model_text(fixture_text("2.2-corrected")))
    p = model.smaps["p"]
    x, y = model.observables["x"], model.observables["y"]

    for (u, v) in EXAMPLE21_SMAP:
        got = p(u, v)
        report.check(got == p(v, u), f"p({u}, {v}) = p({v}, {u}) = {fmt(got)}")
    stats = compute_stats(p, x, y)
    r = -0.4 / math.sqrt(5.04)
    _check_stats(report, stats, EXAMPLE22_STATS, r, r)
    report.check(stats.matrix.is_symmetric, "covariance matrix is symmetric")
    report.check(stats.compatible is False,
                 "x and y are still not compatible")


RUNNERS = {
    "2.1": _repro_21,
    "2.2-printed": _repro_22_printed,
    "2.2-corrected": _repro_22_corrected,
}


def run_repro(ident: str) -> ReproReport:
    if ident not in RUNNERS:
        raise KeyError(f"unknown repro id {ident!r}; "
                       f"choose from {', '.join(REPRO_IDS)}")
    report = ReproReport(ident)
    RUNNERS[ident](report)
    return report
