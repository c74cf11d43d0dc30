"""Frozen outputs of the worked-models requests.

These are the paper's numbers for the bundled six-element models, written
down once for the benchmark and compared as values (fractions, booleans,
floats within 1e-9), never as message text.  `tests/test_bench.py`
re-derives them from the fixture files with plain `Fraction` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

#: element order of mo(2) as the fixtures declare it
MO2 = ("0", "1", "a", "a'", "b", "b'")

#: `derive example21.qlm --from cond --name f`: p(u, v), row u, column v
DERIVED_SMAP_21 = """
0    0     0     0      0      0
0    1     2/5   3/5    3/10   7/10
0    2/5   2/5   0      3/25   7/25
0    3/5   0     3/5    9/50   21/50
0    3/10  2/25  11/50  3/10   0
0    7/10  8/25  19/50  0      7/10
"""

#: `derive example21.qlm --from smap --name p`: f(u | v), one row per
#: conditioning event v in (1, a, a', b, b'), one column per u in MO2
DERIVED_COND_21 = """
0  1  2/5  3/5  3/10   7/10
0  1  1    0    1/5    4/5
0  1  0    1    11/30  19/30
0  1  2/5  3/5  1      0
0  1  2/5  3/5  0      1
"""
COND_MEMBERS = ("1", "a", "a'", "b", "b'")

_MOMENTS = ("nu_x", "nu_y", "moment_xy", "moment_yx", "cov_xy", "cov_yx",
            "var_x", "var_y")
_MATRIX = ("cov_matrix_00", "cov_matrix_01", "cov_matrix_10", "cov_matrix_11")
_JOINT = ("joint_xy(-1,0)", "joint_xy(-1,5)", "joint_xy(1,0)", "joint_xy(1,5)",
          "joint_yx(0,-1)", "joint_yx(0,1)", "joint_yx(5,-1)", "joint_yx(5,1)")
_INDEP = tuple(f"indep({u},{v})" for u in MO2[2:] for v in MO2[2:] if u != v)


def _block(moments, r_xy, r_yx, matrix, symmetric, joint, independent):
    block = dict(zip(_MOMENTS, moments.split()))
    block.update(r_xy=r_xy, r_yx=r_yx)
    block.update(zip(_MATRIX, matrix.split()))
    block.update(covariance_symmetric=symmetric, observables_compatible="false")
    block.update(zip(_JOINT, joint.split()))
    block.update((key, "true" if key in independent else "false") for key in _INDEP)
    return block


#: the key=value block of `stats example21.qlm --smap p --x x --y y`
STATS_21 = _block("1/5 7/2 7/10 3/10 0 -2/5 24/25 21/4",
                  "0.000000000", "-0.178174161", "24/25 0 -2/5 21/4", "false",
                  "3/25 7/25 9/50 21/50 2/25 11/50 8/25 19/50",
                  {"indep(a,b)", "indep(a,b')", "indep(a',b)", "indep(a',b')"})

#: ... and of the same request on example22_corrected.qlm
STATS_22C = _block("1/5 7/2 3/10 3/10 -2/5 -2/5 24/25 21/4",
                   "-0.178174161", "-0.178174161", "24/25 -2/5 -2/5 21/4", "true",
                   "2/25 8/25 11/50 19/50 2/25 11/50 8/25 19/50", set())

#: `validate` verdict per section of example21.qlm
SECTIONS_21 = ("cond f", "smap p", "observable x", "observable y")


def matrix(text: str, rows, cols) -> dict:
    """Parse a whitespace table into {(row label, column label): Fraction}."""
    lines = [line.split() for line in text.strip().splitlines()]
    return {(r, c): Fraction(v) for r, line in zip(rows, lines) for c, v in zip(cols, line)}


def derived_smap() -> dict:
    return matrix(DERIVED_SMAP_21, MO2, MO2)


def derived_cond() -> dict:
    """{(u, v): f(u | v)}"""
    by_condition = matrix(DERIVED_COND_21, COND_MEMBERS, MO2)
    return {(u, v): value for (v, u), value in by_condition.items()}


def value(text: str):
    """A machine-block value: exact fraction, boolean, or float."""
    if text in ("true", "false"):
        return text == "true"
    if "." in text:
        return float(text)
    return Fraction(text)


def same(got: dict, want: dict) -> bool:
    """Equal keys and equal values; floats within the documented 1e-9."""
    if got.keys() != want.keys():
        return False
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float):
            if not isinstance(g, float) or abs(g - w) > 1e-9:
                return False
        elif g != w or type(g) is not type(w):
            return False
    return True
