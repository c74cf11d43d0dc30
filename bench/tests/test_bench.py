"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests

The end-to-end tests start the benchmark in a subprocess with a tiny
`--seconds`, so each run is as short as its minimum sample count allows.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import expected  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    """Runs the benchmark as the benchmark command does; returns
    (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result(workload, seed, trace):
    code, lines = bench(workload, seed, trace)
    if code != 0:
        raise AssertionError(f"{workload} exited {code}")
    return json.loads(lines[-1])


def canonical(value):
    """Comparable form of an operation's result; exceptions by class and
    witness attributes."""
    if isinstance(value, tuple):
        return tuple(canonical(v) for v in value)
    if isinstance(value, Exception):
        return type(value).__name__, sorted(
            (k, repr(v)) for k, v in vars(value).items() if k != "cause")
    return value


class TracedOutputs(unittest.TestCase):
    """Tracing must not change what the program returns."""

    def test_traced_and_untraced_operations_agree(self):
        ql = run.import_qlogic()
        trace = tracer.Tracer(ql)
        original = ql.smaps.validate_state
        with tempfile.TemporaryDirectory() as tmp:
            for name, cls in WORKLOADS.items():
                Path(tmp, name).mkdir()
                workload = cls(ql, Path(tmp, name), seed=5)
                for i in range(workload.rotation):
                    with self.subTest(workload=name, op=i):
                        call, check = workload.prepare(i)
                        plain = call()
                        trace.install()
                        try:
                            traced = call()
                        finally:
                            trace.uninstall()
                        self.assertTrue(check(plain))
                        self.assertTrue(check(traced))
                        self.assertEqual(canonical(plain), canonical(traced))
        self.assertIs(ql.smaps.validate_state, original)
        names = {span[0] for span in trace.spans}
        self.assertLessEqual({"cli.main", "smaps.diagonal_state", "modelfile.parse",
                              "generators.infer_blocks"}, names)


class Emitted(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            out = result("worked-models", 1, trace)
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            self.assertEqual(got, want, kind)

    def test_count_metrics_repeat(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("calls", "ratio", "bytes")]
        for workload, seeds in (("worked-models", (1, 2)), ("check-corpus", (1, 2)),
                                ("wide-lattices", (3, 3))):
            first, second = (result(workload, seed, 1)["metrics"] for seed in seeds)
            for name in counts:
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 f"{workload} {name}")
            if workload == "worked-models":
                self.assertEqual(first["observables.validations_per_stats"]["value"], 17)
            if workload == "check-corpus":
                self.assertEqual(first["generators.infer_blocks_per_trial"]["value"], 3)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            code, lines = bench("worked-models", 1, 0, cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class FrozenValues(unittest.TestCase):
    """The frozen worked-model values, re-derived from the fixture files
    with plain Fraction arithmetic."""

    @staticmethod
    def fixture(name):
        """{section header: {key tuple: Fraction}} of a bundled model file."""
        sections, current = {}, None
        for line in (ROOT / "src" / "qlogic" / "fixtures" / name).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                current = sections.setdefault(line[1:-1], {})
            elif "=" in line and current is not None:
                key, value = line.split("=")
                current[tuple(k.strip() for k in re.split(r"[,|]", key))] = Fraction(value.strip())
            elif "->" in line:
                value, event = line.split("->")
                current[Fraction(value.strip()),] = event.strip()
        return sections

    @staticmethod
    def complete(p):
        """Fill the 0 and 1 rows and columns of an s-map additively through
        the complement pair (a, a')."""
        p = dict(p)
        for e in expected.MO2:
            p["0", e] = p[e, "0"] = Fraction(0)
        for e in expected.MO2[2:]:
            p["1", e] = p["a", e] + p["a'", e]
            p[e, "1"] = p[e, "a"] + p[e, "a'"]
        p["1", "1"] = Fraction(1)
        return p

    def test_derived_tables(self):
        f = self.fixture("example21.qlm")["cond f"]
        for a in ("a", "a'", "b", "b'", "1"):
            f["0", a], f["1", a] = Fraction(0), Fraction(1)
        want = {(u, v): Fraction(0) if v == "0" else f[u, v] * f[v, "1"]
                for u in expected.MO2 for v in expected.MO2}
        self.assertEqual(expected.derived_smap(), want)

        p = self.complete(self.fixture("example21.qlm")["smap p"])
        want = {(u, v): p[u, v] / p[v, v] for u in expected.MO2 for v in expected.COND_MEMBERS}
        self.assertEqual(expected.derived_cond(), want)

    def test_stats(self):
        for name, block in (("example21.qlm", expected.STATS_21),
                            ("example22_corrected.qlm", expected.STATS_22C)):
            model = self.fixture(name)
            p = self.complete(model["smap p"])
            x = {t: e for (t,), e in model["observable x"].items()}
            y = {s: e for (s,), e in model["observable y"].items()}
            nu_x = sum(t * p[e, e] for t, e in x.items())
            nu_y = sum(s * p[e, e] for s, e in y.items())
            m_xy = sum(t * s * p[e, g] for t, e in x.items() for s, g in y.items())
            m_yx = sum(t * s * p[g, e] for t, e in x.items() for s, g in y.items())
            var_x = sum(t * t * p[e, e] for t, e in x.items()) - nu_x ** 2
            var_y = sum(s * s * p[e, e] for s, e in y.items()) - nu_y ** 2
            cov_xy, cov_yx = m_xy - nu_x * nu_y, m_yx - nu_x * nu_y
            want = {"nu_x": nu_x, "nu_y": nu_y, "moment_xy": m_xy, "moment_yx": m_yx,
                    "cov_xy": cov_xy, "cov_yx": cov_yx, "var_x": var_x, "var_y": var_y,
                    "cov_matrix_00": var_x, "cov_matrix_01": cov_xy,
                    "cov_matrix_10": cov_yx, "cov_matrix_11": var_y,
                    "r_xy": float(cov_xy) / float(var_x * var_y) ** 0.5,
                    "r_yx": float(cov_yx) / float(var_x * var_y) ** 0.5,
                    "covariance_symmetric": cov_xy == cov_yx,
                    "observables_compatible": False}
            for t, e in x.items():
                for s, g in y.items():
                    want[f"joint_xy({t},{s})"] = p[e, g]
                    want[f"joint_yx({s},{t})"] = p[g, e]
            events = list(x.values()) + list(y.values())
            for u in events:
                for v in events:
                    if u != v:
                        want[f"indep({u},{v})"] = p[u, v] == p[u, u] * p[v, v]
            got = {k: expected.value(v) for k, v in block.items()}
            self.assertTrue(expected.same(got, want), name)


if __name__ == "__main__":
    unittest.main()
