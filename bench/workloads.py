"""The three benchmark workloads.

Each is a closed loop: one client in one thread sends the next request only
after the previous reply, as a CLI user or a script does.  A workload is
built once per set-up (fixtures written, lattices built) and then hands out
operations by index; `rotation` operations form one full cycle of its mix.

`prepare(i)` runs untimed and returns `(call, check)`: `call()` is the timed
request and returns what the program produced, `check(result)` compares it
with values the benchmark knows independently and returns True when every
one matches.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from fractions import Fraction

import expected
import models


def run_cli(cli, argv):
    """In-process `qlogic ARGV`: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _table(output: str, sep: str) -> dict:
    """The `u <sep> v = value` lines of a derived section."""
    table = {}
    for line in output.splitlines()[1:]:
        key, _, value = line.partition(" = ")
        u, _, v = key.partition(sep)
        table[u.strip(), v.strip()] = Fraction(value)
    return table


def _verdicts(output: str) -> dict:
    """`kind name: ok|INVALID` lines of `validate`, as {section: verdict}."""
    found = re.findall(r"^(logic|\w+ \S+): (ok|INVALID)\b", output, re.M)
    return dict(found)


def _machine_block(output: str) -> dict:
    block = output.split("\n\n", 1)[1]
    return dict((k, expected.value(v)) for k, _, v in
                (line.partition("=") for line in block.split()))


# ---------------------------------------------------------------------------


class WorkedModels:
    """Nine CLI requests on the bundled mo(2) models, repeated as a user
    reproducing the paper's tables would repeat them."""

    name = "worked-models"
    rotation = 9

    FIXTURES = {"2.1": "example21.qlm", "2.2-corrected": "example22_corrected.qlm"}

    def __init__(self, ql, workdir, seed):
        self.ql = ql
        paths = {}
        for ident, filename in self.FIXTURES.items():
            text = ql.repro.fixture_text(ident)
            paths[ident] = workdir / filename
            paths[ident].write_text(text, encoding="utf-8")
        paths["perturbed"] = workdir / "example21_perturbed.qlm"
        paths["perturbed"].write_text(self._perturb(paths["2.1"].read_text(), seed),
                                      encoding="utf-8")

        f21, f22, bad = (str(paths[k]) for k in ("2.1", "2.2-corrected", "perturbed"))
        sections_ok = dict.fromkeys(("logic",) + expected.SECTIONS_21, "ok")
        smap = expected.derived_smap()
        cond = expected.derived_cond()
        stats21 = {k: expected.value(v) for k, v in expected.STATS_21.items()}
        stats22 = {k: expected.value(v) for k, v in expected.STATS_22C.items()}
        self.requests = [
            (["repro", "2.1"], self._repro_ok),
            (["repro", "2.2-printed"], self._repro_ok),
            (["repro", "2.2-corrected"], self._repro_ok),
            (["validate", f21], lambda r: r[0] == 0 and _verdicts(r[1]) == sections_ok),
            (["validate", bad], lambda r: r[0] == 1 and _verdicts(r[1])
             == {**sections_ok, "smap p": "INVALID"}),
            (["derive", f21, "--from", "cond", "--name", "f"],
             lambda r: r[0] == 0 and _table(r[1], ",") == smap),
            (["derive", f21, "--from", "smap", "--name", "p"],
             lambda r: r[0] == 0 and _table(r[1], "|") == cond),
            (["stats", f21, "--smap", "p", "--x", "x", "--y", "y"],
             lambda r: r[0] == 0 and expected.same(_machine_block(r[1]), stats21)),
            (["stats", f22, "--smap", "p", "--x", "x", "--y", "y"],
             lambda r: r[0] == 0 and expected.same(_machine_block(r[1]), stats22)),
        ]

    @staticmethod
    def _perturb(text: str, seed: int) -> str:
        """Raise one cross-block s-map entry of example 2.1 by k/100.  Each
        row sum over a complement pair then disagrees with the completed
        row at 1, so the s-map section must be rejected."""
        rng = random.Random(f"worked-models-{seed}")
        u, v = rng.choice([("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"),
                           ("b", "a"), ("b", "a'"), ("b'", "a"), ("b'", "a'")])
        pattern = re.compile(rf"^{re.escape(u)} , {re.escape(v)} = (\S+)$", re.M)
        old = Fraction(pattern.search(text).group(1))
        new = old + Fraction(rng.randint(1, 5), 100)
        return pattern.sub(f"{u} , {v} = {models.fmt(new)}", text, count=1)

    @staticmethod
    def _repro_ok(result) -> bool:
        code, output = result
        counts = re.findall(r"\((\d+)/(\d+) checks passed\)", output)
        return code == 0 and len(counts) == 1 and counts[0][0] == counts[0][1] != "0"

    def prepare(self, i):
        argv, check = self.requests[i % self.rotation]
        return (lambda: run_cli(self.ql.cli, argv)), check


class CheckCorpus:
    """`qlogic check FAMILY N --trials 5 --seed S` with a fresh S per
    request, rotating over four small lattices."""

    name = "check-corpus"
    FAMILIES = (("mo", 2), ("mo", 3), ("mo", 4), ("boolean", 3))
    rotation = len(FAMILIES)
    TRIALS = 5

    def __init__(self, ql, workdir, seed):
        self.ql = ql
        constructors = {"mo": ql.generators.gen_mo, "boolean": ql.generators.gen_boolean}
        self.sizes = [len(constructors[family](n)) for family, n in self.FAMILIES]
        self.rng = random.Random(f"check-corpus-{seed}")

    def prepare(self, i):
        family, n = self.FAMILIES[i % self.rotation]
        size = self.sizes[i % self.rotation]
        argv = ["check", family, str(n), "--trials", str(self.TRIALS),
                "--seed", str(self.rng.getrandbits(32))]

        def check(result):
            code, output = result
            pairs = re.findall(r"(\d+)\^2 pairs", output)
            trials = re.findall(r"(\d+)/(\d+) trials passed", output)
            return (code == 0 and pairs == [str(size)]
                    and trials == [(str(self.TRIALS), str(self.TRIALS))])

        return (lambda: run_cli(self.ql.cli, argv)), check


class WideLattices:
    """Parse, realize, convert both ways and summarize a freshly generated
    model on lattices of 16 to 44 elements, then reject a perturbed copy
    of its s-map."""

    name = "wide-lattices"
    SHAPES = (models.mo(8), models.boolean(4), models.hs(3, 3, 3), models.hs(3, 4),
              models.hs(4, 4, 4))
    rotation = len(SHAPES)

    def __init__(self, ql, workdir, seed):
        self.ql = ql
        self.seed = seed
        self.lattices = []
        for shape in self.SHAPES:
            logic = shape.build(ql.generators)
            structure = models.Structure(shape)
            if set(structure.names) != set(logic.names):
                raise RuntimeError(f"{shape.label}: element names differ from qlogic's")
            self.lattices.append((logic, structure))

    def prepare(self, i):
        logic, structure = self.lattices[i % self.rotation]
        model = models.generate(structure, logic.names, f"wide-{self.seed}-{i}",
                                tag=f"op {i}")
        return (lambda: pipeline(self.ql, model)), (lambda r: check_pipeline(
            self.ql, logic, model, r))


def pipeline(ql, model):
    """The timed wide-lattices request."""
    mf, smaps = ql.modelfile, ql.smaps
    parsed = mf.parse_model_text(model.text)
    realized = mf.realize_model(parsed)
    p, f = realized.smaps["p"], realized.conds["f"]
    from_cond = smaps.smap_from_conditional(f)
    from_smap = smaps.conditional_from_smap(p)
    stats = ql.observables.compute_stats(p, realized.observables["x"],
                                         realized.observables["y"])
    cell, value = model.perturbed
    bad = dict(parsed.smaps["p"])
    bad[cell] = value
    try:
        mf.realize_smap(realized.logic, bad)
    except ql.errors.ValidationError as exc:
        rejection = exc
    else:
        rejection = None
    return realized, from_cond, from_smap, stats, rejection


def check_pipeline(ql, logic, model, result) -> bool:
    realized, from_cond, from_smap, stats, rejection = result
    nonzero = {e for e in logic.names if e != models.ZERO}
    return (realized.logic == logic
            and realized.states["m"].values == model.state
            and realized.conds["f"].values == model.cond
            and realized.conds["f"].cs.members == nonzero
            and realized.smaps["p"].values == model.smap
            and realized.observables["x"].assignment == model.x
            and realized.observables["y"].assignment == model.y
            and from_cond.values == model.smap
            and from_smap.values == model.cond
            and from_smap.cs.members == nonzero
            and all(getattr(stats, k) == v for k, v in models.expected_stats(model).items())
            and witnesses_cell(ql, logic, rejection, model.perturbed[0]))


def witnesses_cell(ql, logic, exc, cell) -> bool:
    """The rejection is an additivity failure whose witnesses are elements
    of the lattice, and one of the table cells it compares is the perturbed
    one: the unperturbed table is additive, so no other cell can fail."""
    if not isinstance(exc, ql.errors.S3Violation):
        return False
    a, b, c = exc.a, exc.b, exc.c
    if not {a, b, c} <= set(logic.names):
        return False
    ab = logic.join(a, b)
    if exc.side == "left":
        cells = {(ab, c), (a, c), (b, c)}
    else:
        cells = {(c, ab), (c, a), (c, b)}
    return cell in cells and exc.lhs != exc.rhs


WORKLOADS = {w.name: w for w in (WorkedModels, CheckCorpus, WideLattices)}
