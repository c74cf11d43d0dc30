"""qlogic benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload worked-models --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from
`src/qlogic` beside this directory, never from an installed copy.  With
`--trace 0` every request is timed with tracing off and the end-to-end
metrics are reported; with `--trace 1` whole rotations of the workload's
mix alternate between traced and untraced, and the per-layer metrics, the
tracing overhead and the scale ladder are reported.  The last line of
stdout is the JSON result; the line before it records the run's context.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import ladder
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: the reference loop's time on the machine the benchmark was defined on
#: (2 cores, Python 3.11.7); setup_s is set-up time at this speed
REFERENCE_S = 0.002
#: timed requests needed before a run may end, so that at least ten lie
#: above the 90th percentile
MIN_SAMPLES = 100
#: a run stops after this many seconds even short of MIN_SAMPLES
HARD_LIMIT_S = 150
#: traced rotations whose spans give the count metrics
COUNTED_ROTATIONS = 2

MODULES = ("cli", "repro", "modelfile", "lattice", "states", "smaps",
           "observables", "generators", "errors")


def import_qlogic():
    """Import qlogic afresh from SRC, dropping any copy already loaded."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "qlogic" or m.startswith("qlogic.")]:
        del sys.modules[name]
    package = importlib.import_module("qlogic")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qlogic was imported from {package.__file__}, not {SRC}")
    ql = SimpleNamespace()
    for name in MODULES:
        setattr(ql, name, importlib.import_module(f"qlogic.{name}"))
    ql.all_modules = [package] + [getattr(ql, name) for name in MODULES]
    return ql


def reference_loop() -> float:
    """Seconds for a fixed stdlib `Fraction` computation that touches no
    qlogic code; its drift shows how fast the machine ran."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    return perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Loop:
    """Runs one workload's operations and keeps the tallies.

    Each operation is preceded by one reference loop, so its latency can
    be divided by the machine speed of that moment: the mean of the
    reference loops just before and just after it."""

    def __init__(self, workload, trace):
        self.workload = workload
        self.trace = trace
        self.times = []          # seconds per operation, in order
        self.references = []     # reference seconds before each operation
        self.attempted = self.failed = 0
        self.first_failure = None

    def op(self) -> None:
        """Prepare, time and check one operation."""
        i = len(self.times)
        call, check = self.workload.prepare(i)
        if self.trace is not None:
            self.trace.start_op(i)
        self.references.append(reference_loop())
        start = perf_counter()
        try:
            result = call()
        except Exception:
            self.times.append(perf_counter() - start)
            failure = traceback.format_exc()
        else:
            self.times.append(perf_counter() - start)
            try:
                failure = None if check(result) else f"op {i}: a value differs from the expected one"
            except Exception:   # a reply too malformed to compare
                failure = traceback.format_exc()
        self.attempted += 1
        if failure:
            self.failed += 1
            self.first_failure = self.first_failure or failure

    def rotation(self) -> int:
        """Runs one rotation of the mix; returns the index of its first op."""
        first = len(self.times)
        for _ in range(self.workload.rotation):
            self.op()
        return first

    def relative(self, ops) -> list:
        """Latency of each op in `ops` in units of the reference loop."""
        refs = self.references
        return [self.times[i] / ((refs[i] + refs[i + 1]) / 2) for i in ops]


def measure(workload, seconds, trace=None):
    """Closed loop for `seconds`, in whole rotations of the workload's mix,
    after one untimed warm-up rotation.  With a tracer, odd rotations are
    traced.  Returns the loop and the (traced, first op) of each rotation."""
    loop = Loop(workload, trace)
    loop.rotation()
    rotations = []
    start = perf_counter()
    while True:
        traced = trace is not None and len(rotations) % 2 == 1
        if traced:
            trace.install()
        try:
            rotations.append((traced, loop.rotation()))
        finally:
            if traced:
                trace.uninstall()
        elapsed = perf_counter() - start
        enough = (len(rotations) >= 2 * COUNTED_ROTATIONS if trace else
                  len(rotations) * workload.rotation >= MIN_SAMPLES)
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and enough):
            loop.references.append(reference_loop())
            return loop, rotations


def percentile_90(samples) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def ops_of(rotations, rotation_len, traced):
    return [first + k for is_traced, first in rotations if is_traced == traced
            for k in range(rotation_len)]


def end_to_end(loop, ops, setups):
    relative = loop.relative(ops)
    return {
        "ops_per_ref": (len(relative) / sum(relative), "1/ref"),
        "latency_p50_ref": (statistics.median(relative), "ref"),
        "latency_p90_ref": (percentile_90(relative), "ref"),
        "setup_s": (REFERENCE_S * statistics.median(s / ref for s, ref in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ql, trace, loop, rotations, rotation_len, seed):
    traced = ops_of(rotations, rotation_len, True)
    untraced = ops_of(rotations, rotation_len, False)
    counted = set(traced[:COUNTED_ROTATIONS * rotation_len])
    layers = tracer.layer_metrics(trace.spans, set(traced), counted)
    metrics = {name: (value, tracer.UNITS[name]) for name, value in layers.items()}
    overhead = (statistics.median(loop.relative(traced))
                / statistics.median(loop.relative(untraced)) - 1)
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    rungs, failures = ladder.run(ql, seed)
    metrics.update((name, (value, "ms")) for name, value in rungs.items())
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qlogic" / "__init__.py").is_file():
        print(f"error: no qlogic sources at {SRC / 'qlogic'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        setups = []     # (seconds, reference seconds around them)
        for k in range(SETUP_REPEATS):
            before = reference_loop()
            start = perf_counter()
            ql = import_qlogic()
            workdir = Path(tmp, str(k))
            workdir.mkdir()
            workload = workload_cls(ql, workdir, args.seed)
            seconds = perf_counter() - start
            setups.append((seconds, (before + reference_loop()) / 2))

        trace = tracer.Tracer(ql) if args.trace else None
        loop, rotations = measure(workload, args.seconds, trace)

    attempted, failed = loop.attempted, loop.failed
    untraced = ops_of(rotations, workload.rotation, False)
    if trace is None:
        metrics = end_to_end(loop, untraced, setups)
    else:
        metrics, ladder_failures = per_layer(ql, trace, loop, rotations,
                                             workload.rotation, args.seed)
        attempted += len(ladder.SHAPES)
        failed += ladder_failures
        trace.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")
    if loop.first_failure:
        print(loop.first_failure, file=sys.stderr)

    absolute = [loop.times[i] for i in untraced]
    relative = loop.relative(untraced)
    p90 = percentile_90(relative)
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "loop": "closed", "clients": 1,
        "error_rate": failed / attempted, "setup_runs": len(setups),
        "setup_measured_s": statistics.median(seconds for seconds, _ in setups),
        "samples": len(absolute), "samples_above_p90": sum(r > p90 for r in relative),
        "ops_per_s": len(absolute) / sum(absolute),
        "latency_p50_ms": 1000 * statistics.median(absolute),
        "latency_p90_ms": 1000 * percentile_90(absolute),
        "reference_ms": 1000 * statistics.median(loop.references),
        "reference_runs": len(loop.references),
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
