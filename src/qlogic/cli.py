"""Command-line front end.

Exit codes are part of the contract: 0 for success (including an expected
failure reproduced by `repro`), 1 when a model or check fails, 2 for
unreadable input, bad usage or a standard output closed early.  All
machine-readable output goes to stdout as `key=value` lines with exact
fractions; correlations are the only floats, printed to nine places.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ModelFileError, QLogicError
from .generators import (
    distributivity_scan,
    gen_boolean,
    gen_mo,
    infer_blocks,
    oracle_scan,
    random_smap,
    roundtrip_suite,
)
from .modelfile import (
    REALIZERS,
    emit_cond,
    emit_logic,
    emit_smap,
    emit_state,
    kind_attr,
    parse_model,
    realize_logic,
    realize_observable,
    realize_smap,
)
from .observables import compute_stats
from .rational import fmt, fmt_float
from .repro import REPRO_IDS, run_repro
from .smaps import conditional_from_smap, smap_from_conditional

FAMILIES = {"boolean": gen_boolean, "mo": gen_mo}


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_file(path):
    """Shared front half of every file-reading command; ModelFileError,
    OSError and bytes that are not UTF-8 are usage-level failures (exit 2).
    """
    try:
        return parse_model(path), None
    except OSError as exc:
        return None, _fail(str(exc), 2)
    except (ModelFileError, UnicodeDecodeError) as exc:
        return None, _fail(f"{path}: {exc}", 2)


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    parsed, code = _parse_file(args.file)
    if parsed is None:
        return code
    try:
        logic = realize_logic(parsed)
    except QLogicError as exc:
        print(f"logic: INVALID ({exc})")
        return 1
    print(f"logic: ok ({len(logic)} elements)")
    bad = 0
    for kind, name in parsed.sections:
        try:
            REALIZERS[kind](logic, parsed.table(kind, name))
        except QLogicError as exc:
            bad += 1
            print(f"{kind} {name}: INVALID ({exc})")
        else:
            print(f"{kind} {name}: ok")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# derive


def cmd_derive(args) -> int:
    parsed, code = _parse_file(args.file)
    if parsed is None:
        return code
    kind = args.source
    if args.name not in getattr(parsed, kind_attr(kind)):
        return _fail(f"no [{kind} {args.name}] section in {args.file}", 2)
    try:
        logic = realize_logic(parsed)
        obj = REALIZERS[kind](logic, parsed.table(kind, args.name))
        lines = (emit_smap(args.name, smap_from_conditional(obj)) if kind == "cond"
                 else emit_cond(args.name, conditional_from_smap(obj)))
    except QLogicError as exc:
        return _fail(str(exc), 1)
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# stats


def _machine_block(stats) -> list:
    lines = []
    for key in ("nu_x", "nu_y", "moment_xy", "moment_yx",
                "cov_xy", "cov_yx", "var_x", "var_y"):
        lines.append(f"{key}={fmt(getattr(stats, key))}")
    for key in ("r_xy", "r_yx"):
        value = getattr(stats, key)
        if value is not None:
            lines.append(f"{key}={fmt_float(value)}")
    for i, row in enumerate(stats.matrix.entries):
        for j, value in enumerate(row):
            lines.append(f"cov_matrix_{i}{j}={fmt(value)}")
    lines.append(f"covariance_symmetric="
                 f"{'true' if stats.matrix.is_symmetric else 'false'}")
    lines.append(f"observables_compatible="
                 f"{'true' if stats.compatible else 'false'}")
    for t in stats.joint_xy.x_spectrum:
        for s in stats.joint_xy.y_spectrum:
            lines.append(f"joint_xy({fmt(t)},{fmt(s)})="
                         f"{fmt(stats.joint_xy.table[t, s])}")
    for s in stats.joint_yx.x_spectrum:
        for t in stats.joint_yx.y_spectrum:
            lines.append(f"joint_yx({fmt(s)},{fmt(t)})="
                         f"{fmt(stats.joint_yx.table[s, t])}")
    for (u, v), flag in sorted(stats.independence.items()):
        lines.append(f"indep({u},{v})={'true' if flag else 'false'}")
    return lines


def _print_joint(title: str, joint) -> None:
    print(f"{title}:")
    cells = [[""] + [fmt(s) for s in joint.y_spectrum]]
    for t in joint.x_spectrum:
        cells.append([fmt(t)] + [fmt(joint.table[t, s])
                                 for s in joint.y_spectrum])
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    for row in cells:
        print("  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def cmd_stats(args) -> int:
    parsed, code = _parse_file(args.file)
    if parsed is None:
        return code
    for kind, name in (("smap", args.smap), ("observable", args.x),
                       ("observable", args.y)):
        if name not in getattr(parsed, kind_attr(kind)):
            return _fail(f"no [{kind} {name}] section in {args.file}", 2)
    try:
        logic = realize_logic(parsed)
        p = realize_smap(logic, parsed.table("smap", args.smap))
        x = realize_observable(logic, parsed.table("observable", args.x))
        y = realize_observable(logic, parsed.table("observable", args.y))
    except QLogicError as exc:
        return _fail(str(exc), 1)
    stats = compute_stats(p, x, y)

    x_vals = ", ".join(fmt(t) for t in x.spectrum)
    y_vals = ", ".join(fmt(s) for s in y.spectrum)
    print(f"observable {args.x}: values {x_vals}")
    print(f"observable {args.y}: values {y_vals}")
    _print_joint(f"joint of ({args.x}, {args.y})", stats.joint_xy)
    _print_joint(f"joint of ({args.y}, {args.x})", stats.joint_yx)
    print(f"compatible: {'yes' if stats.compatible else 'no'}")
    print(f"mean {args.x} = {fmt(stats.nu_x)}, "
          f"mean {args.y} = {fmt(stats.nu_y)}")
    print(f"covariance matrix rows: "
          f"[{fmt(stats.matrix.xx)}, {fmt(stats.matrix.xy)}] "
          f"[{fmt(stats.matrix.yx)}, {fmt(stats.matrix.yy)}]")
    for note in stats.notes:
        print(f"warning: {note}")
    print()
    print("\n".join(_machine_block(stats)))
    return 0


# ---------------------------------------------------------------------------
# gen / check


def _family_lattice(args, sampled: bool):
    """The lattice `args` names, or an exit code; with `sampled`, it must
    also be a horizontal sum the seeded sampler can draw on."""
    try:
        logic = FAMILIES[args.family](args.n)
        if sampled:
            infer_blocks(logic)
        return logic, None
    except QLogicError as exc:
        return None, _fail(str(exc), 2)


def cmd_gen(args) -> int:
    logic, code = _family_lattice(args, args.seed is not None)
    if logic is None:
        return code
    chunks = [emit_logic(logic)]
    if args.seed is not None:
        p = random_smap(logic, args.seed)
        chunks.append(emit_state("m", p.diagonal_state()))
        chunks.append(emit_smap("p", p))
    print("\n\n".join("\n".join(chunk) for chunk in chunks))
    return 0


def cmd_check(args) -> int:
    logic, code = _family_lattice(args, True)
    if logic is None:
        return code
    failures = 0

    mismatch = oracle_scan(logic)
    if mismatch is None:
        print(f"compatibility oracle: identity and witness search agree "
              f"on all {len(logic)}^2 pairs")
    else:
        failures += 1
        print(f"compatibility oracle: FAIL ({mismatch})")

    flaw = distributivity_scan(logic)
    if flaw is None:
        print("distributivity over compatible joins: ok")
    else:
        failures += 1
        print(f"distributivity over compatible joins: FAIL ({flaw})")

    report = roundtrip_suite(logic, args.trials, args.seed)
    print(f"roundtrips and laws: {report.passed}/{report.trials} trials passed")
    if not report.ok:
        failures += 1
        print(f"first failure: {report.first_failure}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# repro


def cmd_repro(args) -> int:
    try:
        report = run_repro(args.id)
    except KeyError as exc:
        return _fail(exc.args[0], 2)
    for line in report.lines:
        print(line)
    verdict = "ok" if report.ok else "FAIL"
    print(f"repro {args.id}: {verdict} "
          f"({len(report.lines) - report.failures}/{len(report.lines)} "
          f"checks passed)")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlogic",
        description="Exact states, conditional states, and s-maps on "
                    "finite quantum logics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every section of a model file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("derive",
                       help="convert a conditional state to an s-map or back")
    p.add_argument("file")
    p.add_argument("--from", dest="source", required=True,
                   choices=("cond", "smap"))
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("stats",
                       help="joint distributions, moments, covariance, "
                            "correlation for two observables")
    p.add_argument("file")
    p.add_argument("--smap", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen", help="emit a stock lattice as a model file")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int,
                   help="also emit a seeded random state and s-map")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check",
                       help="run seeded roundtrips, law checks, and the "
                            "brute-force compatibility oracle")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repro", help="rerun a packaged worked example")
    p.add_argument("id", metavar="id",
                   help=f"one of: {', '.join(REPRO_IDS)}")
    p.set_defaults(func=cmd_repro)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one serves the whole process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        print(end="", flush=True)  # a closed pipe fails here, not at exit
    except BrokenPipeError:  # the reader left; the flushes at exit go nowhere
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
            try:
                _fail("standard output closed before all output was written", 2)
            except BrokenPipeError:  # standard error went into the same pipe
                os.dup2(devnull.fileno(), sys.stderr.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
