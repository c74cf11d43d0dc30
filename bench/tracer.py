"""Spans around qlogic's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function in every namespace that
binds it: the defining module, every module that imported it by name, the
package itself, and module-level dicts such as `cli.REALIZERS`.
`SMap.diagonal_state` is wrapped on the class.  `uninstall` puts the
originals back, so traced and untraced operations can alternate in one
process.

A span is (name, start, end, parent, op, raised, note).  Spans stay in
memory until `write` dumps them; `layer_metrics` turns them into the
per-layer numbers, where self time is a span's duration minus that of its
direct children.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

#: span name -> (module, attribute) of every traced function
FUNCTIONS = {
    "cli.main": [("cli", "main")],
    "repro.run_repro": [("repro", "run_repro")],
    "modelfile.parse": [("modelfile", "parse_model"), ("modelfile", "parse_model_text")],
    "modelfile.realize": [("modelfile", f"realize_{kind}") for kind in
                          ("model", "logic", "state", "cond", "smap", "observable")],
    "lattice.build_logic": [("lattice", "build_logic")],
    "states.validate_state": [("states", "validate_state")],
    "states.validate_conditional_state": [("states", "validate_conditional_state")],
    "states.conditional_system_generated": [("states", "conditional_system_generated")],
    "smaps.validate_smap": [("smaps", "validate_smap")],
    "smaps.conditional_from_smap": [("smaps", "conditional_from_smap")],
    "smaps.smap_from_conditional": [("smaps", "smap_from_conditional")],
    "observables.compute_stats": [("observables", "compute_stats")],
    "generators.gen": [("generators", "gen_mo"), ("generators", "gen_boolean"),
                       ("generators", "horizontal_sum")],
    "generators.random_smap": [("generators", "random_smap")],
    "generators.infer_blocks": [("generators", "infer_blocks")],
    "generators.roundtrip_suite": [("generators", "roundtrip_suite")],
    "generators.oracle_scan": [("generators", "oracle_scan")],
    "generators.distributivity_scan": [("generators", "distributivity_scan")],
    "generators.law_scan": [("generators", f"{kind}_law_scan") for kind in
                            ("smap", "independence", "statistics")]
                           + [("generators", "product_equivalence_scan")],
}

#: span name -> (module, class, method)
METHODS = {"smaps.diagonal_state": ("smaps", "SMap", "diagonal_state")}


def _parse_note(args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


class Tracer:
    def __init__(self, ql):
        self.ql = ql
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []
        self._op_objects = []   # keeps noted objects alive, so ids stay unique per op
        self._wrappers = {}     # id(original) -> (original, wrapper)
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                fn = getattr(getattr(ql, module), attr)
                note = _parse_note if attr == "parse_model_text" else None
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn, note))
        self._methods = []
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(getattr(ql, module), cls_name)
            fn = vars(cls)[attr]
            self._methods.append((cls, attr, fn, self._wrap(name, fn, self._note_self)))

    def _note_self(self, args, kwargs):
        self._op_objects.append(args[0])
        return id(args[0])

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False,
                    note(args, kwargs) if note else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def start_op(self, op: int) -> None:
        self.op = op
        self._op_objects.clear()

    def install(self) -> None:
        for module in self.ql.all_modules:
            namespaces = [vars(module)]
            namespaces += [v for v in vars(module).values() if type(v) is dict]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    hit = self._wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        ns[key] = hit[1]
                        self._patches.append((ns, key, value))
        for cls, attr, fn, wrapper in self._methods:
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patches):
            ns[key] = value
        self._patches.clear()
        for cls, attr, fn, wrapper in self._methods:
            setattr(cls, attr, fn)
        self._op_objects.clear()

    def write(self, path) -> None:
        """One tab-separated line per span, times in seconds."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\top\traised\tnote\n")
            for i, (name, start, end, parent, op, raised, note) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t"
                          f"{int(raised)}\t{'' if note is None else note}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_) in enumerate(spans)]


def _has_ancestor(spans, i, names) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, timed_ops, counted_ops) -> dict:
    """Per-layer numbers from recorded spans.

    `*_ms` metrics are self time per outermost call over the spans of
    `timed_ops`; `generators.law_scans_ms` is per roundtrip trial.  Counts
    are taken over `counted_ops` only, a fixed set of operations, so they
    repeat exactly from run to run: `*_calls` and `bytes_parsed` are per
    operation, the rest are the ratios their names give.  A layer that the
    workload never reaches reports 0.
    """
    self_time = _self_times(spans)
    busy = defaultdict(float)          # name -> self seconds
    outer = Counter()                  # name -> outermost calls
    rejected = [0.0, 0]                # validate_smap calls that raised
    counts = Counter()
    smaps = set()
    timed_trials = 0
    for i, (name, _, _, _, op, raised, note) in enumerate(spans):
        in_trial = name in ("generators.random_smap", "generators.infer_blocks") and \
            _has_ancestor(spans, i, ("generators.roundtrip_suite",))
        if op in timed_ops:
            if name == "smaps.validate_smap" and raised:
                rejected[0] += self_time[i]
                rejected[1] += 1
            else:
                busy[name] += self_time[i]
                if not _has_ancestor(spans, i, (name,)):
                    outer[name] += 1
            timed_trials += in_trial and name == "generators.random_smap"
        if op in counted_ops:
            counts[name] += 1
            if in_trial:
                counts["trial " + name] += 1
            if name == "modelfile.parse" and note:
                counts["bytes"] += note
            elif name == "smaps.diagonal_state":
                smaps.add((op, note))
            elif name == "states.validate_state" and _has_ancestor(
                    spans, i, ("observables.compute_stats",)):
                counts["stats validations"] += 1

    def per_call(name):
        return 1000 * _ratio(busy[name], outer[name])

    def per_op(name):
        return _ratio(counts[name], len(counted_ops))

    return {
        "cli.main_self_ms": per_call("cli.main"),
        "repro.run_repro_ms": per_call("repro.run_repro"),
        "modelfile.parse_ms": per_call("modelfile.parse"),
        "modelfile.realize_ms": per_call("modelfile.realize"),
        "modelfile.bytes_parsed": per_op("bytes"),
        "lattice.build_logic_ms": per_call("lattice.build_logic"),
        "lattice.build_logic_calls": per_op("lattice.build_logic"),
        "states.validate_state_ms": per_call("states.validate_state"),
        "states.validate_state_calls": per_op("states.validate_state"),
        "states.validate_conditional_state_ms": per_call("states.validate_conditional_state"),
        "states.conditional_system_generated_calls":
            per_op("states.conditional_system_generated"),
        "smaps.validate_smap_ms": per_call("smaps.validate_smap"),
        "smaps.validate_smap_reject_ms": 1000 * _ratio(rejected[0], rejected[1]),
        "smaps.conditional_from_smap_ms": per_call("smaps.conditional_from_smap"),
        "smaps.smap_from_conditional_ms": per_call("smaps.smap_from_conditional"),
        "smaps.diagonal_state_calls_per_smap":
            _ratio(counts["smaps.diagonal_state"], len(smaps)),
        "observables.compute_stats_ms": per_call("observables.compute_stats"),
        "observables.validations_per_stats":
            _ratio(counts["stats validations"], counts["observables.compute_stats"]),
        "generators.random_smap_ms": per_call("generators.random_smap"),
        "generators.law_scans_ms": 1000 * _ratio(busy["generators.law_scan"], timed_trials),
        "generators.oracle_scan_ms": per_call("generators.oracle_scan"),
        "generators.infer_blocks_per_trial":
            _ratio(counts["trial generators.infer_blocks"],
                   counts["trial generators.random_smap"]),
    }


#: units of the per-layer metrics above
UNITS = {name: ("bytes" if name.endswith("bytes_parsed") else
                "ms" if name.endswith("_ms") else
                "calls" if name.endswith("_calls") else "ratio")
         for name in layer_metrics([], set(), set())}
