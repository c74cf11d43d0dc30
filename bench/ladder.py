"""Scale ladder: each layer once per lattice size, traced runs only.

`hs-5-5` (62 elements) takes over a second per pipeline, too slow for an
end-to-end workload, so its layers are timed here, one call each, with
tracing off.
"""

from __future__ import annotations

import traceback
from time import perf_counter

import models

SHAPES = (models.mo(2), models.mo(4), models.mo(8), models.boolean(4), models.hs(5, 5))
STEPS = ("parse_model_text", "build_logic", "realize_model", "validate_smap",
         "conditional_from_smap", "smap_from_conditional")


def names():
    return [f"ladder.{step}_ms.{shape.label}" for shape in SHAPES for step in STEPS]


def run(ql, seed):
    """Returns ({metric: ms}, number of shapes whose results were wrong)."""
    out = {}
    failures = 0
    for shape in SHAPES:
        def timed(step, fn, *args):
            start = perf_counter()
            value = fn(*args)
            out[f"ladder.{step}_ms.{shape.label}"] = 1000 * (perf_counter() - start)
            return value

        logic = shape.build(ql.generators)
        model = models.generate(models.Structure(shape), logic.names,
                                f"ladder-{seed}-{shape.label}")
        mf, smaps = ql.modelfile, ql.smaps
        try:
            parsed = timed("parse_model_text", mf.parse_model_text, model.text)
            built = timed("build_logic", ql.lattice.build_logic, parsed.elements,
                          parsed.order, parsed.complements)
            realized = timed("realize_model", mf.realize_model, parsed)
            p = timed("validate_smap", smaps.validate_smap, logic, model.smap)
            f = timed("conditional_from_smap", smaps.conditional_from_smap, p)
            p2 = timed("smap_from_conditional", smaps.smap_from_conditional, f)
        except Exception:
            traceback.print_exc()
            failures += 1
            continue
        failures += not (built == logic and realized.logic == logic
                         and realized.smaps["p"].values == model.smap
                         and f.values == model.cond and p2.values == model.smap)
    return out, failures
