"""Run one qmap CLI command in a fresh interpreter and record what it cost.

Usage: python3 child.py RESULT_JSON TRACE CMD_ID -- QMAP_ARGS...

The parent starts this script with the BLAS thread variables already set
to 1, so numpy's thread pool is sized before numpy is imported. Only the
`qmap.cli.main` call is timed. With TRACE=1 the public functions of the
qmap modules, and numpy's eigendecomposition and SVD, are wrapped before
the timed call, and every call becomes an in-memory span that is written
out with the result.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# module -> public functions whose calls and self time the traced run reports
TRACED_FUNCTIONS = {
    "presets": ("resolve_state_spec",),
    "cli": ("main",),
    "qstate": ("partial_trace", "entropy", "conditional_entropy", "apply_unitary",
               "embed_operator", "tensor_power", "permute_factors", "trace_norm"),
    "regions": ("chat_from_state", "dhat_from_state", "main_region", "membership",
                "rate_split", "separate", "polymatroid_vertices",
                "contrapolymatroid_vertices", "check_set_function_properties"),
    "protocols": ("build_qmap_code", "pgm_decoder", "sequential_decoder",
                  "evaluate_code", "povm_success", "randomize",
                  "chained_randomization_experiment", "union_bound_check",
                  "haar_unitary", "pauli_family"),
}
# numpy.linalg function -> layer it is reported under
LINALG_LAYERS = {"eigvalsh": "linalg.eig", "eigh": "linalg.eig", "svd": "linalg.svd"}
CONSTRUCTED = "qstate.DensityMatrix.constructed"


def layer_names() -> list[str]:
    """Every span name the tracer can record, in report order."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED_FUNCTIONS.items() for fn in fns]
    return names + sorted(set(LINALG_LAYERS.values()))


class Tracer:
    """Wraps functions so each call appends [name, start, end, parent] to `spans`.

    `parent` is the index of the enclosing span, or -1. Self time is derived
    after the run, so a wrapped call costs two clock reads and an append.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.constructed = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each listed function in every qmap namespace that holds it.

        `regions`, `protocols` and `cli` import qstate names directly, so
        patching only the defining module would miss their calls.
        """
        import numpy.linalg
        import qmap
        import qmap.qstate

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "qmap" or name.startswith("qmap.")]
        for mod, fns in TRACED_FUNCTIONS.items():
            home = getattr(qmap, mod)
            for fn in fns:
                original = getattr(home, fn)
                wrapped = self.wrap(f"{mod}.{fn}", original)
                for ns in namespaces:
                    if getattr(ns, fn, None) is original:
                        setattr(ns, fn, wrapped)
        for fn, layer in LINALG_LAYERS.items():
            setattr(numpy.linalg, fn, self.wrap(layer, getattr(numpy.linalg, fn)))

        density = qmap.qstate.DensityMatrix
        validate = density.__post_init__

        def counted_post_init(obj):
            self.constructed += 1
            validate(obj)

        density.__post_init__ = counted_post_init

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls and self time (duration minus direct wrapped children) per name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in layer_names()}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - inner
        return out


def main() -> int:
    result_path, trace, cmd_id, sep, *qmap_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE CMD_ID -- QMAP_ARGS...")
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(f"BLAS threads not pinned to 1: {unpinned}")

    from qmap import cli

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    entered = time.monotonic()
    start = time.perf_counter()
    rc = cli.main(qmap_args)
    main_s = time.perf_counter() - start

    result = {
        "cmd": cmd_id,
        "rc": rc,
        "entered_monotonic": entered,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["layers"][CONSTRUCTED] = {"calls": tracer.constructed}
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
