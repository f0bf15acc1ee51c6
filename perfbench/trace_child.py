"""Run one ``liequant`` CLI job with per-layer tracing wrapped around it.

Usage: python3 perfbench/trace_child.py TRACE_OUT JOB_ID -- CLI_ARGS...

The wrappers live here, outside the program: every public function named in
``SPANS`` is replaced at its defining module and at every ``liequant`` module
that imported it by name, so ``from .unknowns import solve_equations`` style
call sites are traced too.  Coarse layer boundaries record a span each
(name, start, end, parent span, job id), kept in memory and written to
TRACE_OUT when the job ends.  Hot calls (``Envelope.k_mul``, ``ElSeries.mul``,
the graded product) record only call counts and times, and the hottest tiny
calls (``Envelope.straighten``, the graded slot product) only counts and
cache hits, so the trace stays small and its overhead low.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (group, module, function): the group names the layer metric the time feeds.
SPANS = [
    ("cli.classical", "liequant.cli", "run_classical_checks"),
    ("schema.parse", "liequant.schema", "parse_document"),
    ("schema.parse", "liequant.schema", "series_from_json"),
    ("solvers.solve", "liequant.hquant.solvers", "solve_coproduct"),
    ("solvers.solve", "liequant.hquant.solvers", "solve_twist_pair"),
    ("solvers.solve", "liequant.hquant.solvers", "solve_composition_v"),
    ("solvers.solve", "liequant.hquant.solvers", "solve_j_conjugator"),
    ("linsolve", "liequant.linsolve", "lin_solve"),
    ("gammaq.assemble", "liequant.hquant.gammaq", "assemble_gamma_quantization"),
    ("gammaq.axioms", "liequant.hquant.gammaq", "bialgebra_axiom_defects"),
    ("pipeline.coherence", "liequant.hquant.pipeline", "gamma_v_cocycle_defects"),
]

# (group, class path, method): timed counters without spans.
TIMED = [
    ("envelope.k_mul", "liequant.envelope.Envelope", "k_mul"),
    ("core.series_mul", "liequant.hquant.core.ElSeries", "mul"),
    ("gammaq.mul", "liequant.hquant.gammaq.GammaQuantization", "mul"),
    ("gammaq.coproduct", "liequant.hquant.gammaq.GammaQuantization", "coproduct"),
    ("gammaq.coproduct", "liequant.hquant.gammaq.GammaQuantization", "coproduct_leg"),
]


class Tracer:
    """Spans, call counts, inclusive and self times for one job."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []
        # one [child seconds, span id] frame per active instrumented call
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def _enclosing_span(self):
        return self.stack[-1][1] if self.stack else None

    def wrap(self, group: str, name: str, fn, span: bool):
        stack, calls, self_s, incl_s, depth = (self.stack, self.calls, self.self_s,
                                               self.incl_s, self.depth)
        tracer = self

        def traced(*args, **kwargs):
            span_id = None
            if span:
                span_id = len(tracer.spans)
                tracer.spans.append([span_id, name, 0.0, 0.0, tracer._enclosing_span(),
                                     tracer.job_id])
            frame = [0.0, span_id if span else (stack[-1][1] if stack else None)]
            stack.append(frame)
            depth[group] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                elapsed = t1 - t0
                stack.pop()
                depth[group] -= 1
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if not depth[group]:
                    incl_s[group] += elapsed
                if span:
                    record = tracer.spans[span_id]
                    record[2], record[3] = t0, t1
                    if name == "lin_solve" and depth["solvers.solve"]:
                        incl_s["linsolve.in_solvers"] += elapsed

        return traced

    def dump(self) -> dict:
        return {
            "job": self.job_id,
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }


def _resolve(path: str):
    import importlib

    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module), attr)


def install(tracer: Tracer) -> None:
    """Patch every traced function at all of its ``liequant`` import sites."""
    import liequant.cli  # noqa: F401  (imports every traced module)

    modules = [m for n, m in sys.modules.items() if n.startswith("liequant") and m]
    for group, module, func in SPANS:
        original = getattr(sys.modules[module], func)
        wrapper = tracer.wrap(group, func, original, span=True)
        for mod in modules:
            if getattr(mod, func, None) is original:
                setattr(mod, func, wrapper)

    for group, cls_path, method in TIMED:
        cls = _resolve(cls_path)
        name = f"{cls.__name__}.{method}"
        setattr(cls, method, tracer.wrap(group, name, getattr(cls, method), span=False))

    counts = tracer.counts
    envelope = _resolve("liequant.envelope.Envelope")
    k_mul = envelope.k_mul
    straighten = envelope.straighten

    def k_mul_counted(self, a, b, k):
        counts["k_mul_pairs"] += len(a.data) * len(b.data)
        return k_mul(self, a, b, k)

    def straighten_counted(self, word):
        counts["straighten_calls"] += 1
        if word in self._straight:
            counts["straighten_hits"] += 1
        return straighten(self, word)

    envelope.k_mul = k_mul_counted
    envelope.straighten = straighten_counted

    gq = _resolve("liequant.hquant.gammaq.GammaQuantization")
    slot_product = gq._slot_product

    def slot_product_counted(self, mg_a, mg_b):
        counts["slot_calls"] += 1
        if (mg_a, mg_b) in self._slot_cache:
            counts["slot_hits"] += 1
        return slot_product(self, mg_a, mg_b)

    gq._slot_product = slot_product_counted

    lin_module = sys.modules["liequant.linsolve"]
    timed_lin = lin_module.lin_solve

    def lin_solve_counted(system, *args, **kwargs):
        counts["lin_nnz"] += sum(len(row) for row in system.rows)
        counts["lin_max_rows"] = max(counts["lin_max_rows"], system.nrows)
        return timed_lin(system, *args, **kwargs)

    for mod in modules:
        if getattr(mod, "lin_solve", None) is timed_lin:
            setattr(mod, "lin_solve", lin_solve_counted)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_child.py TRACE_OUT JOB_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, job_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(job_id)
    install(tracer)
    from liequant.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
