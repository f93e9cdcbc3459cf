"""Spans and counters around the public functions of each mfstop layer.

The program carries no instrumentation of its own, so the traced run wraps
the functions it measures from the outside. A name bound by
`from .x import y` is a separate reference in every importing module, so a
wrapper replaces the function object wherever a loaded mfstop module holds
it. Spans stay in memory until the run ends; each records its name, start,
end, parent span and the id of the operation it belongs to. A layer's self
time is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.counts = defaultdict(int)
        self.op = None

    def wrap(self, name, fn, count=None):
        """Return fn recording one span per call; `count(args, kwargs, result)`
        yields (counter name, amount) pairs added after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op]
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    self.counts[key] += amount
            return result

        return traced

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mfstop" or mod_name.startswith("mfstop.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer) -> None:
    """Wrap the measured public functions of the loaded mfstop modules."""
    from mfstop import calculus, dynamics, measures, pde, policy, risk, rng, solver

    targets = [
        (rng, "normals", "rng.normals",
         lambda a, k, r: [("rng.normals.draws", r.size)]),
        (measures, "from_arrays", "measures.from_arrays",
         lambda a, k, r: [("measures.from_arrays.atoms", len(_arg(a, k, 2, "ws")))]),
        (dynamics, "advance_positions", "dynamics.advance_positions",
         lambda a, k, r: [("dynamics.advance_positions.rows", r.shape[0])]),
        (policy, "evaluate_policy", "policy.evaluate_policy", None),
        (solver, "solve_value", "solver.solve_value",
         lambda a, k, r: [("solver.evaluations", r.n_evaluations)]),
        (pde, "standard_os_pde", "pde.standard_os_pde",
         lambda a, k, r: [("pde.backward_steps", len(r.ts) - 1)]),
        (pde, "aggregate_value", "pde.aggregate_value", None),
        (risk, "mean_variance_dual", "risk.mean_variance_dual", None),
        (risk, "expected_shortfall_value", "risk.expected_shortfall_value", None),
        (calculus, "generator", "calculus.generator", None),
        (calculus, "estimate_derivatives", "calculus.estimate_derivatives", None),
    ]
    for module, attr, name, count in targets:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, count))
    stop_map = measures.StopMap
    stop_map.__call__ = tracer.wrap("measures.StopMap", stop_map.__call__)


def trace_problem(tracer: Tracer, problem):
    """The same Problem with its b, sigma and g callables traced."""
    return dataclasses.replace(
        problem,
        b=tracer.wrap("catalog.b", problem.b),
        sigma=tracer.wrap("catalog.sigma", problem.sigma),
        g=tracer.wrap("catalog.g", problem.g),
    )
