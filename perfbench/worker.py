"""One workload in one fresh process: a closed loop of operations from one caller.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and every
numeric library pinned to one thread. Each operation starts only after the
previous one has returned and been checked. One untimed, uncounted call of
the workload's first operation comes first, so that lazy imports and first
allocations are paid before timing. Untraced, the loop then works through
whole rounds and stops at the round boundary nearest to --seconds; traced,
it runs a fixed number of rounds so that its counts repeat exactly for a
seed. The last line on stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
import traceback
import warnings

import workloads

TRACE_ROUNDS = {"search": 1, "obstacle": 3, "residual": 2}

SPAN_LAYERS = (
    "rng.normals",
    "measures.from_arrays",
    "measures.StopMap",
    "dynamics.advance_positions",
    "catalog.b",
    "catalog.sigma",
    "catalog.g",
    "policy.evaluate_policy",
    "solver.solve_value",
    "pde.standard_os_pde",
    "pde.aggregate_value",
    "risk.mean_variance_dual",
    "risk.expected_shortfall_value",
    "calculus.generator",
    "calculus.estimate_derivatives",
    "calculus.u",
)
COUNTERS = (
    "rng.normals.draws",
    "measures.from_arrays.atoms",
    "dynamics.advance_positions.rows",
    "solver.evaluations",
    "pde.backward_steps",
)


def layer_metrics(tracer, import_s: float) -> dict:
    """Every per-layer metric, zero for layers the workload leaves idle."""
    self_s = tracer.self_times()
    out = {"setup.import_s": (import_s, "s")}
    for name in SPAN_LAYERS:
        out[name + ".calls"] = (tracer.counts[name + ".calls"], "count")
        out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTERS:
        out[name] = (tracer.counts[name], "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import mfstop.cli  # noqa: F401  (the import every CLI call pays)

    import_s = time.perf_counter() - t0
    # some searches exhaust their refinement budget; the value is still valid
    warnings.filterwarnings("ignore", message="policy search budget exhausted")

    rounds = workloads.rounds(args.workload, args.seed)
    first_round = next(rounds)
    workloads.Runner().prepare(first_round[0])[0]()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = workloads.Runner(tracer)

    op_times = []
    attempted = failed = 0
    unexpected = []
    loop_start = time.perf_counter()
    for n_round, ops in enumerate(itertools.chain([first_round], rounds)):
        if args.trace:
            if n_round == TRACE_ROUNDS[args.workload]:
                break
        elif n_round:
            elapsed = time.perf_counter() - loop_start
            # one more round would end further from --seconds than stopping now
            if elapsed + 0.5 * elapsed / n_round >= args.seconds:
                break
        for op in ops:
            attempted += 1
            call, check = runner.prepare(op)
            if tracer is not None:
                tracer.op = attempted
                call = tracer.wrap("op." + op.kind, call)
            try:
                start = time.perf_counter()
                result = call()
                op_times.append(time.perf_counter() - start)
                ok, detail = check(result)
            except Exception:
                ok, detail = False, traceback.format_exc(limit=3)
            if not ok:
                failed += 1
                if op.known_fault is None:
                    unexpected.append(f"{op.kind} {op.args}: {detail}")

    for line in unexpected:
        print("FAILED " + line, file=sys.stderr)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "correct": not unexpected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "op_times": op_times,
    }
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer, import_s)
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                         "metrics": summary["layers"]})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
