"""The benchmark's hold on the program: one operation of each perfbench kind, untraced and traced.

perfbench reaches into mfstop by name: `SearchConfig(threads=)`,
`measures.from_arrays`, `policy.evaluate_policy` and more. Running its
operations here makes a change that drops one of those names or keywords fail
the tests, not the benchmark run.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import warnings
from pathlib import Path

import pytest

import mfstop
from mfstop.measures import StopMap

ROOT = Path(__file__).resolve().parents[1]

# the layers whose public function an operation calls directly
ENTRY_LAYERS = (
    "solver.solve_value",
    "risk.mean_variance_dual",
    "risk.expected_shortfall_value",
    "pde.standard_os_pde",
    "pde.aggregate_value",
    "calculus.generator",
)

# the calls one traced `residual` operation makes: three running atoms
RESIDUAL_LAYER_CALLS = {
    "calculus.estimate_derivatives.calls": 1,
    "dynamics.advance_positions.calls": 21 * 64,
}


def _undo_tracing_afterwards(monkeypatch) -> None:
    """Have monkeypatch restore every function of every mfstop module, which
    `tracing.install` replaces with traced wrappers."""
    for info in pkgutil.iter_modules(mfstop.__path__):
        importlib.import_module("mfstop." + info.name)
    for name, module in list(sys.modules.items()):
        if name == "mfstop" or name.startswith("mfstop."):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    monkeypatch.setattr(StopMap, "__call__", StopMap.__call__)


@pytest.mark.parametrize("traced", [False, True])
def test_one_operation_of_each_kind_runs_and_checks(monkeypatch, traced):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(ROOT)  # the workloads read the shipped configs by relative path
    import tracing
    import worker
    import workloads

    tracer = None
    if traced:
        _undo_tracing_afterwards(monkeypatch)
        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = workloads.Runner(tracer)
    for workload in workloads.WORKLOADS:
        first = {}
        for op in next(workloads.rounds(workload, 1)):
            if op.known_fault is None:
                first.setdefault(op.kind, op)
        for op in first.values():
            call, check = runner.prepare(op)
            before = dict(tracer.counts) if traced else {}
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message="policy search budget exhausted")
                ok, detail = check(call())
            assert ok, f"{workload} {op.kind} {op.args}: {detail}"
            if traced and workload == "residual":
                # the generator's work stays in the traced layers: one flow
                # probe of 21 simulated functionals of 64 Euler steps each
                made = {name: tracer.counts[name] - before.get(name, 0)
                        for name in RESIDUAL_LAYER_CALLS}
                assert made == RESIDUAL_LAYER_CALLS
    if traced:
        metrics = worker.layer_metrics(tracer, 0.0)
        for layer in ENTRY_LAYERS:
            assert metrics[layer + ".calls"]["value"] == 1, layer
