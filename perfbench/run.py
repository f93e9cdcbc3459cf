"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload {search,obstacle,residual} \
        --seed N --seconds S --trace {0,1}

Untraced, it times set-up in fresh processes, then runs the workload in its
own fresh single-threaded process and prints the end-to-end metrics.
Traced, it runs a fixed number of rounds with spans around every measured
layer and prints the per-layer metrics. The workload process's summary,
with every operation's time, and the spans of a traced run are written to
perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Any failure to run exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = Path("src")
# the longest any run may take, set-up included
BUDGET_S = 170.0
SETUP_REPEATS = 3

# what every CLI call pays: import the CLI, then load the shipped configs and
# build every catalog instance
SETUP_PROBE = """
import mfstop.cli
from pathlib import Path
from mfstop.catalog import build_instance, instance_names, load_experiment_config
for path in sorted(Path("src/mfstop/configs").glob("*.json")):
    load_experiment_config(str(path)).instance()
for name in instance_names():
    build_instance(name)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.resolve())
    # an installed mfstop imports from cached bytecode; let the checkout's be
    # written and read whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(env: dict, deadline: float) -> float:
    """Median wall time of fresh set-up processes. Only the first run in a
    checkout finds no bytecode cache; the median drops that one slow process."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=max(deadline - time.monotonic(), 1.0))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def median_hd(times: list) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted
    mean of all order statistics. The search pool's operation times have a
    gap at their middle, between the quick searches and the rest, where the
    sample median jumps from run to run; this estimate does not."""
    from scipy.special import betainc

    x = sorted(times)
    n = len(x)
    a = (n + 1) / 2.0
    cdf = [float(betainc(a, a, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search", "obstacle", "residual"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "mfstop" / "cli.py").is_file():
        print("run.py: no src/mfstop here; run from the root of an mfstop checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind through subprocess.run, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    env = child_env()

    setup_s = None if args.trace else time_setup(env, deadline)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(OUT / f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"run.py: workload {args.workload} ran past {BUDGET_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    times = summary["op_times"]
    summary["ops_per_s"] = len(times) / sum(times)
    summary["op_p50_s"] = median_hd(times)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"setup_s": setup_s, **summary}), encoding="utf-8")

    if args.trace:
        metrics = summary["layers"]
    else:
        metrics = {
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "ops/s"},
            "op_p50_s": {"value": summary["op_p50_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
