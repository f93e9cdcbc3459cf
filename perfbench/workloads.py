"""The three workloads: their operation lists, how an operation runs, how it is checked.

An operation list is plain data generated from the workload seed with
Python's own `random`, so one seed always yields the same list and the
program only ever sees the generated inputs. A run works through whole
rounds of the list; `rounds` yields them without end.

* search   - one round is a fixed pool of policy searches, 8 solver seeds on
             each of the three shipped configs, in an order drawn from the
             workload seed. One search costs 46 to 200 policy evaluations
             depending on its solver seed, and a run has room for only a few
             dozen searches, so drawing the solver seeds themselves from the
             workload seed would make the run's cost depend on the seed.
* obstacle - mean-variance dual (lam drawn), expected-shortfall value
             (alpha drawn) and the standard_put obstacle surface.
* residual - four laws with atoms drawn from a continuous law, then the
             shipped attraction law, which fails every time (see KNOWN_FAULT).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from tracing import trace_problem

WORKLOADS = ("search", "obstacle", "residual")

CONFIG_DIR = Path("src") / "mfstop" / "configs"
SEARCH_CONFIGS = ("standard_put", "mean_variance", "attraction")
SEARCH_SEEDS = tuple(range(8))

# how many standard errors a Monte Carlo value may sit from its reference
K_SE = 4.0
# discretisation error allowed to the obstacle solves; the measured gaps are
# below 1.4e-6 (duals) and 8e-5 (put aggregate)
DUAL_TOL = 1e-4
PUT_TOL = 1e-3
# the never-stop value solves the linear flow equation, so its generator
# vanishes up to probe and Monte Carlo error
RESIDUAL_TOL = 5e-2
RESIDUAL_PATHS = 300
RESIDUAL_LAWS_PER_ROUND = 4
# the mfstop probes move an atom at x by 1e-3 (1 + |x|), and
# make_unstopped_functional shares noise only between starts in one
# 0.25-wide bucket, so drawn atoms keep at least this far from bucket edges
NOISE_BUCKET = 0.25
EDGE_CLEARANCE = 0.025

KNOWN_FAULT = (
    "make_unstopped_functional keys noise by floor(x / 0.25): the shipped "
    "attraction atoms sit on bucket edges, so their probes get independent noise"
)

# catalog `_brownian`: b = 0, sigma = 1
BROWNIAN_SIGMA = 1.0


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict = field(default_factory=dict)
    known_fault: str | None = None


def _search_round(rng: random.Random) -> list:
    ops = [Op("search", {"config": c, "seed": s}) for c in SEARCH_CONFIGS for s in SEARCH_SEEDS]
    rng.shuffle(ops)
    return ops


def _obstacle_round(rng: random.Random) -> list:
    return [
        Op("mean_variance_dual", {"lam": round(rng.uniform(0.25, 3.0), 6)}),
        Op("shortfall_value", {"alpha": round(rng.uniform(0.3, 0.95), 6)}),
        Op("put_surface"),
    ]


def _random_law(rng: random.Random) -> list:
    """Three running atoms in distinct noise buckets of [-1.5, 1.5], clear of the edges."""
    buckets = rng.sample(range(-6, 6), 3)
    half = NOISE_BUCKET / 2 - EDGE_CLEARANCE
    atoms = []
    for b in buckets:
        x = NOISE_BUCKET * (b + 0.5) + rng.uniform(-half, half)
        atoms.append((round(x, 9), 1, 0.2 + rng.random()))
    total = sum(w for _, _, w in atoms)
    return [(x, f, w / total) for x, f, w in atoms]


def _residual_round(rng: random.Random) -> list:
    ops = [
        Op("residual", {"atoms": _random_law(rng), "t": round(rng.uniform(0.0, 0.5), 6),
                        "seed": rng.randrange(1 << 31)})
        for _ in range(RESIDUAL_LAWS_PER_ROUND)
    ]
    # the shipped law with the shipped config's seed, at t = 0: inputs that
    # do not depend on the workload seed, so it fails in every run alike
    ops.append(Op("residual", {"atoms": None, "t": 0.0, "seed": 5}, known_fault=KNOWN_FAULT))
    return ops


_ROUND = {"search": _search_round, "obstacle": _obstacle_round, "residual": _residual_round}


def rounds(workload: str, seed: int):
    """Yield the workload's rounds of operations, forever, determined by seed."""
    make = _ROUND[workload]
    r = 0
    while True:
        yield make(random.Random(f"{workload}:{seed}:{r}"))
        r += 1


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


def _atoms(m) -> list:
    return [(float(x[0]), int(f), float(w)) for x, f, w in zip(m.xs, m.flags, m.ws)]


class Runner:
    """Builds each operation's inputs from the catalog and checks its output.

    `prepare(op)` returns (call, check): `call()` is the timed program call,
    `check(result)` returns (ok, detail) and is not timed. With a tracer the
    problems handed to the program have traced coefficients. mfstop is
    imported inside the methods, so that the worker can time the first
    import of mfstop.cli itself.
    """

    def __init__(self, tracer=None):
        from mfstop.catalog import load_experiment_config

        self.tracer = tracer
        self.configs = {c: load_experiment_config(str(CONFIG_DIR / f"{c}.json"))
                        for c in SEARCH_CONFIGS}

    def _instance(self, name: str, **params):
        from mfstop.catalog import build_instance

        inst = build_instance(name, **params)
        if self.tracer is None:
            return inst
        return dataclasses.replace(inst, problem=trace_problem(self.tracer, inst.problem))

    def prepare(self, op: Op):
        return getattr(self, "_" + op.kind)(**op.args)

    def _search(self, config: str, seed: int):
        from mfstop import solver
        from mfstop.dynamics import TimeGrid

        cfg = self.configs[config]
        inst = self._instance(cfg.problem, **cfg.problem_params)
        grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
        # the SearchConfig that `mfstop solve` builds
        scfg = solver.SearchConfig(paths_per_atom=cfg.paths_per_atom, threads=cfg.threads)
        atoms = _atoms(inst.m0)

        def call():
            return solver.solve_value(inst.m0, inst.problem, grid, scfg, seed=seed)

        def check(result):
            v, se = result.estimate.value, result.estimate.mc_stderr
            if config == "standard_put":
                ref = oracles.aggregate_put(atoms, inst.params["strike"], BROWNIAN_SIGMA,
                                            inst.problem.horizon)
                ok = abs(v - ref) <= K_SE * se
                return ok, f"put {v:.5f} vs Gaussian {ref:.5f} (se {se:.5f})"
            if config == "mean_variance":
                # stopping at once gives g(m0) exactly; the tie-break may keep
                # a policy up to scfg.tol below the best value seen
                ref = oracles.mean_variance_reward(atoms, inst.params["lam"])
                ok = ref - scfg.tol - 1e-12 <= v <= ref + K_SE * se + 1e-12
                return ok, f"mean-variance {v:.6f} vs g(m0) {ref:.6f} (se {se:.2e})"
            # attraction conserves the survivors' mean: every rule is worth
            # mean(m0), and the searched maximum can only be biased upward
            ref = oracles.mean(atoms)
            return v >= ref - K_SE * se, f"attraction {v:.5f} vs mean {ref:.5f} (se {se:.5f})"

        return call, check

    def _mean_variance_dual(self, lam: float):
        from mfstop import risk

        inst = self._instance("mean_variance", lam=lam)
        ref = oracles.mean_variance_reward(_atoms(inst.m0), lam)

        def call():
            return risk.mean_variance_dual(inst.m0, inst.problem, lam, inst.pde_cfg, threads=1)

        def check(result):
            ok = abs(result.value - ref) <= DUAL_TOL
            return ok, f"dual {result.value:.8f} vs g_lam(m0) {ref:.8f} (lam {lam})"

        return call, check

    def _shortfall_value(self, alpha: float):
        from mfstop import risk

        inst = self._instance("shortfall", alpha=alpha)
        ref = oracles.static_shortfall(_atoms(inst.m0), alpha)

        def call():
            return risk.expected_shortfall_value(inst.m0, inst.problem, alpha, inst.pde_cfg,
                                                 threads=1)

        def check(result):
            ok = abs(result.value - ref) <= DUAL_TOL
            return ok, f"shortfall {result.value:.8f} vs static ES {ref:.8f} (alpha {alpha})"

        return call, check

    def _put_surface(self):
        from mfstop import pde

        inst = self._instance("standard_put")
        strike = inst.params["strike"]
        ref = oracles.aggregate_put(_atoms(inst.m0), strike, BROWNIAN_SIGMA, inst.problem.horizon)

        def call():
            surface = pde.standard_os_pde(inst.problem, inst.psi, inst.pde_cfg)
            return surface, pde.aggregate_value(inst.m0, surface, inst.psi)

        def check(result):
            surface, value = result
            slack = float(np.min(surface.values - np.maximum(strike - surface.xs, 0.0)))
            ok = slack >= -1e-12 and abs(value - ref) <= PUT_TOL
            return ok, f"aggregate {value:.6f} vs Gaussian {ref:.6f}; min v - psi {slack:.1e}"

        return call, check

    def _residual(self, atoms, t: float, seed: int):
        from mfstop import calculus
        from mfstop.measures import make_empirical

        inst = self._instance("attraction", **self.configs["attraction"].problem_params)
        m = inst.m0 if atoms is None else make_empirical(
            [(x, f) for x, f, _ in atoms], [w for _, _, w in atoms])
        problem = inst.problem

        def call():
            u = calculus.make_unstopped_functional(problem, paths_per_atom=RESIDUAL_PATHS,
                                                   seed=seed)
            if self.tracer is not None:
                u = self.tracer.wrap("calculus.u", u)
            return calculus.generator(u, t, m, problem) + calculus.running_reward(problem, t, m)

        def check(result):
            ok = math.isfinite(result) and abs(result) <= RESIDUAL_TOL
            return ok, f"generator + running reward {result:.3e} at t={t}"

        return call, check

