"""Relaxed stopping policies on a time grid and their Monte Carlo evaluation.

A `Policy` attaches one survival map p_k to every decision node t_k,
k = 0..n-1. Evaluation runs the maps through the forward kernel
`dynamics.flow`, stop-then-diffuse: at each node the map splits
surviving weight into a continuing part and a frozen part, the view of
the post-stop law feeds the running reward and (when needed) the
coefficients, then one Euler step advances the survivors. At the horizon
everything is stopped by fiat; the terminal reward reads the spatial
marginal, which that forced stop does not alter.

Row i of a run from m0 with r paths per atom is particle id i, so the
noise of every run is fixed by (m0, r, seed) alone. `policy_noise` draws
it once, as a read-only table; a policy search hands that one object to
every candidate, which draws each node's noise once per search and gives
common random numbers across candidates by construction. A run hands
`flow` the table's rows from its start node on.

Fractional stopping never duplicates live particles: the stopped fraction is
appended to a frozen pool (it can never move again) and the live particle
continues with reduced weight. Pure {0,1} policies therefore reduce to flag
flips with the initial weights, and the all-survive policy reproduces a
kernel run with no stop rule path for path under the same seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import Noise, Particles, Problem, TimeGrid, flow
from .measures import EmpiricalMeasure, StopMap, apply_stop
from .util import check_count, rng_for

__all__ = [
    "Policy",
    "ValueEstimate",
    "PolicyRun",
    "policy_noise",
    "run_policy",
    "evaluate_policy",
    "terminal_stop_sup",
    "policy_to_json",
    "policy_from_json",
]

BOOTSTRAP_RESAMPLES = 200

# `terminal_stop_sup` enumerates 2^k pure stops, so it refuses more survivors.
MAX_EXACT_SURVIVORS = 16


@dataclass(frozen=True)
class ValueEstimate:
    """A sampled value with its bootstrap standard error."""

    value: float
    mc_stderr: float
    n_paths: int

    def __post_init__(self):
        if self.mc_stderr < 0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class Policy:
    """Per-node survival maps plus a family tag for serialization."""

    maps: tuple
    family: str = "mixed"

    def __post_init__(self):
        if len(self.maps) == 0:
            raise ValueError("policy needs at least one node")

    @staticmethod
    def never_stop(n: int) -> "Policy":
        return Policy(tuple(StopMap.constant(1.0) for _ in range(n)), "constant")

    def replace_node(self, k: int, new_map: StopMap) -> "Policy":
        maps = list(self.maps)
        maps[k] = new_map
        return Policy(tuple(maps), self.family)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class PolicyRun:
    """A policy simulated forward to the horizon.

    `reward` holds each row's running reward (left Riemann sum over the
    post-stop nodes) and `survivor_mass` the surviving weight after each
    node's stop. `checkpoints` holds a copy of the run as it entered each
    node it ran, before that node's stop; each checkpoint's own
    `checkpoints` are the ones before it. As in `Particles`, no array or
    list a run holds is written after it is made.
    """

    problem: Problem
    particles: Particles
    reward: np.ndarray
    survivor_mass: list
    n_atoms: int
    paths_per_atom: int
    checkpoints: tuple = ()

    def copy(self) -> "PolicyRun":
        """A copy that shares every array and list; a run may continue
        either without touching the other."""
        other = object.__new__(PolicyRun)
        other.__dict__.update(self.__dict__)
        other.particles = self.particles.copy()
        return other

    def bootstrap_stderr(self, seed: int, tag: str, resamples: int, statistic) -> float:
        """Stderr of statistic(row multiplicities) over `resamples` bootstraps
        stratified by source atom, drawn from rng_for(seed, tag); 0 with fewer
        than two paths per atom or no resamples."""
        n, r = self.n_atoms, self.paths_per_atom
        if r < 2 or resamples == 0:
            return 0.0
        rng, offsets = rng_for(seed, tag), (np.arange(n) * r)[:, None]
        vals = []
        for _ in range(resamples):
            picks = rng.integers(0, r, size=(n, r)) + offsets
            vals.append(statistic(np.bincount(picks.ravel(), minlength=n * r).astype(float)))
        return float(np.std(vals, ddof=1))

    def estimate(self, seed: int, resamples: int) -> ValueEstimate:
        """Objective on the realized paths plus a stratified bootstrap stderr."""
        points, weights = self.particles.marginal()
        value = float(self.reward.sum() + self.problem.terminal(points, weights))
        stderr = 0.0
        if resamples != 0:
            w, (_, pw, psrc) = self.particles.w, self.particles.pool_arrays()
            objective = lambda mult: (self.reward * mult).sum() + self.problem.terminal(
                points, np.concatenate([w * mult, pw * mult[psrc]])
            )
            stderr = self.bootstrap_stderr(seed, "bootstrap", resamples, objective)
        return ValueEstimate(value=value, mc_stderr=stderr, n_paths=len(self.reward))


def policy_noise(
    m0: EmpiricalMeasure,
    problem: Problem,
    paths_per_atom: int,
    seed: int,
    nodes: range,
) -> Noise:
    """The noise of every policy run from (m0, paths_per_atom, seed) over `nodes`."""
    return Noise(seed, m0.n_atoms * paths_per_atom, problem.d, nodes)


def run_policy(
    m0: EmpiricalMeasure,
    problem: Problem,
    grid: TimeGrid,
    maps: Sequence[StopMap],
    paths_per_atom: int,
    seed: int,
    start_node: int = 0,
    noise: Optional[Noise] = None,
    *,
    resume: Optional[PolicyRun] = None,
) -> PolicyRun:
    """Simulate nodes start_node..n-1 with the given survival maps.

    `noise` is a `policy_noise` object shared with other runs, built from the
    same (m0, problem, paths_per_atom, seed) over nodes that cover
    start_node..n-1; by default the run builds its own. `paths_per_atom`
    must be an int >= 1, checked before any noise is drawn.

    The run records its `checkpoints` as it goes, one per node in order: the
    state entering node k of a run from node 0 is `checkpoints[k]`. Given
    `resume`, a checkpoint that an earlier run from (m0, paths_per_atom,
    seed) and the same noise took entering node start_node, the run
    continues a copy of it instead of starting from m0. Its result,
    checkpoints included, is then bit for bit that of the run from m0 of any
    maps that stop as the earlier run's did before start_node. A checkpoint
    shares its arrays with the run: neither writes them.
    """
    check_count("paths_per_atom", paths_per_atom, 1)
    if abs(grid.horizon - problem.horizon) > 1e-12:
        raise ValueError("grid horizon differs from problem horizon")
    if len(maps) != grid.n:
        raise ValueError("policy must supply one map per decision node")
    nodes = range(start_node, grid.n)
    if noise is None:
        noise = policy_noise(m0, problem, paths_per_atom, seed, nodes)
    elif (noise.seed, len(noise.ids), noise.d) != (seed, m0.n_atoms * paths_per_atom, problem.d):
        raise ValueError("the shared noise belongs to another seed, path count or dimension")
    # the table's nodes are consecutive, so a table holding both ends holds every node
    for k in (nodes[0], nodes[-1]) if nodes else ():
        if k not in noise.nodes:
            raise ValueError(f"node {k} lies outside the noise table's nodes {noise.nodes}")
    if resume is None:
        particles = Particles.from_measure(m0, paths_per_atom)
        n_rows = particles.w.shape[0]
        run = PolicyRun(problem, particles, np.zeros(n_rows), [], m0.n_atoms, paths_per_atom)
    else:
        run = resume.copy()
    particles = run.particles

    def enter(k, _):
        run.checkpoints = run.checkpoints + (run.copy(),)

    dt = grid.dt
    stop = lambda k, x, rows: maps[k](x)
    table = noise.table[start_node - noise.nodes.start :]
    for k, t, m_k in flow(particles, problem, 0.0, dt, nodes, stop, table, enter):
        alive, w = particles.alive, particles.w
        run.survivor_mass = run.survivor_mass + [float(w[alive].sum())]
        if problem.f is not None and alive.any():
            idx = np.nonzero(alive)[0]
            run.reward = run.reward.copy()
            run.reward[idx] += problem.rate(t, particles.x[idx], m_k) * w[idx] * dt
    return run


def evaluate_policy(
    m0: EmpiricalMeasure,
    problem: Problem,
    grid: TimeGrid,
    pol: Policy,
    paths_per_atom: int,
    seed: int,
    start_node: int = 0,
    noise: Optional[Noise] = None,
) -> ValueEstimate:
    """Estimate the objective of one policy.

    Returns sum_k F(t_k, m_{t_k}) dt + g(terminal marginal) with F the
    survivor-weighted running reward at the post-stop snapshots, and a
    stratified (per source atom) bootstrap standard error. `noise` is as in
    `run_policy`.
    """
    run = run_policy(m0, problem, grid, pol.maps, paths_per_atom, seed, start_node, noise=noise)
    return run.estimate(seed, BOOTSTRAP_RESAMPLES)


# ---------------------------------------------------------------------------
# terminal stop optimization
# ---------------------------------------------------------------------------


def _coordinate_refine(
    m: EmpiricalMeasure,
    functional: Callable[[EmpiricalMeasure], float],
    sites: np.ndarray,
    p0: np.ndarray,
    rounds: int = 2,
    grid_points: int = 33,
) -> tuple[float, np.ndarray]:
    """Per-site line searches of the survival fractions, a few sweeps."""
    p = p0.astype(float).copy()
    best = functional(apply_stop(m, StopMap.site_lookup(sites, p)))
    candidates = np.linspace(0.0, 1.0, grid_points)
    for _ in range(rounds):
        improved = False
        for j in range(len(p)):
            trial = p.copy()
            vals = []
            for c in candidates:
                trial[j] = c
                vals.append(functional(apply_stop(m, StopMap.site_lookup(sites, trial))))
            jbest = int(np.argmax(vals))
            if vals[jbest] > best + 1e-15:
                best = vals[jbest]
                p[j] = candidates[jbest]
                improved = True
        if not improved:
            break
    return best, p


def terminal_stop_sup(
    m: EmpiricalMeasure,
    functional: Callable[[EmpiricalMeasure], float],
) -> tuple[float, StopMap]:
    """Maximize functional(apply_stop(m, p)) over survival maps p.

    Enumerates every pure {0,1} assignment over the surviving sites (at most
    `MAX_EXACT_SURVIVORS` of them, else ValueError), then polishes the best
    corner with fractional per-site line searches. Ties between corners go
    to the one that stops least. Returns (best value, best map), the map a
    `StopMap.site_lookup` over the surviving sites.

    For a functional that only reads the spatial marginal this is flat in p
    and returns the functional's current value with the identity map.
    """
    xs_live, _ = m.survivors()
    k = xs_live.shape[0]
    if k == 0:
        return float(functional(m)), StopMap.constant(1.0)

    sites = xs_live
    if k > MAX_EXACT_SURVIVORS:
        raise ValueError(f"at most {MAX_EXACT_SURVIVORS} survivors are supported, got {k}")
    best_val = -np.inf
    best_p = np.ones(k)
    for mask in range(1 << k):
        p = np.array([(mask >> j) & 1 for j in range(k)], dtype=float)
        val = functional(apply_stop(m, StopMap.site_lookup(sites, p)))
        if val > best_val + 1e-15 or (
            abs(val - best_val) <= 1e-15 and p.sum() > best_p.sum()
        ):
            best_val, best_p = val, p

    best_val, best_p = _coordinate_refine(m, functional, sites, best_p)
    return float(best_val), StopMap.site_lookup(sites, best_p)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SERIALIZABLE = {"constant", "threshold", "logistic", "tabular", "site_lookup"}


def policy_to_json(pol: Policy) -> str:
    nodes = []
    for sm in pol.maps:
        if sm.family not in _SERIALIZABLE:
            raise ValueError(f"stop map family {sm.family!r} is not serializable")
        nodes.append({"family": sm.family, "params": sm.params})
    return json.dumps({"family": pol.family, "nodes": nodes}, sort_keys=True)


def _stop_map_from_dict(d: dict) -> StopMap:
    family, params = d["family"], d["params"]
    if family == "constant":
        return StopMap.constant(params["c"])
    if family == "threshold":
        return StopMap.threshold(params["theta"], params["side"])
    if family == "logistic":
        return StopMap.logistic(np.asarray(params["a"]), params["c"])
    if family == "tabular":
        return StopMap.tabular(params["edges"], params["values"])
    if family == "site_lookup":
        return StopMap.site_lookup(
            np.asarray(params["sites"]), np.asarray(params["values"]), params["default"]
        )
    raise ValueError(f"unknown stop map family {family!r}")


def policy_from_json(text: str) -> Policy:
    payload = json.loads(text)
    maps = tuple(_stop_map_from_dict(d) for d in payload["nodes"])
    return Policy(maps, payload["family"])
