"""Value computation by forward policy search, with exact small-case oracles.

`solve_value` maximizes the stopped objective over two parametric policy
families, constant fractions and thresholds: a coarse sweep with one shared
parameter across nodes, then per-node coordinate descent with shrinking
brackets. All candidate evaluations, and the final bootstrap evaluation of
the winner, share one noise object (`policy.policy_noise`): each node's
noise is drawn once per solve, it is common across policies by
construction, and comparisons are far less noisy than the individual
values.

A refinement trial changes the incumbent at one node k, and the law
entering node k depends only on the maps before k (the flow property behind
the dynamic programming principle). Every policy run records the state
entering each node as a checkpoint that shares the run's arrays, since no
run writes them; the search keeps the incumbent's checkpoints and runs each
trial from its checkpoint k. A trial whose new map stops the same rows with
the same fractions is the incumbent's run bit for bit and takes its value
without a run. Both leave every value exactly as a run from m0 gives it.

The state of the dynamic program is a measure, so no backward recursion over
a finite state space is available in general. For deterministic dynamics
(sigma identically zero) with few atoms, `backward_enumeration` evaluates
every per-atom stop-time assignment exactly; `solve_value` folds that
enumeration in automatically when it is affordable, and the same routine
serves as the brute-force oracle in tests.

`verify_dpp` checks the two-stage decomposition: solve on [0,T], replay the
optimal prefix to the split node, re-solve from the realized snapshot, and
compare. `monotonicity_check` samples random stop maps p and checks that
stopping first never helps: V(m) >= V(apply_stop(m, p)) up to noise.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dynamics import Particles, Problem, TimeGrid, flow
from .measures import EmpiricalMeasure, StopMap, apply_stop
from .policy import Policy, ValueEstimate, evaluate_policy, policy_noise, run_policy
from .util import check_threads, rng_for

__all__ = [
    "SearchConfig",
    "SolveResult",
    "solve_value",
    "backward_enumeration",
    "verify_dpp",
    "DppReport",
    "monotonicity_check",
    "MonotonicityReport",
]

# Cap on stop-time assignments for the deterministic enumeration.
ENUM_BUDGET = 6561


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the policy search.

    tol : absolute improvement below which a refinement round stops.
    threads : must be 1; kept so that existing callers keep working.
    """

    paths_per_atom: int = 200
    coarse_points: int = 9
    refine_rounds: int = 3
    tol: float = 1e-3
    restart_paths: int = 8
    threads: int = 1

    def __post_init__(self):
        check_threads(self.threads)


@dataclass(frozen=True)
class SolveResult:
    """Search outcome; iterable as (estimate, policy)."""

    estimate: ValueEstimate
    policy: Policy
    converged: bool
    n_evaluations: int

    def __iter__(self):
        return iter((self.estimate, self.policy))


# ---------------------------------------------------------------------------
# forward search
# ---------------------------------------------------------------------------


class _Searcher:
    """Caches policy evaluations (no bootstrap) under one shared noise object.

    It keeps the incumbent, the best policy evaluated so far, with its run's
    checkpoints: the state entering each node, before that node's stop.
    The state entering node k depends only on the maps before k, so a
    policy whose maps stop as the incumbent's do before node k starts from
    the incumbent's checkpoint k instead of from m0. Two maps at a node
    stop alike when they give the same survival fractions on the
    checkpoint's live rows, or when nothing is alive there. A policy that
    stops as the incumbent does at every node has the incumbent's run bit
    for bit, so it takes the incumbent's value without a run; it still
    counts as an evaluation.
    """

    def __init__(self, m0, problem, grid, cfg, seed, start_node):
        self.m0 = m0
        self.problem = problem
        self.grid = grid
        self.cfg = cfg
        self.seed = seed
        self.start_node = start_node
        nodes = range(start_node, grid.n)
        self.noise = policy_noise(m0, problem, cfg.paths_per_atom, seed, nodes)
        self.n_evaluations = 0
        self.seen: dict = {}  # policy key -> (value, survivor_mass_mean)
        # the incumbent's maps, its seen entry and its run's checkpoints
        self.incumbent: Optional[tuple] = None
        self.incumbent_result: Optional[tuple] = None
        self.checkpoints: tuple = ()

    def _key(self, pol: Policy):
        return tuple(sm.key for sm in pol.maps[self.start_node :])

    def value(self, pol: Policy) -> float:
        key = self._key(pol)
        if key not in self.seen:
            self.seen[key] = self._evaluate(pol)
            self.n_evaluations += 1
        return self.seen[key][0]

    def survivor_mass(self, pol: Policy) -> float:
        self.value(pol)
        return self.seen[self._key(pol)][1]

    def _first_change(self, pol: Policy) -> Optional[int]:
        """The first node where pol stops otherwise than the incumbent, or None."""
        for k in range(self.start_node, self.grid.n):
            mine, theirs = pol.maps[k], self.incumbent[k]
            if mine.key == theirs.key:
                continue
            particles = self.checkpoints[k - self.start_node].particles
            x = particles.x[particles.alive]
            if x.shape[0] and not np.array_equal(mine(x), theirs(x)):
                return k
        return None

    def _evaluate(self, pol: Policy) -> tuple:
        k, resume = self.start_node, None
        if self.incumbent is not None:
            k = self._first_change(pol)
            if k is None:
                return self.incumbent_result
            resume = self.checkpoints[k - self.start_node]
        run = run_policy(
            self.m0,
            self.problem,
            self.grid,
            pol.maps,
            self.cfg.paths_per_atom,
            self.seed,
            k,
            noise=self.noise,
            resume=resume,
        )
        result = (run.estimate(self.seed, 0).value, float(np.mean(run.survivor_mass)))
        if self.incumbent is None or result[0] > self.incumbent_result[0]:
            self.incumbent, self.incumbent_result = pol.maps, result
            self.checkpoints = run.checkpoints
        return result


def _sigma_scale(problem: Problem, m0: EmpiricalMeasure) -> float:
    xs, _ = m0.survivors()
    if xs.shape[0] == 0:
        xs = m0.xs
    return float(np.median(np.abs(problem.vol(0.0, xs, m0))))


def _coarse_candidates(problem, m0, grid, cfg, start_node) -> list:
    """Shared-parameter policies: sentinels, constants, threshold sweeps."""
    n = grid.n
    active = range(start_node, n)

    def fill(make_map):
        maps = [StopMap.constant(1.0)] * n
        for k in active:
            maps[k] = make_map(k)
        return maps

    cands = [Policy(tuple(fill(lambda k: StopMap.constant(1.0))), "constant")]
    stop_first = fill(lambda k: StopMap.constant(1.0))
    stop_first[start_node] = StopMap.constant(0.0)
    cands.append(Policy(tuple(stop_first), "constant"))

    for c in np.linspace(0.0, 1.0, 5)[1:-1]:
        cands.append(Policy(tuple(fill(lambda k, c=c: StopMap.constant(c))), "constant"))

    if problem.d == 1:
        xs, _ = m0.survivors()
        if xs.shape[0]:
            scale = _sigma_scale(problem, m0) * np.sqrt(problem.horizon)
            scale = scale if scale > 0 else max(1.0, float(np.abs(xs).max()))
            lo = float(xs.min()) - 2.0 * scale
            hi = float(xs.max()) + 2.0 * scale
            for theta in np.linspace(lo, hi, cfg.coarse_points):
                for side in ("below", "above"):
                    cands.append(
                        Policy(
                            tuple(fill(lambda k, t=theta, s=side: StopMap.threshold(t, s))),
                            "threshold",
                        )
                    )
    return cands


def _node_variations(sm: StopMap, step: float) -> list:
    """Local moves of one node's map, plus the two pure extremes."""
    out = [StopMap.constant(0.0), StopMap.constant(1.0)]
    if sm.family == "threshold":
        theta, side = sm.params["theta"], sm.params["side"]
        for dd in (-step, -step / 3, step / 3, step):
            out.append(StopMap.threshold(theta + dd, side))
    elif sm.family == "constant":
        c = sm.params["c"]
        for dd in (-step, -step / 3, step / 3, step):
            cc = min(1.0, max(0.0, c + dd))
            out.append(StopMap.constant(cc))
    return out


def _initial_step(problem, m0, pol: Policy) -> float:
    if pol.family == "threshold":
        scale = _sigma_scale(problem, m0) * np.sqrt(problem.horizon)
        return max(scale, 1e-3)
    return 0.25


def solve_value(
    m0: EmpiricalMeasure,
    problem: Problem,
    grid: TimeGrid,
    search_cfg: Optional[SearchConfig] = None,
    seed: int = 0,
    start_node: int = 0,
) -> SolveResult:
    """Best objective over the constant and threshold policy families.

    The returned value is a sampled lower bound on the grid-time value (up
    to MC error): it is the max the search saw, and every evaluated policy's
    value is a true objective. Near-optimal ties go to the policy that stops
    least (largest average survivor mass). A final pass re-evaluates the
    winner with `policy.BOOTSTRAP_RESAMPLES` bootstrap resamples to attach
    the standard error.
    """
    cfg = search_cfg or SearchConfig()
    searcher = _Searcher(m0, problem, grid, cfg, seed, start_node)

    candidates = _coarse_candidates(problem, m0, grid, cfg, start_node)
    enum_policy = _enumeration_candidate(m0, problem, grid, start_node)
    if enum_policy is not None:
        candidates.append(enum_policy)
    best = max(candidates, key=searcher.value)
    step = _initial_step(problem, m0, best)
    converged = False
    for _ in range(cfg.refine_rounds):
        round_start = searcher.value(best)
        for k in range(start_node, grid.n):
            for sm in _node_variations(best.maps[k], step):
                trial = best.replace_node(k, sm)
                if searcher.value(trial) > searcher.value(best) + 1e-15:
                    best = trial
        step /= 3.0
        if searcher.value(best) - round_start < cfg.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            "policy search budget exhausted before the improvement fell "
            f"below tol={cfg.tol}; returning the best value seen",
            RuntimeWarning,
            stacklevel=2,
        )

    # near-optimal tie-break: stop as little as possible
    best_val = searcher.value(best)
    tied = [
        pol
        for pol in candidates + [best]
        if searcher.value(pol) >= best_val - cfg.tol
    ]
    best = max(tied, key=searcher.survivor_mass)

    est = evaluate_policy(
        m0,
        problem,
        grid,
        best,
        cfg.paths_per_atom,
        seed,
        start_node=start_node,
        noise=searcher.noise,
    )
    return SolveResult(
        estimate=est,
        policy=best,
        converged=converged,
        n_evaluations=searcher.n_evaluations,
    )


# ---------------------------------------------------------------------------
# deterministic enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    value: float
    stop_nodes: tuple  # per surviving atom: node index, or None for never
    node_positions: tuple  # per node k: (n_live, d) positions entering node k


def _require_deterministic(problem: Problem, m0: EmpiricalMeasure) -> None:
    xs, _ = m0.survivors()
    probe = xs if xs.shape[0] else m0.xs
    if np.any(np.abs(problem.vol(0.0, probe, m0)) > 1e-12):
        raise ValueError("enumeration requires deterministic dynamics (sigma == 0)")


def backward_enumeration(
    m0: EmpiricalMeasure,
    problem: Problem,
    grid: TimeGrid,
    start_node: int = 0,
) -> EnumerationResult:
    """Exact value for sigma == 0 by trying every per-atom stop assignment.

    Each surviving atom is assigned a stop node in {start_node..n-1} or
    'never'; the deterministic flow is replayed for every assignment (the
    coefficients may read the measure, so atoms are coupled and no
    factorization is attempted). Intended for tiny instances; raises when
    the assignment count exceeds `ENUM_BUDGET`.
    """
    _require_deterministic(problem, m0)
    k = m0.survivors()[1].shape[0]
    n = grid.n
    choices = (n - start_node) + 1
    if choices**k > ENUM_BUDGET:
        raise ValueError(
            f"enumeration over {choices}^{k} assignments exceeds the budget {ENUM_BUDGET}"
        )
    best: Optional[EnumerationResult] = None
    for raw in itertools.product(range(choices), repeat=k):
        stop_at = [start_node + a if a < choices - 1 else None for a in raw]
        reward, particles, positions = _replay(m0, problem, grid, stop_at, start_node, n)
        total = reward + problem.terminal(*particles.marginal())
        if best is None or total > best.value + 1e-15 or (
            abs(total - best.value) <= 1e-15
            and sum(s is None for s in stop_at) > sum(s is None for s in best.stop_nodes)
        ):
            best = EnumerationResult(total, tuple(stop_at), tuple(positions))
    assert best is not None
    return best


def _replay(m0, problem, grid, stop_at, first, last):
    """Deterministic flow of m0 over nodes first..last-1 with per-atom stops.

    stop_at[i] is the node at which surviving atom i stops, or None. Returns
    the running reward, the particles at node `last` and the positions
    entering each node.
    """
    particles = Particles.from_measure(m0, freeze_stopped=True)
    codes = np.array([-1 if s is None else s for s in stop_at], dtype=np.int64)
    stop = lambda j, x, rows: (codes[rows] != j).astype(float)
    reward = 0.0
    positions = []
    for _, t, law in flow(particles, problem, 0.0, grid.dt, range(first, last), stop):
        positions.append(particles.x)
        alive = particles.alive
        if problem.f is not None and alive.any():
            reward += grid.dt * float(problem.rate(t, particles.x[alive], law) @ particles.w[alive])
    return reward, particles, positions


def _enumeration_candidate(
    m0: EmpiricalMeasure,
    problem: Problem,
    grid: TimeGrid,
    start_node: int,
) -> Optional[Policy]:
    """Exact-enumeration policy when the instance is tiny and deterministic."""
    try:
        result = backward_enumeration(m0, problem, grid, start_node)
    except ValueError:
        return None
    return _assignment_to_policy(result, grid, start_node)


def _assignment_to_policy(
    result: EnumerationResult, grid: TimeGrid, start_node: int
) -> Optional[Policy]:
    """Express per-atom stop nodes as position-keyed maps, if separable."""
    maps = [StopMap.constant(1.0)] * grid.n
    for j in range(start_node, grid.n):
        x_here = result.node_positions[j - start_node]
        values = np.array(
            [0.0 if s == j else 1.0 for s in result.stop_nodes], dtype=float
        )
        # two atoms at one site with opposite decisions cannot be expressed
        for a in range(len(values)):
            for b in range(a + 1, len(values)):
                if np.all(np.abs(x_here[a] - x_here[b]) <= 1e-9) and values[a] != values[b]:
                    return None
        if np.any(values == 0.0):
            maps[j] = StopMap.site_lookup(x_here, values, default=1.0)
    return Policy(tuple(maps), "site_lookup")


# ---------------------------------------------------------------------------
# dynamic programming check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DppReport:
    lhs: float
    rhs: float
    residual: float
    combined_stderr: float
    split_index: int
    mode: str


def _prefix_run(m0, problem, grid, pol, paths, seed, s):
    """Replay a policy to node s; returns (reward, reward stderr, snapshot)."""
    run = run_policy(m0, problem, grid, pol.maps, paths, seed, 0, end_node=s)
    se = 0.0
    if problem.f is not None and paths >= 2:
        rng = rng_for(seed, "prefix-bootstrap")
        se = float(np.std([run.reward @ mult for mult in run.multiplicities(rng, 100)], ddof=1))
    return float(run.reward.sum()), se, run.particles.snapshot()


def verify_dpp(
    m0: EmpiricalMeasure,
    problem: Problem,
    grid: TimeGrid,
    split_index: int,
    solver_cfg: Optional[SearchConfig] = None,
    seed: int = 0,
    mode: str = "search",
) -> DppReport:
    """Two-stage consistency of the value: solve-whole vs solve-then-restart.

    LHS is the value on the full horizon. RHS replays the optimal policy's
    prefix to the split node (pre-stop snapshot), adds the prefix running
    reward, and re-solves from the realized measure. The optimal prefix
    attains the sup over first-segment policies, because any better prefix
    followed by its best continuation would beat the LHS optimum.

    mode='exact' does both sides by deterministic enumeration (sigma == 0
    instances) and reports a machine-precision residual; mode='search' uses
    the Monte Carlo solver and reports a combined stderr.
    """
    cfg = solver_cfg or SearchConfig()
    s = split_index
    if not 0 < s <= grid.n:
        raise ValueError("split index must satisfy 0 < s <= n")

    if mode == "exact":
        return _verify_dpp_exact(m0, problem, grid, s)
    if mode != "search":
        raise ValueError("mode must be 'search' or 'exact'")

    full = solve_value(m0, problem, grid, cfg, seed)
    prefix_reward, prefix_se, snapshot = _prefix_run(
        m0, problem, grid, full.policy, cfg.paths_per_atom, seed, s
    )

    if s == grid.n:
        # terminal layer: the restart value is the terminal-stop sup, which
        # is flat for marginal rewards, so no simulation is involved
        pts, wts = snapshot.x_marginal()
        restart_value, restart_se = problem.terminal(pts, wts), 0.0
    else:
        restart_cfg = replace(cfg, paths_per_atom=cfg.restart_paths)
        restart = solve_value(
            snapshot,
            problem,
            grid,
            restart_cfg,
            seed=int(rng_for(seed, "dpp-restart").integers(0, 2**31)),
            start_node=s,
        )
        restart_value = restart.estimate.value
        restart_se = restart.estimate.mc_stderr

    rhs = prefix_reward + restart_value
    combined = float(
        np.sqrt(full.estimate.mc_stderr**2 + prefix_se**2 + restart_se**2)
    )
    return DppReport(
        lhs=full.estimate.value,
        rhs=rhs,
        residual=abs(full.estimate.value - rhs),
        combined_stderr=combined,
        split_index=s,
        mode=mode,
    )


def _verify_dpp_exact(m0, problem, grid, s) -> DppReport:
    """Enumerated two-sided check for deterministic dynamics."""
    lhs = backward_enumeration(m0, problem, grid, 0).value

    k = m0.survivors()[1].shape[0]
    best_rhs = -np.inf
    # prefix assignment: stop at one of nodes 0..s-1, or still running at s
    for raw in itertools.product(range(s + 1), repeat=k):
        stop_at = [a if a < s else None for a in raw]
        reward, particles, _ = _replay(m0, problem, grid, stop_at, 0, s)
        snapshot = particles.snapshot()
        if s == grid.n:
            pts, wts = snapshot.x_marginal()
            cont = problem.terminal(pts, wts)
        else:
            cont = backward_enumeration(snapshot, problem, grid, s).value
        best_rhs = max(best_rhs, reward + cont)

    return DppReport(
        lhs=lhs,
        rhs=best_rhs,
        residual=abs(lhs - best_rhs),
        combined_stderr=0.0,
        split_index=s,
        mode="exact",
    )


# ---------------------------------------------------------------------------
# stopping-order monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    n_trials: int
    n_violations: int
    worst_gap: float  # most negative of V(m) - V(m') + 3 se; >= 0 means clean
    details: tuple = field(default=())


def monotonicity_check(
    m: EmpiricalMeasure,
    problem: Problem,
    grid: TimeGrid,
    trials: int,
    seed: int = 0,
    solver_cfg: Optional[SearchConfig] = None,
) -> MonotonicityReport:
    """Stopping first never raises the value: V(m) >= V(apply_stop(m, p)).

    Samples `trials` random stop maps p and solves both sides with a shared
    seed; a violation is V(m') exceeding V(m) by more than three combined
    standard errors plus an ulp-scale floor. The floor matters only in the
    degenerate regime where both optima are deterministic policies (zero
    bootstrap error): the two values are then reductions of the same terms
    in different orders, and summation rounding must not count as a
    violation of the ordering.
    """
    cfg = solver_cfg or SearchConfig()
    base = solve_value(m, problem, grid, cfg, seed)
    rng = rng_for(seed, "monotonicity")
    details = []
    n_viol = 0
    worst = np.inf
    rounding = 1e-12 * (1.0 + abs(base.estimate.value))
    for trial in range(trials):
        p = StopMap.random(rng)
        m_prime = apply_stop(m, p)
        other = solve_value(m_prime, problem, grid, cfg, seed)
        combined = float(
            np.sqrt(base.estimate.mc_stderr**2 + other.estimate.mc_stderr**2)
        )
        gap = base.estimate.value - other.estimate.value + 3.0 * combined
        worst = min(worst, gap)
        violated = gap < -rounding
        n_viol += int(violated)
        details.append(
            {
                "trial": trial,
                "family": p.family,
                "v_base": base.estimate.value,
                "v_stopped": other.estimate.value,
                "combined_stderr": combined,
                "violated": violated,
            }
        )
    return MonotonicityReport(
        n_trials=trials,
        n_violations=n_viol,
        worst_gap=float(worst) if trials else 0.0,
        details=tuple(details),
    )
