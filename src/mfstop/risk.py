"""Risk-functional reductions: expected shortfall, mean-variance, distortion.

Each nonlinear terminal functional here is handled by rewriting it over a
family of linear problems. The mean-variance objective is a convex function
of the terminal moment vector, so it is the sup of its affine minorants and
the value is a sup over linear-payoff problems minus a conjugate penalty.
Expected shortfall enters through its variational form: a scalar beta joins
the payoff (x-beta)+ and the outer minimization over beta commutes with the
inner stopping problem. Both reductions price their linear subproblems with
the obstacle solver and the aggregation identity from `pde`, and both find
their best slope or level by one bracket search (a grid, then 9-point rounds
that shrink the bracket by 4) whose every scan is one stacked backward sweep;
a dual builds its step rows once and every one of its sweeps reuses them.

The distortion functional needs no dynamics at all: on an atomic law the
layer-cake integral collapses to an exact finite sum, and
`quadrature_distortion` integrates it interval by interval as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import Problem, TimeGrid
from .measures import EmpiricalMeasure, StopMap
from .pde import (
    PdeConfig,
    aggregate_slice,
    aggregate_value,
    stacked_initial_values,
    stacked_os_pde,
    step_rows,
)
from .util import check_count, check_threads

__all__ = [
    "expected_shortfall",
    "es_beta_form",
    "EsResult",
    "expected_shortfall_value",
    "MeanVarianceResult",
    "mean_variance_dual",
    "distorted_expectation",
    "quadrature_distortion",
    "distortion_g",
    "meanvar_alpha_star_path",
]


# ---------------------------------------------------------------------------
# static expected shortfall (no dynamics)
# ---------------------------------------------------------------------------


def _sorted_atoms(values, weights):
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if values.shape != weights.shape or values.size == 0:
        raise ValueError("values and weights must be matching nonempty arrays")
    if np.any(weights < 0) or not math.isclose(weights.sum(), 1.0, abs_tol=1e-9):
        raise ValueError("weights must be a probability vector")
    order = np.argsort(values, kind="stable")
    return values[order], weights[order]


def expected_shortfall(values, weights, alpha: float) -> float:
    """Average of the worst (upper) 1-alpha tail of an atomic law.

    Quantile form: integrates the lower-convention quantile
    q_gamma = inf{z : mu(Z <= z) > gamma} over gamma in (alpha, 1), divided
    by 1 - alpha. Exact segment arithmetic on the sorted atoms.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    v, w = _sorted_atoms(values, weights)
    cum = np.concatenate([[0.0], np.cumsum(w)])
    cum[-1] = 1.0  # close the float gap so the last segment reaches gamma=1
    seg = np.maximum(0.0, np.minimum(cum[1:], 1.0) - np.maximum(cum[:-1], alpha))
    return float((v @ seg) / (1.0 - alpha))


def es_beta_form(values, weights, alpha: float) -> tuple:
    """Variational form min_beta [beta + E(X-beta)+/(1-alpha)], solved exactly.

    The objective is piecewise linear and convex in beta with kinks at the
    atoms, so the minimum sits on an atom; returns (value, minimizing beta).
    At flat minima the smallest kink is reported (atom-tie convention).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    v, w = _sorted_atoms(values, weights)

    def objective(beta):
        return beta + float(np.maximum(v - beta, 0.0) @ w) / (1.0 - alpha)

    objs = np.array([objective(beta) for beta in v])
    j = int(np.argmin(objs))
    return float(objs[j]), float(v[j])


# ---------------------------------------------------------------------------
# mean-field expected shortfall via the beta sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EsResult:
    value: float
    beta_star: float


def _linear_values(m, steps, psis, mode) -> list:
    """Value of m for each payoff: one stacked sweep over `steps` (see
    `stacked_initial_values`), aggregated at t = 0."""
    rows = stacked_initial_values(steps, psis, mode)
    return [aggregate_slice(m, steps.xs, row, psi) for row, psi in zip(rows, psis)]


def _scan(cache: dict, points, objectives) -> list:
    """Objective at each point; the points not yet in `cache` cost one sweep.

    Points are keyed by their value rounded to 12 digits, and a key keeps
    the value of the first point that reached it. `objectives` maps a list
    of new points to their values.
    """
    new: dict = {}
    for x in points:
        key = round(x, 12)
        if key not in cache and key not in new:
            new[key] = x
    if new:
        cache.update(zip(new, objectives(list(new.values()))))
    return [cache[round(x, 12)] for x in points]


def _shortfall_payoff(beta: float) -> Callable[[np.ndarray], np.ndarray]:
    """The call payoff (x - beta)+ of level beta."""
    return lambda x: np.maximum(np.asarray(x, dtype=float) - beta, 0.0)


def _bracket_search(objectives, grid, rounds: int, edge_error: str) -> tuple:
    """Maximiser and maximum: a scan of `grid`, then `rounds` rounds of 9
    points around the best point seen, each shrinking the bracket by 4.
    Raises ValueError(edge_error) when the grid maximiser is an edge.
    """
    cache: dict = {}
    vals = _scan(cache, grid, objectives)
    j = int(np.argmax(vals))
    if j == 0 or j == len(grid) - 1:
        raise ValueError(edge_error)
    lo, hi = grid[j - 1], grid[j + 1]
    best_x, best = float(grid[j]), float(vals[j])
    for _ in range(rounds):
        local = np.linspace(lo, hi, 9)
        lvals = _scan(cache, local, objectives)
        i = int(np.argmax(lvals))
        if lvals[i] > best:
            best_x, best = float(local[i]), float(lvals[i])
        step = (hi - lo) / 8.0
        lo, hi = best_x - step, best_x + step
    return best_x, best


def expected_shortfall_value(
    m: EmpiricalMeasure,
    problem: Problem,
    alpha: float,
    pde_cfg: PdeConfig,
    beta_lo: Optional[float] = None,
    beta_hi: Optional[float] = None,
    scan_points: int = 17,
    xtol: float = 1e-5,
    threads: int = 1,
) -> EsResult:
    """Smallest reachable expected shortfall of the terminal law.

    For each beta a minimization-form obstacle problem prices the payoff
    (x - beta)+, the aggregation identity lifts it to the measure m, and the
    scalar objective beta + V_beta/(1-alpha) is minimized by `_bracket_search`,
    as in `mean_variance_dual`, with as many rounds as it takes to shrink the
    bracket to `xtol`; each scan and round is one stacked sweep over step
    rows built once per call, and no level is solved on its own. The
    objective grows at both ends of the beta axis, so an interior bracket
    exists; failing to find one in the configured range is an error.

    `threads` must be 1; it is kept so that existing callers keep working.
    """
    check_threads(threads)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    xs, ws = m.x_marginal()
    if beta_lo is None or beta_hi is None:
        mean = float(xs[:, 0] @ ws)
        spread = math.sqrt(max(float((xs[:, 0] - mean) ** 2 @ ws), 0.0))
        reach = float(np.max(np.abs(problem.vol(0.0, xs, m)))) * math.sqrt(problem.horizon)
        pad = 2.0 * (spread + reach) + 0.5
        beta_lo = float(xs[:, 0].min()) - pad if beta_lo is None else beta_lo
        beta_hi = float(xs[:, 0].max()) + pad if beta_hi is None else beta_hi

    if not (math.isfinite(beta_lo) and math.isfinite(beta_hi) and beta_lo < beta_hi):
        raise ValueError("beta bounds must be finite and increasing")
    check_count("scan_points", scan_points, 3)
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise ValueError("xtol must be finite and positive")

    steps = step_rows(problem, pde_cfg)

    def neg_objectives(betas) -> list:
        psis = [_shortfall_payoff(beta) for beta in betas]
        values = _linear_values(m, steps, psis, "inf")
        return [-(beta + v_beta / (1.0 - alpha)) for beta, v_beta in zip(betas, values)]

    # the bracket is two scan steps wide and each round shrinks it by 4
    width, rounds = 2.0 * (beta_hi - beta_lo) / (scan_points - 1), 0
    while width / 4**rounds > xtol:
        rounds += 1
    beta_star, neg_best = _bracket_search(
        neg_objectives,
        np.linspace(beta_lo, beta_hi, scan_points),
        rounds,
        f"no interior bracket for beta in [{beta_lo:.6g}, {beta_hi:.6g}]; widen the scan range",
    )
    return EsResult(value=-neg_best, beta_star=beta_star)


# ---------------------------------------------------------------------------
# mean-variance by convex duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanVarianceResult:
    value: float
    alpha_star: float


def _meanvar_alpha_bounds(m: EmpiricalMeasure, lam: float, bounds: Optional[tuple] = None):
    """The slope range `bounds`, by default 1 + lam * (mean -/+ 6 (std + 1))
    of the x-marginal; refused unless finite and increasing."""
    if bounds is None:
        xs, ws = m.x_marginal()
        z1 = float(xs[:, 0] @ ws)
        z2 = float(xs[:, 0] ** 2 @ ws)
        spread = math.sqrt(max(z2 - z1 * z1, 0.0)) + 1.0
        bounds = (1.0 + lam * (z1 - 6.0 * spread), 1.0 + lam * (z1 + 6.0 * spread))
    a_lo, a_hi = bounds
    if not (math.isfinite(a_lo) and math.isfinite(a_hi) and a_lo < a_hi):
        raise ValueError("alpha bounds must be finite and increasing")
    return a_lo, a_hi


def _meanvar_payoff(a: float, lam: float) -> Callable[[np.ndarray], np.ndarray]:
    """The linearized payoff a x - (lam/2) x^2 of slope a."""
    return lambda x: a * np.asarray(x, dtype=float) - 0.5 * lam * np.asarray(x, dtype=float) ** 2


def mean_variance_dual(
    m: EmpiricalMeasure,
    problem: Problem,
    lam: float,
    pde_cfg: PdeConfig,
    alpha_bounds: Optional[tuple] = None,
    grid_points: int = 21,
    refine_rounds: int = 2,
    threads: int = 1,
) -> MeanVarianceResult:
    """sup over stopping of mean - (lam/2) * variance, by linearization.

    The objective is phi(z1, z2) = z1 + (lam/2) z1^2 - (lam/2) z2 of the
    terminal moments, convex in (z1, z2), hence the sup of its affine
    minorants: V = sup_a [V_a - (a-1)^2/(2 lam)], where V_a is the stopping
    problem with linear payoff a x - (lam/2) x^2 (the z2 slope is pinned at
    -lam/2, all other slopes have infinite conjugate). Each V_a is an
    obstacle solve plus aggregation; the outer sup runs on a grid with local
    refinement and reports the maximizing slope a*. The grid is one stacked
    backward sweep, and so are the new slopes of each refinement round; all
    of them share step rows built once per call.

    lam = 0 degenerates to the plain mean problem and is evaluated directly.
    `threads` must be 1; it is kept so that existing callers keep working.
    """
    check_threads(threads)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be finite and nonnegative")
    check_count("grid_points", grid_points, 3)
    check_count("refine_rounds", refine_rounds, 0)
    if lam == 0.0:
        if alpha_bounds is not None:
            _meanvar_alpha_bounds(m, lam, alpha_bounds)  # the default range is (1, 1)
        identity = lambda x: np.asarray(x, dtype=float)
        value = _linear_values(m, step_rows(problem, pde_cfg), [identity], "sup")[0]
        return MeanVarianceResult(value=value, alpha_star=1.0)

    a_lo, a_hi = _meanvar_alpha_bounds(m, lam, alpha_bounds)
    steps = step_rows(problem, pde_cfg)

    def dual_objectives(alphas) -> list:
        psis = [_meanvar_payoff(a, lam) for a in alphas]
        values = _linear_values(m, steps, psis, "sup")
        return [v_a - (a - 1.0) ** 2 / (2.0 * lam) for a, v_a in zip(alphas, values)]

    best_a, best = _bracket_search(
        dual_objectives,
        np.linspace(a_lo, a_hi, grid_points),
        refine_rounds,
        f"dual maximizer pinned to the alpha-grid edge [{a_lo:.6g}, {a_hi:.6g}]",
    )
    return MeanVarianceResult(value=best, alpha_star=best_a)


# ---------------------------------------------------------------------------
# probability distortion
# ---------------------------------------------------------------------------


def distorted_expectation(
    levels, weights, phi: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Layer-cake sum of a distorted expectation over payoff atoms (exact).

    g = integral over z of phi(mass at level >= z); on atoms this telescopes
    into sum_k p_(k) [phi(P_k) - phi(P_(k-1))] with the levels sorted
    descending and P_k the cumulative tail mass. phi must fix 0 and 1 (a
    distortion), the levels must be nonnegative.
    """
    if abs(float(phi(np.array(0.0)))) > 1e-12 or abs(float(phi(np.array(1.0))) - 1.0) > 1e-12:
        raise ValueError("phi must satisfy phi(0) = 0 and phi(1) = 1")
    p = np.asarray(levels, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if p.shape != w.shape or not np.all(np.isfinite(p)):
        raise ValueError("levels must be finite and match the weights")
    if np.any(p < 0):
        raise ValueError("levels must be nonnegative for the layer-cake form")
    order = np.argsort(-p, kind="stable")
    tail = np.clip(np.cumsum(w[order]), 0.0, 1.0)
    increments = np.diff(np.concatenate([[0.0], np.asarray(phi(tail), dtype=float)]))
    return float(p[order] @ increments)


def quadrature_distortion(levels, weights, phi) -> float:
    """Integral of phi(mass strictly above z) over z >= 0, interval by interval.

    The integrand is constant between consecutive atom levels, so summing
    phi(tail mass) times the interval length is an exact quadrature. Kept
    deliberately different from `distorted_expectation`, the telescoping
    closed form it checks: it is the oracle of acceptance criterion 6 and
    of the `example distortion` table.
    """
    p = np.asarray(levels, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    edges = np.unique(np.concatenate([[0.0], p]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        tail = float(w[p > mid].sum())
        total += float(phi(np.array(tail))) * (hi - lo)
    return total


def distortion_g(
    m: EmpiricalMeasure,
    phi: Callable[[np.ndarray], np.ndarray],
    psi: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Distorted expectation of psi under the full spatial marginal of m."""
    xs, ws = m.x_marginal()
    p = np.asarray(psi(xs), dtype=float).reshape(-1)
    if p.shape[0] != xs.shape[0]:
        raise ValueError("psi must return one value per atom")
    return distorted_expectation(p, ws, phi)


# ---------------------------------------------------------------------------
# diagnostic: stability of the maximizing slope along the realized flow
# ---------------------------------------------------------------------------


def meanvar_alpha_star_path(
    m: EmpiricalMeasure,
    problem: Problem,
    lam: float,
    pde_cfg: PdeConfig,
    grid: TimeGrid,
    checkpoints: int = 4,
    paths_per_atom: int = 400,
    seed: int = 0,
    alpha_bounds: Optional[tuple] = None,
    grid_points: int = 21,
) -> list:
    """Report the maximizing slope re-solved at laws visited by its own rule.

    If the duality were time consistent the slope would be constant along
    the optimal flow. This builds the obstacle surface of the time-0
    maximizer, turns its binding region into per-node stop rules, simulates
    those rules forward once, and re-evaluates the argmax at the pre-stop
    laws that run's checkpoints hold. Data only: argmax locations are flat
    near ties, so the reported drift carries no pass/fail meaning.
    """
    from .policy import run_policy

    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("slope tracking needs a finite lam > 0")
    check_count("grid_points", grid_points, 1)
    check_count("checkpoints", checkpoints, 1)
    alphas = np.linspace(*_meanvar_alpha_bounds(m, lam, alpha_bounds), grid_points)
    payoffs = [_meanvar_payoff(a, lam) for a in alphas]
    pdes = stacked_os_pde(step_rows(problem, pde_cfg), payoffs, mode="sup")

    def alpha_star_at(t: float, meas: EmpiricalMeasure) -> float:
        vals = [
            aggregate_value(meas, pde, psi, t=t) - (a - 1.0) ** 2 / (2.0 * lam)
            for a, psi, pde in zip(alphas, payoffs, pdes)
        ]
        return float(alphas[int(np.argmax(vals))])

    # binding region of the time-0 maximizer, as one stop rule per node
    a0 = alpha_star_at(0.0, m)
    pde0 = pdes[int(np.argmin(np.abs(alphas - a0)))]
    edges = 0.5 * (pde0.xs[:-1] + pde0.xs[1:])
    psi0 = pde0.values[-1]
    scale = 1.0 + np.max(np.abs(psi0))
    maps = []
    for k in range(grid.n):
        row = int(round(grid.nodes[k] / problem.horizon * (len(pde0.ts) - 1)))
        binding = np.abs(pde0.values[row] - psi0) <= 1e-7 * scale
        maps.append(StopMap.tabular(edges, 1.0 - binding.astype(float)))

    nodes = sorted({int(round(q)) for q in np.linspace(0, grid.n - 1, checkpoints)})
    run = run_policy(m, problem, grid, maps, paths_per_atom, seed)
    out = []
    for k in nodes:
        snap = run.checkpoints[k].particles.snapshot()
        out.append({"t": float(grid.nodes[k]), "alpha_star": alpha_star_at(grid.nodes[k], snap)})
    return out
