"""Pinned verification suite: ten end-to-end checks with fixed tolerances.

Each criterion runs one contract of the library at desk scale under a
hard-coded seed, so the suite is deterministic and self-contained (no
network, no external data). The checks live here rather than in the test
tree because the command line exposes them as a subcommand; the test suite
calls the same functions.

Conventions: every criterion function takes no arguments and returns
(passed, one line of detail). `run_all` prints one line per criterion and
returns the structured results.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .calculus import (
    ResidualConfig,
    generator,
    linear_derivative,
    make_unstopped_functional,
    obstacle_residual,
    running_reward,
)
from .catalog import build_instance
from .dynamics import Problem, TimeGrid
from .measures import EmpiricalMeasure, StopMap, apply_stop, from_arrays, make_empirical, wasserstein
from .mollifier import MollifierParams, mollify, monotonicity_probe, partition_weights, project_measure, sample_simplex
from .pde import aggregate_value, standard_os_pde
from .policy import terminal_stop_sup
from .risk import distorted_expectation, distortion_g, es_beta_form, expected_shortfall, expected_shortfall_value, mean_variance_dual
from .solver import SearchConfig, monotonicity_check, solve_value, verify_dpp
from .util import rng_for

__all__ = ["CriterionResult", "quadrature_distortion", "run_all", "run_criterion"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    runtime_ms: int

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index}: {status} - {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _gaussian_put_value(x: float, strike: float, horizon: float) -> float:
    """E (K - X)+ for X normal with mean x and variance `horizon`."""
    s = math.sqrt(horizon)
    z = (strike - x) / s
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return (strike - x) * cdf + s * pdf


def quadrature_distortion(levels, weights, phi) -> float:
    """Integral of phi(mass strictly above z) over z >= 0, interval by interval.

    The integrand is constant between consecutive atom levels, so summing
    phi(tail mass) times the interval length is an exact quadrature. Kept
    deliberately different from the telescoping closed form it checks.
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


def _brute_wasserstein(m1: EmpiricalMeasure, m2: EmpiricalMeasure, order: int) -> float:
    """Minimum over permutations for equal uniform weights; ground metric
    sqrt(|x - y|^2 + |i - j|^2)."""
    n = m1.n_atoms
    cost = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            dx = float(m1.xs[i, 0] - m2.xs[j, 0])
            di = float(int(m1.flags[i]) - int(m2.flags[j]))
            cost[i, j] = math.sqrt(dx * dx + di * di) ** order
    best = min(
        sum(cost[i, pi[i]] for i in range(n)) / n
        for pi in itertools.permutations(range(n))
    )
    return best ** (1.0 / order)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _pair_tol(a: float, b: float, stderr: float) -> float:
    return max(0.02 * max(abs(a), abs(b)), 3.0 * stderr)


def _criterion_1():
    """Aggregation identity on the put, plus the PDE against the Gaussian value."""
    inst = build_instance("standard_put")
    pde = standard_os_pde(inst.problem, inst.psi, inst.pde_cfg)
    oracle = aggregate_value(inst.m0, pde, inst.psi)
    grid = TimeGrid(8, inst.problem.horizon)
    cfg = SearchConfig(paths_per_atom=400)
    est, _ = solve_value(inst.m0, inst.problem, grid, cfg, seed=11)
    gap = abs(est.value - oracle)
    tol = _pair_tol(est.value, oracle, est.mc_stderr)

    # never stopping is optimal for a convex payoff of a martingale, so the
    # obstacle surface must reproduce the closed-form Gaussian expectation
    worst_rel = 0.0
    for x in (0.4, 0.7, 1.0, 1.3, 1.6, 1.9):
        got = aggregate_value(make_empirical([(x, 1)]), pde, inst.psi)
        want = _gaussian_put_value(x, 1.0, 1.0)
        worst_rel = max(worst_rel, abs(got - want) / want)

    ok = gap <= tol and worst_rel <= 0.005
    detail = (
        f"search {est.value:.4f} vs aggregate {oracle:.4f}, gap {gap:.4f} "
        f"(tol {tol:.4f}); PDE vs Gaussian worst rel err {worst_rel:.1e} (tol 5e-3)"
    )
    return ok, detail


def _criterion_2():
    """Two-stage consistency, Monte Carlo on the put and exact on a drift race."""
    inst = build_instance("standard_put")
    cfg = SearchConfig(paths_per_atom=300)
    rep = verify_dpp(inst.m0, inst.problem, TimeGrid(8, 1.0), 4, cfg, seed=5)
    ok_mc = rep.residual <= 3.0 * rep.combined_stderr

    problem0 = Problem(
        d=1,
        b=lambda t, x, m: 1.0 - 2.8 * t,
        sigma=lambda t, x, m: 0.0,
        f=None,
        g=lambda p, w: float(-((p[:, 0] - 1.0) ** 2) @ w),
        horizon=1.0,
    )
    m0 = make_empirical([(0.4, 1), (1.0, 1), (0.75, 1)], [0.3, 0.3, 0.4])
    rep0 = verify_dpp(m0, problem0, TimeGrid(2, 1.0), 1, mode="exact")
    ok_exact = rep0.residual <= 1e-12

    ok = ok_mc and ok_exact
    detail = (
        f"search residual {rep.residual:.4f} vs 3 se {3.0 * rep.combined_stderr:.4f}; "
        f"exact residual {rep0.residual:.1e} (tol 1e-12)"
    )
    return ok, detail


def _criterion_3():
    """Stopping part of a measure never raises the value."""
    inst = build_instance("mean_variance")
    cfg = SearchConfig(paths_per_atom=150)
    rep = monotonicity_check(
        inst.m0, inst.problem, TimeGrid(8, 1.0), trials=20, seed=3, solver_cfg=cfg
    )
    ok = rep.n_violations == 0
    detail = (
        f"{rep.n_trials} random stops, {rep.n_violations} violations beyond 3 se "
        f"(worst slack {rep.worst_gap:.2e})"
    )
    return ok, detail


def _criterion_4():
    """Martingale collapse of mean minus variance: three routes, one value."""
    inst = build_instance("mean_variance", lam=1.0)
    xs, ws = inst.m0.x_marginal()
    stop_now = inst.problem.terminal(xs, ws)
    dual = mean_variance_dual(inst.m0, inst.problem, 1.0, inst.pde_cfg)
    cfg = SearchConfig(paths_per_atom=400)
    est, _ = solve_value(inst.m0, inst.problem, TimeGrid(8, 1.0), cfg, seed=17)

    pairs = [
        abs(dual.value - stop_now) <= _pair_tol(dual.value, stop_now, 0.0),
        abs(est.value - stop_now) <= _pair_tol(est.value, stop_now, est.mc_stderr),
        abs(est.value - dual.value) <= _pair_tol(est.value, dual.value, est.mc_stderr),
    ]
    ok = all(pairs)
    detail = (
        f"dual {dual.value:.4f}, search {est.value:.4f} (se {est.mc_stderr:.4f}), "
        f"stop-now {stop_now:.4f}; pairwise within max(2%, 3 se): {pairs}"
    )
    return ok, detail


def _criterion_5():
    """Shortfall dual form against the quantile form, then the mean-field value."""
    vals = np.array([-1.3, -0.7, -0.2, 0.1, 0.4, 0.8, 1.1, 1.5, 2.0, 2.6])
    wts = np.array([0.06, 0.1, 0.14, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    worst = max(
        abs(es_beta_form(vals, wts, a)[0] - expected_shortfall(vals, wts, a))
        for a in (0.3, 0.5, 0.8, 0.95)
    )
    ok_forms = worst <= 1e-10

    inst = build_instance("shortfall", alpha=0.8)
    res = expected_shortfall_value(inst.m0, inst.problem, 0.8, inst.pde_cfg)
    xs, ws = inst.m0.x_marginal()
    now = expected_shortfall(xs[:, 0], ws, 0.8)
    gap = abs(res.value - now)
    ok_field = gap <= max(0.02 * abs(now), 0.0)

    ok = ok_forms and ok_field
    detail = (
        f"form gap {worst:.1e} (tol 1e-10); reachable ES {res.value:.4f} vs "
        f"stop-now {now:.4f}, gap {gap:.4f} (tol {0.02 * abs(now):.4f})"
    )
    return ok, detail


def _criterion_6():
    """Distorted expectation: closed form vs quadrature, then the W1 bound."""
    rng = rng_for(101, "acceptance-distortion")
    phi_pow = lambda u: np.power(np.asarray(u, dtype=float), 0.7)
    worst = 0.0
    for size in (3, 5, 8):
        levels = np.abs(rng.normal(0.0, 1.0, size))
        w = rng.uniform(0.2, 1.0, size)
        w = w / w.sum()
        worst = max(
            worst,
            abs(distorted_expectation(levels, w, phi_pow) - quadrature_distortion(levels, w, phi_pow)),
        )
    ok_quad = worst <= 1e-10

    # Lip(phi) = 2 on [0,1], Lip(psi) = 1
    phi_lip = lambda u: 1.0 - (1.0 - np.asarray(u, dtype=float)) ** 2
    psi = lambda x: np.maximum(np.asarray(x, dtype=float), 0.0)

    def draw():
        k = int(rng.integers(2, 6))
        pts = [(float(x), 1) for x in rng.uniform(-2.0, 3.0, k)]
        w = rng.uniform(0.2, 1.0, k)
        return make_empirical(pts, w / w.sum())

    violations = 0
    for _ in range(50):
        m1, m2 = draw(), draw()
        lhs = abs(distortion_g(m1, phi_lip, psi) - distortion_g(m2, phi_lip, psi))
        bound = 2.0 * wasserstein(m1, m2, order=1) * (1.0 + 1e-9)
        violations += lhs > bound
    ok_lip = violations == 0

    ok = ok_quad and ok_lip
    detail = (
        f"quadrature gap {worst:.1e} (tol 1e-10); "
        f"{violations}/50 Lipschitz bound violations"
    )
    return ok, detail


def _criterion_7():
    """Mollifier identities, shrinking sup gaps, and order preservation."""
    rng = np.random.default_rng(11)
    worst_mass = 0.0
    p4 = MollifierParams(n=4, z_samples=8)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        xs = rng.uniform(-4.0, 4.0, k)
        ws = rng.random(k) + 0.05
        out = partition_weights(xs, ws, p4)
        worst_mass = max(worst_mass, abs(out.sum() - ws.sum()))

        pts = [(float(x), int(i)) for x, i in zip(xs, rng.integers(0, 2, k))]
        m = make_empirical(pts, ws)
        hat = project_measure(m, sample_simplex(p4, rng), p4)
        for flag in (0, 1):
            before = float(m.ws[m.flags == flag].sum())
            after = float(hat.ws[hat.flags == flag].sum())
            worst_mass = max(worst_mass, abs(before - after))
    ok_mass = worst_mass <= 1e-12

    family = []
    fam_rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(fam_rng.integers(3, 7))
        pts = [
            (float(x), int(i))
            for x, i in zip(fam_rng.uniform(-2.0, 2.0, k), fam_rng.integers(0, 2, k))
        ]
        family.append(make_empirical(pts, fam_rng.random(k) + 0.1))
    u_abs = lambda m: float(np.abs(m.xs[:, 0]) @ m.ws)
    u_pos = lambda m: float(np.maximum(m.xs[:, 0], 0.0) @ m.ws)
    ok_gaps = True
    gap_note = []
    for u in (u_abs, u_pos):
        gaps = []
        for n in (2, 4, 8, 16):
            params = MollifierParams(n=n, z_samples=16)
            gaps.append(max(abs(mollify(u, m, params, seed=5).value - u(m)) for m in family))
        ok_gaps = ok_gaps and all(a > b for a, b in zip(gaps, gaps[1:]))
        gap_note.append(f"{gaps[0]:.3f}->{gaps[-1]:.3f}")

    probe = monotonicity_probe(
        lambda m: m.surviving_mass(), MollifierParams(n=2, z_samples=8), trials=100, seed=3
    )
    ok_mono = probe.n_violations == 0

    ok = ok_mass and ok_gaps and ok_mono
    detail = (
        f"mass identity worst {worst_mass:.1e} (tol 1e-12); sup gaps {', '.join(gap_note)} "
        f"strictly decreasing: {ok_gaps}; {probe.n_violations}/100 order violations"
    )
    return ok, detail


def _criterion_8():
    """Derivative scaling on moment functionals and the flow identity."""
    m3 = make_empirical([(-0.4, 1), (0.5, 0), (1.1, 1)], [0.3, 0.3, 0.4])
    full_mean = lambda m: float(m.xs[:, 0] @ m.ws)

    u_quad = lambda t, m: full_mean(m) ** 2
    zbar = full_mean(m3)
    exact_quad = 2.0 * zbar * (0.9 - zbar)
    rich_err = abs(linear_derivative(u_quad, 0.0, m3, (0.9, 1), eps=1e-2) - exact_quad)

    u_cubic = lambda t, m: full_mean(m) ** 3
    exact_cubic = 3.0 * zbar**2 * (1.3 - zbar)
    eps = np.array([1e-2, 5e-3, 2.5e-3])
    raw = np.array(
        [
            abs(linear_derivative(u_cubic, 0.0, m3, (1.3, 1), eps=e, richardson=False) - exact_cubic)
            for e in eps
        ]
    )
    rich = np.array(
        [abs(linear_derivative(u_cubic, 0.0, m3, (1.3, 1), eps=e) - exact_cubic) for e in eps]
    )
    slope_raw = float(np.polyfit(np.log(eps), np.log(raw), 1)[0])
    slope_rich = float(np.polyfit(np.log(eps), np.log(rich), 1)[0])
    ok_scaling = rich_err <= 1e-10 and 0.9 <= slope_raw <= 1.2 and 1.8 <= slope_rich <= 2.3

    problem = Problem(
        d=1,
        b=lambda t, x, m: -0.35 * x,
        sigma=lambda t, x, m: 0.45 * x,
        f=lambda t, x, m: 0.1 * x[:, 0],
        g=lambda xs, ws: float(xs[:, 0] @ ws),
        horizon=2.0,
    )
    u_sim = make_unstopped_functional(problem, n_steps=48, paths_per_atom=3000, seed=13)
    m = make_empirical([(0.8, 1), (1.1, 1), (1.35, 0)], [0.4, 0.35, 0.25])
    worst_flow = max(
        abs(generator(u_sim, t, m, problem) + running_reward(problem, t, m))
        for t in (0.3, 0.7, 1.2)
    )
    ok_flow = worst_flow <= 5e-2

    ok = ok_scaling and ok_flow
    detail = (
        f"quotient slopes raw {slope_raw:.2f} / extrapolated {slope_rich:.2f}, "
        f"quadratic err {rich_err:.1e}; flow identity worst {worst_flow:.1e} (tol 5e-2)"
    )
    return ok, detail


def _criterion_9():
    """Residual report separates continuation measures from exercise measures."""
    inst = build_instance("standard_put")
    pde = standard_os_pde(inst.problem, inst.psi, inst.pde_cfg)
    u = lambda tt, mm: aggregate_value(mm, pde, inst.psi, t=tt)
    rng = rng_for(909, "classification")

    correct = 0
    for trial in range(40):
        exercise = trial % 2 == 1
        k = int(rng.integers(2, 4))
        lo, hi = (-2.6, -1.8) if exercise else (0.95, 1.6)
        pts = [(float(x), 1) for x in rng.uniform(lo, hi, k)]
        if trial % 5 == 0:
            pts.append((float(rng.uniform(0.0, 2.0)), 0))
        w = rng.uniform(0.2, 1.0, len(pts))
        m = make_empirical(pts, w / w.sum())
        t = float(rng.uniform(0.2, 0.6))
        cfg = ResidualConfig(n_stop_maps=6, seed=int(rng.integers(0, 2**31)), h=0.04)
        rep = obstacle_residual(u, t, m, inst.problem, cfg)
        d_i = rep["d_I_min"]
        if exercise:
            got = d_i is not None and d_i <= 1e-3
        else:
            got = d_i is not None and d_i >= 1e-2 and abs(rep["interior_term"]) <= 2e-2
        correct += got

    ok = correct >= 36
    detail = f"{correct}/40 sampled (t, m) classified correctly (need 36)"
    return ok, detail


def _criterion_10():
    """Exactness layer: stop conservation, transport, terminal enumeration."""
    rng = rng_for(31, "exactness")

    def random_map():
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return StopMap.constant(float(rng.uniform(0.0, 1.0)))
        if kind == 1:
            side = "below" if rng.uniform() < 0.5 else "above"
            return StopMap.threshold(float(rng.normal(0.0, 1.0)), side)
        return StopMap.logistic(float(rng.normal(0.0, 1.0)), float(rng.uniform(0.5, 3.0)))

    worst_cons = 0.0
    for _ in range(25):
        k = int(rng.integers(2, 7))
        pts = [(float(x), int(i)) for x, i in zip(rng.uniform(-3.0, 3.0, k), rng.integers(0, 2, k))]
        w = rng.uniform(0.1, 1.0, k)
        m = make_empirical(pts, w / w.sum())
        m2 = apply_stop(m, random_map())
        worst_cons = max(worst_cons, abs(m2.ws.sum() - m.ws.sum()))
        marg, marg2 = {}, {}
        for x, wt in zip(m.xs[:, 0], m.ws):
            marg[round(float(x), 12)] = marg.get(round(float(x), 12), 0.0) + float(wt)
        for x, wt in zip(m2.xs[:, 0], m2.ws):
            marg2[round(float(x), 12)] = marg2.get(round(float(x), 12), 0.0) + float(wt)
        worst_cons = max(
            worst_cons,
            max(abs(marg[key] - marg2.get(key, 0.0)) for key in marg),
            max(m2.surviving_mass() - m.surviving_mass(), 0.0),
        )
    ok_cons = worst_cons <= 1e-12

    worst_w = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 7))
        order = int(rng.integers(1, 3))
        ms = []
        for _ in range(2):
            pts = [
                (float(x), int(i))
                for x, i in zip(rng.uniform(-2.0, 2.0, n), rng.integers(0, 2, n))
            ]
            ms.append(make_empirical(pts))
        got = wasserstein(ms[0], ms[1], order=order)
        want = _brute_wasserstein(ms[0], ms[1], order)
        worst_w = max(worst_w, abs(got - want))
    ok_w = worst_w <= 1e-8

    # decomposable reward, linear in each survival fraction: corners optimal
    def reward(mm: EmpiricalMeasure) -> float:
        live = mm.flags == 1
        alive_part = float((0.7 * mm.xs[live, 0] + 0.25 * mm.xs[live, 0] ** 2) @ mm.ws[live])
        stopped_part = float(np.maximum(1.0 - mm.xs[~live, 0], 0.0) @ mm.ws[~live])
        return alive_part + stopped_part

    worst_term = 0.0
    for _ in range(5):
        pts = [(float(x), 1) for x in rng.uniform(-1.5, 2.5, 4)]
        pts.append((float(rng.uniform(-1.0, 1.0)), 0))
        w = rng.uniform(0.1, 1.0, 5)
        m = make_empirical(pts, w / w.sum())
        best, _ = terminal_stop_sup(m, reward)
        live_idx = np.flatnonzero(m.flags == 1)
        oracle = -np.inf
        for bits in itertools.product((0, 1), repeat=live_idx.size):
            flags = m.flags.copy()
            flags[live_idx] = bits
            oracle = max(oracle, reward(from_arrays(m.xs, flags, m.ws)))
        worst_term = max(worst_term, abs(best - oracle))

        flat = lambda mm: float(mm.xs[:, 0] @ mm.ws)
        val, _ = terminal_stop_sup(m, flat)
        worst_term = max(worst_term, abs(val - flat(m)))
    ok_term = worst_term <= 1e-12

    ok = ok_cons and ok_w and ok_term
    detail = (
        f"conservation worst {worst_cons:.1e}; transport vs brute force worst "
        f"{worst_w:.1e}; terminal sup vs enumeration worst {worst_term:.1e}"
    )
    return ok, detail


_CRITERIA = (
    ("aggregation identity", _criterion_1),
    ("dynamic programming", _criterion_2),
    ("stop monotonicity", _criterion_3),
    ("mean-variance collapse", _criterion_4),
    ("shortfall duality", _criterion_5),
    ("distortion evaluator", _criterion_6),
    ("mollifier", _criterion_7),
    ("derivative calculus", _criterion_8),
    ("obstacle residual", _criterion_9),
    ("exactness layer", _criterion_10),
)


def run_criterion(index: int) -> CriterionResult:
    """Run one criterion by its 1-based index."""
    if not 1 <= index <= len(_CRITERIA):
        raise ValueError(f"criterion index must lie in 1..{len(_CRITERIA)}")
    name, fn = _CRITERIA[index - 1]
    t0 = time.perf_counter()
    passed, detail = fn()
    ms = int(round((time.perf_counter() - t0) * 1000.0))
    return CriterionResult(index=index, name=name, passed=bool(passed), detail=detail, runtime_ms=ms)


def run_all(quiet: bool = False) -> list[CriterionResult]:
    """Run all criteria in order, printing one line each unless quiet."""
    results = []
    for index in range(1, len(_CRITERIA) + 1):
        result = run_criterion(index)
        if not quiet:
            print(result.line, flush=True)
        results.append(result)
    return results
