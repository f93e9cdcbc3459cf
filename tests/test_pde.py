"""Obstacle solver against analytic values and structural properties."""

import itertools

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.stats import norm

from mfstop import pde as pde_module
from mfstop import risk
from mfstop.catalog import build_instance
from mfstop.dynamics import Problem
from mfstop.measures import make_empirical
from mfstop.pde import (
    PdeConfig,
    _lcp_step,
    _tridiag,
    aggregate_slice,
    aggregate_value,
    stacked_initial_values,
    stacked_os_pde,
    standard_os_pde,
    step_rows,
)

K = 1.0


def put_psi(x):
    return np.maximum(K - x, 0.0)


def brownian_problem(b=0.0):
    return Problem(
        d=1,
        b=lambda t, x, m, b=b: b,
        sigma=lambda t, x, m: 1.0,
        f=None,
        g=lambda p, w: 0.0,
        horizon=1.0,
    )


def small_cfg(**kw):
    defaults = dict(x_lo=K - 6.0, x_hi=K + 6.0, nx=241, nt=200)
    defaults.update(kw)
    return PdeConfig(**defaults)


def test_constant_payoff_gives_constant_surface():
    psi = lambda x: np.full_like(x, 0.7)
    for mode in ("sup", "inf"):
        pde = standard_os_pde(brownian_problem(0.3), psi, small_cfg(), mode=mode)
        assert np.max(np.abs(pde.values - 0.7)) < 1e-12


def test_driftless_put_matches_gaussian_integral():
    # without discounting, early exercise never pays: the surface is the
    # plain expectation E psi(x + sqrt(T) Z)
    cfg = PdeConfig(x_lo=K - 6.0, x_hi=K + 6.0, nx=481, nt=600)
    pde = standard_os_pde(brownian_problem(0.0), put_psi, cfg, mode="sup")
    xs = pde.xs
    d = (K - xs) / 1.0
    oracle = (K - xs) * norm.cdf(d) + norm.pdf(d)
    inner = (oracle >= 0.01) & (np.arange(cfg.nx) >= 5) & (np.arange(cfg.nx) < cfg.nx - 5)
    rel = np.abs(pde.values[0] - oracle) / oracle
    assert rel[inner].max() < 5e-3
    assert np.all(pde.values >= pde.values[-1] - 1e-12)
    assert np.array_equal(pde.values[-1], put_psi(xs))


def exercise_boundary(pde, k, tol=1e-7):
    """Top of the lower binding interval at node k; nan if none.

    Meaningful for put-type payoffs, where the genuine exercise region is
    an interval growing up from the left edge. Scanning the contiguous run
    avoids mistaking the far out-of-the-money zone (where v and psi both
    vanish) for exercise.
    """
    binding = np.abs(pde.values[k] - pde.values[-1]) <= tol
    if not binding[1]:
        return float("nan")
    j = 1
    while j < len(pde.xs) - 1 and binding[j]:
        j += 1
    return float(pde.xs[j - 1])


def test_positive_drift_put_has_monotone_exercise_boundary():
    # upward drift erodes the put, so stopping low x early is strictly
    # optimal and the binding region grows as t -> T
    cfg = small_cfg(nx=361, nt=300)
    pde = standard_os_pde(brownian_problem(0.6), put_psi, cfg, mode="sup")
    bounds = [exercise_boundary(pde, k) for k in range(0, cfg.nt + 1, 25)]
    assert all(np.isfinite(bv) for bv in bounds)
    diffs = np.diff(bounds)
    assert np.all(diffs >= -(pde.xs[1] - pde.xs[0]) - 1e-12)
    assert bounds[-1] > bounds[0]  # strictly grows over the whole horizon


def test_inf_mode_keeps_convex_payoff_exercised_immediately():
    # minimizing E (X_tau - beta)^+ for a martingale: stop at once, v == psi
    beta = 0.8
    psi = lambda x: np.maximum(x - beta, 0.0)
    pde = standard_os_pde(brownian_problem(0.0), psi, small_cfg(), mode="inf")
    assert np.max(np.abs(pde.values - pde.values[-1])) < 1e-12


def brute_force_lcp(lower, diag, upper, rhs, psi, mode):
    """Try every set of interior rows on the obstacle; keep the complementary one."""
    n = len(rhs)
    a = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    sign = 1.0 if mode == "sup" else -1.0
    for mask in itertools.product((False, True), repeat=n - 2):
        on = np.array((True,) + mask + (True,))
        system = np.where(on[:, None], np.eye(n), a)
        v = np.linalg.solve(system, np.where(on, psi, rhs))
        equation_gap = sign * (a @ v - rhs)
        obstacle_gap = sign * (v - psi)
        if np.all(np.where(on, equation_gap, obstacle_gap)[1:-1] >= -1e-12):
            return v
    raise AssertionError("no set of rows satisfies complementarity")


def lcp_step(rhs, lower, diag, upper, psi, on_obstacle, mode):
    """The step kernel on the blocks in the rows of rhs, psi and on_obstacle."""
    rows = (lower, diag, upper, np.max(np.abs(lower) + diag + np.abs(upper)))
    psi_max = np.max(np.abs(psi), axis=1)
    lapack = (scipy.linalg.lapack.dgttrf, scipy.linalg.lapack.dgttrs)
    return _lcp_step(rhs, rows, psi, psi_max, on_obstacle, mode, None, lapack)[0]


def random_m_matrix(rng, n):
    lower = -rng.uniform(0.0, 2.0, n)
    upper = -rng.uniform(0.0, 2.0, n)
    diag = 1.0 + rng.uniform(0.0, 0.5, n) - lower - upper
    return lower, diag, upper


@pytest.mark.parametrize("mode", ["sup", "inf"])
def test_lcp_step_matches_brute_force_enumeration(mode):
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        lower = -rng.uniform(0.0, 2.0, n)
        upper = -rng.uniform(0.0, 2.0, n)
        diag = 1.0 + rng.uniform(0.0, 0.5, n) - lower - upper
        rhs = rng.normal(size=n)
        psi = rng.normal(size=n)
        # ties: rows where the obstacle and the equation data coincide
        psi[rng.random(n) < 0.2] = 0.0
        rhs[rng.random(n) < 0.2] = 0.0
        start = rng.random(n) < 0.5
        start[[0, -1]] = True
        v = lcp_step(rhs[None], lower, diag, upper, psi[None], start[None], mode)[0]
        oracle = brute_force_lcp(lower, diag, upper, rhs, psi, mode)
        assert np.max(np.abs(v - oracle)) < 1e-12
        assert np.all(v >= psi) if mode == "sup" else np.all(v <= psi)


@pytest.mark.parametrize("mode", ["sup", "inf"])
def test_stacked_lcp_step_matches_brute_force_and_single_blocks(monkeypatch, mode):
    # K blocks share one random M-matrix; each block has its own data and
    # warm start, and must equal both the oracle and its own K = 1 solve,
    # also where a block settles before the others and is solved again
    solves = []
    gttrs = scipy.linalg.lapack.dgttrs

    def counted(*args, **kwargs):
        solves.append(None)
        return gttrs(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", counted)
    rng = np.random.default_rng(11)
    uneven = 0  # draws whose blocks settle at different iterations
    for _ in range(40):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, 6))
        lower, diag, upper = random_m_matrix(rng, n)
        rhs = rng.normal(size=(k, n))
        psi = rng.normal(size=(k, n))
        psi[rng.random((k, n)) < 0.2] = 0.0
        rhs[rng.random((k, n)) < 0.2] = 0.0
        start = rng.random((k, n)) < 0.5
        start[:, [0, -1]] = True
        singles, iterations = [], set()
        for j in range(k):
            solves.clear()
            singles.append(lcp_step(rhs[[j]], lower, diag, upper, psi[[j]], start[[j]], mode)[0])
            iterations.add(len(solves))
        uneven += len(iterations) > 1
        v = lcp_step(rhs, lower, diag, upper, psi, start.copy(), mode)
        for j in range(k):
            oracle = brute_force_lcp(lower, diag, upper, rhs[j], psi[j], mode)
            assert np.max(np.abs(v[j] - oracle)) < 1e-12
            assert v[j].tobytes() == singles[j].tobytes()
    assert uneven > 0


def test_fine_grid_with_long_steps_matches_unconstrained_solve():
    # a driftless put is never exercised early, so the obstacle step must
    # reproduce the plain implicit Euler solve; with h = 6e-4 and dt = 0.1
    # the rows of A reach 5.6e5, so two solvers agree only to about
    # eps * cond(A) * max|v| = 2.2e-16 * 2.2e6 * 6 = 3e-9
    cfg = PdeConfig(x_lo=-5.0, x_hi=7.0, nx=20001, nt=10)
    pde = standard_os_pde(brownian_problem(0.0), put_psi, cfg, mode="sup")
    off = -pde.dt / (2.0 * (pde.xs[1] - pde.xs[0]) ** 2)
    ab = np.empty((3, cfg.nx))
    ab[0], ab[1], ab[2] = off, 1.0 - 2.0 * off, off
    ab[0, 1], ab[1, 0], ab[1, -1], ab[2, -2] = 0.0, 1.0, 1.0, 0.0
    v = pde.values[-1]
    for _ in range(cfg.nt):
        v = scipy.linalg.solve_banded((1, 1), ab, v)
    assert np.max(np.abs(pde.values[0] - v)) < 1e-8


@pytest.mark.parametrize(
    "routine,message",
    [("dgttrf", "LAPACK"), ("dgttrs", "did not settle")],
    ids=["lapack-info", "iteration-cap"],
)
def test_obstacle_step_failures_raise(monkeypatch, routine, message):
    # a singular factorisation, or solves that never satisfy complementarity
    gttrf, gttrs = scipy.linalg.lapack.dgttrf, scipy.linalg.lapack.dgttrs

    def singular(*args, **kwargs):
        return gttrf(*args, **kwargs)[:-1] + (1,)

    def stuck(*args, **kwargs):
        v, info = gttrs(*args, **kwargs)
        return np.full_like(v, -5.0), info

    fake = singular if routine == "dgttrf" else stuck
    monkeypatch.setattr(scipy.linalg.lapack, routine, fake)
    with pytest.raises(RuntimeError, match=message):
        standard_os_pde(brownian_problem(0.0), put_psi, small_cfg(), mode="sup")
    # the same failures with three stacked obstacles
    psis = [put_psi, lambda x: np.maximum(x - K, 0.0), lambda x: 0.5 * put_psi(x)]
    steps = step_rows(brownian_problem(0.0), small_cfg())
    with pytest.raises(RuntimeError, match=message):
        stacked_initial_values(steps, psis, mode="sup")
    with pytest.raises(RuntimeError, match=message):
        stacked_os_pde(steps, psis, mode="sup")


def moving_drift_problem():
    return Problem(
        d=1,
        b=lambda t, x, m: 0.3 + 0.5 * t,
        sigma=lambda t, x, m: 1.0,
        f=None,
        g=lambda p, w: 0.0,
        horizon=1.0,
    )


def test_rows_are_rebuilt_only_when_the_coefficients_change(monkeypatch):
    builds = []
    build = pde_module._tridiag

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(pde_module, "_tridiag", counted)
    cfg = small_cfg(nt=40)
    standard_os_pde(brownian_problem(0.3), put_psi, cfg, mode="sup")
    assert len(builds) == 1
    builds.clear()
    standard_os_pde(moving_drift_problem(), put_psi, cfg, mode="sup")
    assert len(builds) == cfg.nt


def reference_lcp_step(rhs, rows, psi, psi_max, on_obstacle, mode):
    """One backward step by policy iteration with one `dgtsv` solve of the
    whole masked system per iteration, and no factors kept."""
    lower, diag, upper, norm_a = rows
    sign = 1.0 if mode == "sup" else -1.0
    project = np.maximum if mode == "sup" else np.minimum
    tol = 1e-13 * norm_a * (np.max(np.abs(rhs), axis=1) + psi_max)
    for _ in range(rhs.shape[1]):
        _, _, _, v, info = scipy.linalg.lapack.dgtsv(
            np.where(on_obstacle, 0.0, lower).ravel()[1:],
            np.where(on_obstacle, 1.0, diag).ravel(),
            np.where(on_obstacle, 0.0, upper).ravel()[:-1],
            np.where(on_obstacle, psi, rhs).ravel(),
        )
        assert info == 0
        v = v.reshape(rhs.shape)
        av = diag * v
        av[:, 1:] += lower[1:] * v[:, :-1]
        av[:, :-1] += upper[:-1] * v[:, 1:]
        equation_gap = sign * (av - rhs)[:, 1:-1]
        obstacle_gap = sign * (v - psi)[:, 1:-1]
        settled = np.max(np.abs(np.minimum(equation_gap, obstacle_gap)), axis=1) <= tol
        if settled.all():
            return project(v, psi)
        flips = obstacle_gap < equation_gap - tol[:, None]
        on_obstacle[~settled, 1:-1] = flips[~settled]
    raise AssertionError("the reference step did not settle")


def reference_sweep(problem, psis, cfg, mode):
    """The backward sweep written out step by step, with nothing reused:
    coefficients, `_tridiag` and `reference_lcp_step` at every step.
    Returns the surfaces, shape (nt+1, K, nx)."""
    xs = np.linspace(cfg.x_lo, cfg.x_hi, cfg.nx)
    ts = np.linspace(0.0, problem.horizon, cfg.nt + 1)
    dt = ts[1] - ts[0]
    x_col = xs[:, None]
    psi_values = np.array([np.asarray(psi(xs), dtype=float) for psi in psis])
    psi_max = np.max(np.abs(psi_values), axis=1)
    on_obstacle = np.ones(psi_values.shape, dtype=bool)
    values = np.empty((cfg.nt + 1,) + psi_values.shape)
    values[-1] = psi_values
    for k in range(cfg.nt - 1, -1, -1):
        b = np.broadcast_to(problem.drift(ts[k], x_col, None), x_col.shape)[:, 0]
        sig = np.broadcast_to(problem.vol(ts[k], x_col, None), x_col.shape)[:, 0]
        rows = _tridiag(b, sig**2, dt, xs[1] - xs[0])
        rhs = values[k + 1]
        if problem.f is not None:
            rhs = rhs + dt * problem.rate(ts[k], x_col, None)
        values[k] = reference_lcp_step(rhs, rows, psi_values, psi_max, on_obstacle, mode)
    return values


SWEEP_CASES = ["sup", "inf", "switch", "shortfall", "mean_variance", "mean_variance_gbm", "put"]


def sweep_case(name):
    """(problem, payoffs, grid, mode) of one backward sweep to check."""
    if name in ("sup", "inf"):
        # a drift that moves with t rebuilds the rows every step, and the
        # running reward enters every block's right-hand side
        problem = Problem(
            d=1,
            b=lambda t, x, m: 0.8 - 1.6 * t,
            sigma=lambda t, x, m: 0.7 + 0.1 * np.cos(x),
            f=lambda t, x, m: 0.2 * np.sin(x[:, 0]) - 0.1 * t,
            g=lambda p, w: 0.0,
            horizon=1.0,
        )
        psis = [
            lambda x, s=s: np.maximum(s - x, 0.0) + 0.1 * s * x for s in (-0.5, 0.4, 1.0, 1.7)
        ]
        return problem, psis, small_cfg(nt=80), name
    if name == "switch":
        # driftless for t >= 1/2, where stopping at once is optimal and every
        # step repeats the last; the drift that starts below t = 1/2 makes
        # waiting pay, though the right-hand side and warm start still repeat
        problem = Problem(
            d=1,
            b=lambda t, x, m: 0.0 if t >= 0.5 else 1.0,
            sigma=lambda t, x, m: 1.0,
            f=None,
            g=lambda p, w: 0.0,
            horizon=1.0,
        )
        return problem, [lambda x: np.minimum(x, K)], small_cfg(nt=80), "sup"
    if name == "shortfall":
        inst = build_instance("shortfall")
        psis = [risk._shortfall_payoff(beta) for beta in np.linspace(-5.0, 7.0, 17)]
        return inst.problem, psis, inst.pde_cfg, "inf"
    if name == "put":
        inst = build_instance("standard_put")
        return inst.problem, [inst.psi], inst.pde_cfg, "sup"
    # the coarse slope grids of the mean-variance duals; the GBM steps need
    # several policy iterations, so blocks settle at different iterations
    # and the warm starts change from step to step
    inst = build_instance(name)
    lam = inst.params["lam"]
    alphas = np.linspace(*risk._meanvar_alpha_bounds(inst.m0, lam), 21)
    return inst.problem, [risk._meanvar_payoff(a, lam) for a in alphas], inst.pde_cfg, "sup"


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_stacked_sweep_equals_separate_solves(case):
    # both stacked entry points and the separate solves are the plain
    # step-by-step sweep, byte for byte
    problem, psis, cfg, mode = sweep_case(case)
    reference = reference_sweep(problem, psis, cfg, mode)
    steps = step_rows(problem, cfg)
    initial = stacked_initial_values(steps, psis, mode=mode)
    surfaces = stacked_os_pde(steps, psis, mode=mode)
    assert initial.tobytes() == reference[0].tobytes()
    for j, surface in enumerate(surfaces):
        assert surface.values.tobytes() == reference[:, j].tobytes()
        assert np.array_equal(surface.values[-1], psis[j](steps.xs))
    m = make_empirical([(0.3, 1), (0.9, 1), (1.4, 0)], [0.3, 0.5, 0.2])
    for j, psi in enumerate(psis):
        one = standard_os_pde(problem, psi, cfg, mode=mode)
        assert np.array_equal(steps.xs, one.xs)
        assert one.values.tobytes() == reference[:, j].tobytes()
        assert aggregate_slice(m, steps.xs, initial[j], psi) == aggregate_value(m, one, psi)
    with pytest.raises(ValueError, match="payoff"):
        stacked_initial_values(steps, [])


def reference_initial_values(steps, psis, mode="sup"):
    """`stacked_initial_values` through `reference_sweep`."""
    return reference_sweep(steps.problem, psis, steps.cfg, mode)[0]


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_duals_equal_their_reference_sweeps(monkeypatch, case):
    # both risk duals on each problem and grid, with every sweep solved by
    # the reference: the same values, slopes and levels, bit for bit
    problem, _, cfg, _ = sweep_case(case)
    if case in ("sup", "inf", "switch"):
        m = make_empirical([(0.3, 1), (0.9, 1), (1.4, 0)], [0.3, 0.5, 0.2])
    else:
        m = build_instance(case if case != "put" else "standard_put").m0

    def duals():
        mv = risk.mean_variance_dual(m, problem, 1.0, cfg)
        es = risk.expected_shortfall_value(m, problem, 0.7, cfg)
        return np.array([mv.value, mv.alpha_star, es.value, es.beta_star])

    solved = duals()
    monkeypatch.setattr(risk, "stacked_initial_values", reference_initial_values)
    assert solved.tobytes() == duals().tobytes()


@pytest.mark.parametrize("case", ["sup", "inf", "switch"])
def test_sweeps_that_share_step_rows_equal_separate_solves(case):
    # two sweeps with different payoffs over one prepared set of rows: in
    # 'sup' and 'inf' the rows differ at every step and the running reward
    # makes a new right-hand side at every step
    problem, psis, cfg, mode = sweep_case(case)
    steps = step_rows(problem, cfg)
    for payoffs in (psis, [put_psi, psis[0]]):
        reference = reference_sweep(problem, payoffs, cfg, mode)
        assert pde_module._sweep(steps, payoffs, mode, True).tobytes() == reference.tobytes()
        initial = stacked_initial_values(steps, payoffs, mode)
        assert initial.tobytes() == reference[0].tobytes()
        for j, surface in enumerate(stacked_os_pde(steps, payoffs, mode)):
            assert surface.values.tobytes() == reference[:, j].tobytes()
            assert surface.xs is steps.xs and surface.ts is steps.ts


def test_time_homogeneous_steps_share_one_rows_object():
    problem, cfg = brownian_problem(0.3), small_cfg(nt=40)
    steps = step_rows(problem, cfg)
    assert len(steps.rows) == cfg.nt and all(rows is steps.rows[0] for rows in steps.rows)


def test_step_rows_are_read_only():
    problem, cfg = moving_drift_problem(), small_cfg(nt=40)
    steps = step_rows(problem, cfg)
    for rows in (steps.rows[0], steps.rows[-1]):
        for row in rows[:3]:
            with pytest.raises(ValueError, match="read-only"):
                row[1] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                row *= 2.0


def test_a_step_that_repeats_the_last_one_is_not_solved_again(monkeypatch):
    # stopping at once is optimal for both shipped duals, so every step of a
    # sweep after its first repeats the rows and right-hand side of the step
    # before and leaves its warm start as it found it; a step of the GBM
    # dual or of a put changes the right-hand side, and a moving drift the
    # rows
    calls = []
    step = pde_module._lcp_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(pde_module, "_lcp_step", counted)
    es = build_instance("shortfall")
    risk.expected_shortfall_value(es.m0, es.problem, 0.8, es.pde_cfg)
    assert len(calls) == 10  # one step per sweep: the scan and 9 rounds
    calls.clear()
    mv = build_instance("mean_variance", lam=1.0)
    risk.mean_variance_dual(mv.m0, mv.problem, 1.0, mv.pde_cfg)
    assert len(calls) == 3  # the slope grid and 2 refine rounds
    calls.clear()
    gbm = build_instance("mean_variance_gbm")
    risk.mean_variance_dual(gbm.m0, gbm.problem, 0.5, gbm.pde_cfg)
    assert len(calls) == 1080  # every step changes its right-hand side
    calls.clear()
    put = build_instance("standard_put")
    standard_os_pde(put.problem, put.psi, put.pde_cfg)
    assert len(calls) == put.pde_cfg.nt
    calls.clear()
    cfg = small_cfg(nt=40)
    standard_os_pde(moving_drift_problem(), put_psi, cfg, mode="sup")
    assert len(calls) == cfg.nt


def test_each_obstacle_set_is_factored_once(monkeypatch):
    # a step reuses the factors of the step before when its rows are the
    # same object; the put's obstacle set moves at one step, where the
    # second policy iteration factors again, every dual sweep solves once,
    # and a drift that moves with t makes new rows, so new factors, at every
    # step
    counts = {"dgttrf": 0, "dgttrs": 0}
    for name in counts:
        routine = getattr(scipy.linalg.lapack, name)

        def counted(*args, name=name, routine=routine, **kwargs):
            counts[name] += 1
            return routine(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)

    def tally():
        result = (counts["dgttrf"], counts["dgttrs"])
        counts.update(dgttrf=0, dgttrs=0)
        return result

    put = build_instance("standard_put")
    standard_os_pde(put.problem, put.psi, put.pde_cfg)
    assert tally() == (2, 601)
    mv = build_instance("mean_variance", lam=1.0)
    risk.mean_variance_dual(mv.m0, mv.problem, 1.0, mv.pde_cfg)
    assert tally() == (3, 3)
    es = build_instance("shortfall")
    risk.expected_shortfall_value(es.m0, es.problem, 0.7, es.pde_cfg)
    assert tally() == (10, 10)
    standard_os_pde(moving_drift_problem(), put_psi, small_cfg(nt=40), mode="sup")
    assert tally() == (58, 58)


@pytest.mark.parametrize("moved,solves", [(False, 1), (True, 40)])
def test_a_step_that_moved_its_warm_start_is_solved_again(monkeypatch, moved, solves):
    # a step that returns its own right-hand side makes every later step
    # repeat the rows and right-hand side; it may be skipped only when the
    # solve left the warm start as it found it
    calls = []

    def fake_step(rhs, *args):
        calls.append(None)
        return rhs.copy(), moved, None

    monkeypatch.setattr(pde_module, "_lcp_step", fake_step)
    standard_os_pde(brownian_problem(0.3), put_psi, small_cfg(nt=40), mode="sup")
    assert len(calls) == solves


def test_interpolation_and_domain_guard():
    cfg = small_cfg()
    pde = standard_os_pde(brownian_problem(0.0), put_psi, cfg, mode="sup")
    on_node = pde.value(0.0, pde.xs[13])
    assert on_node == pytest.approx(pde.values[0][13], abs=1e-14)
    mid = 0.5 * (pde.xs[13] + pde.xs[14])
    lo, hi = sorted([pde.values[0][13], pde.values[0][14]])
    assert lo - 1e-14 <= pde.value(0.0, mid) <= hi + 1e-14
    with pytest.raises(ValueError, match="domain"):
        pde.value(0.0, cfg.x_hi + 1.0)
    with pytest.raises(ValueError, match="time"):
        pde.value(2.5, 0.0)
    # a non-finite point passes no range test, and interpolates to nothing
    for x in (np.nan, [0.5, np.nan], np.inf, -np.inf):
        with pytest.raises(ValueError, match="not finite"):
            pde.value(0.0, x)
        with pytest.raises(ValueError, match="not finite"):
            pde_module._slice_value(pde.xs, pde.values[0], x)


@pytest.mark.parametrize(
    "kw,message",
    [
        (dict(x_lo=float("nan")), "finite x_lo < x_hi"),
        (dict(x_hi=float("inf")), "finite x_lo < x_hi"),
        (dict(x_lo=float("-inf")), "finite x_lo < x_hi"),
        (dict(x_lo=2.0, x_hi=2.0), "finite x_lo < x_hi"),
        (dict(nx=241.0), "nx must be an integer >= 5"),
        (dict(nx=4), "nx must be an integer >= 5"),
        (dict(nx=True), "nx must be an integer >= 5"),
        (dict(nt=200.0), "nt must be an integer >= 1"),
        (dict(nt=0), "nt must be an integer >= 1"),
        (dict(nt=True), "nt must be an integer >= 1"),
    ],
)
def test_pde_config_refuses_a_bad_grid(kw, message):
    with pytest.raises(ValueError, match=message):
        small_cfg(**kw)


def test_aggregation_of_point_masses():
    cfg = small_cfg()
    pde = standard_os_pde(brownian_problem(0.0), put_psi, cfg, mode="sup")
    x0 = 0.85
    alive = make_empirical([(x0, 1)])
    stopped = make_empirical([(x0, 0)])
    assert aggregate_value(alive, pde, put_psi) == pytest.approx(
        float(pde.value(0.0, x0)), abs=1e-14
    )
    assert aggregate_value(stopped, pde, put_psi) == pytest.approx(
        put_psi(np.array([x0]))[0], abs=1e-14
    )
    mixed = make_empirical([(0.7, 1), (1.1, 0)], [0.6, 0.4])
    expect = 0.6 * float(pde.value(0.0, 0.7)) + 0.4 * put_psi(np.array([1.1]))[0]
    assert aggregate_value(mixed, pde, put_psi) == pytest.approx(expect, abs=1e-14)


def test_aggregation_rejects_atoms_off_domain():
    cfg = small_cfg()
    pde = standard_os_pde(brownian_problem(0.0), put_psi, cfg, mode="sup")
    m = make_empirical([(K + 7.0, 1)])
    with pytest.raises(ValueError, match="domain"):
        aggregate_value(m, pde, put_psi)
    with pytest.raises(ValueError, match="domain"):
        aggregate_slice(m, pde.xs, pde.values[0], put_psi)
