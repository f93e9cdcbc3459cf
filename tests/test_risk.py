"""Risk reductions: shortfall forms, mean-variance duality, distortions."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_solver import _counting_steps

from mfstop import risk
from mfstop.catalog import build_instance
from mfstop.dynamics import Problem, TimeGrid
from mfstop.measures import StopMap, make_empirical, wasserstein
from mfstop.pde import PdeConfig
from mfstop.policy import Policy, evaluate_policy
from mfstop.risk import (
    distortion_g,
    es_beta_form,
    expected_shortfall,
    expected_shortfall_value,
    mean_variance_dual,
    meanvar_alpha_star_path,
)
from mfstop.solver import SearchConfig, solve_value


def brownian_problem(b=0.0, g=None):
    return Problem(
        d=1,
        b=lambda t, x, m, b=b: b,
        sigma=lambda t, x, m: 1.0,
        f=None,
        g=g if g is not None else (lambda p, w: 0.0),
        horizon=1.0,
    )


THREE_ATOMS = make_empirical([(-0.5, 1), (0.3, 1), (1.2, 1)], [0.25, 0.35, 0.4])


# ---------------------------------------------------------------------------
# static expected shortfall
# ---------------------------------------------------------------------------


def test_expected_shortfall_hand_values():
    v = [1.0, 2.0, 3.0, 4.0]
    w = [0.25] * 4
    assert abs(expected_shortfall(v, w, 0.5) - 3.5) < 1e-12
    assert abs(expected_shortfall(v, w, 0.75) - 4.0) < 1e-12
    assert abs(expected_shortfall(v, w, 0.25) - 3.0) < 1e-12


def test_point_mass_shortfall_is_the_point():
    for alpha in (0.1, 0.5, 0.9):
        assert expected_shortfall([2.3], [1.0], alpha) == pytest.approx(2.3, abs=1e-14)
        val, beta = es_beta_form([2.3], [1.0], alpha)
        assert val == pytest.approx(2.3, abs=1e-14)
        assert beta == 2.3


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-40.0, 40.0),
            st.floats(0.05, 1.0),
        ),
        min_size=1,
        max_size=12,
    ),
    alpha=st.floats(0.05, 0.95),
)
def test_beta_form_agrees_with_quantile_form(data, alpha):
    v = np.array([d[0] for d in data])
    w = np.array([d[1] for d in data])
    w = w / w.sum()
    direct = expected_shortfall(v, w, alpha)
    dual, beta = es_beta_form(v, w, alpha)
    assert dual == pytest.approx(direct, abs=1e-10, rel=1e-10)
    # the reported beta must itself be a minimizer of the dual objective
    obj = beta + np.maximum(v - beta, 0.0) @ w / (1.0 - alpha)
    assert obj == pytest.approx(dual, abs=1e-10, rel=1e-10)


def test_beta_star_is_the_lower_quantile_off_ties():
    xs, ws = np.array([-0.5, 0.3, 1.2]), np.array([0.25, 0.35, 0.4])
    value, beta = es_beta_form(xs, ws, 0.5)
    # cumulative weights are 0.25, 0.60, 1.0 so q_{0.5} = 0.3
    assert beta == 0.3
    assert value == pytest.approx(1.02, abs=1e-12)
    assert expected_shortfall(xs, ws, 0.5) == pytest.approx(1.02, abs=1e-12)


def test_shortfall_input_validation():
    with pytest.raises(ValueError):
        expected_shortfall([1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        expected_shortfall([1.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        es_beta_form([1.0, 2.0], [0.7, 0.7], 0.5)


# ---------------------------------------------------------------------------
# mean-field shortfall through the beta sweep
# ---------------------------------------------------------------------------


def es_pde_cfg(**kw):
    defaults = dict(x_lo=-7.5, x_hi=8.5, nx=281, nt=120)
    defaults.update(kw)
    return PdeConfig(**defaults)


def test_driftless_stop_now_attains_static_shortfall():
    # a martingale only spreads the law out, and averaging the worst tail
    # is monotone under that spreading, so stopping immediately is optimal
    # and the dynamic value equals the static shortfall of the start law
    static = expected_shortfall(np.array([-0.5, 0.3, 1.2]), [0.25, 0.35, 0.4], 0.5)
    res = expected_shortfall_value(
        THREE_ATOMS,
        brownian_problem(0.0),
        0.5,
        es_pde_cfg(),
        scan_points=13,
        xtol=1e-4,
    )
    assert abs(res.value - static) <= 0.02
    assert abs(res.beta_star - 0.3) <= 0.1


def test_policy_sweep_never_beats_stopping_now():
    alpha = 0.5
    g_es = lambda p, w: -expected_shortfall(p[:, 0], w, alpha)
    problem = brownian_problem(0.0, g=g_es)
    grid = TimeGrid(2, problem.horizon)
    stop_now = evaluate_policy(THREE_ATOMS, problem, grid, Policy((StopMap.constant(0.0), StopMap.constant(1.0))), 400, seed=7)
    assert stop_now.value == pytest.approx(-1.02, abs=1e-12)
    assert stop_now.mc_stderr < 1e-12
    for c0 in (0.0, 0.5, 1.0):
        for c1 in (0.0, 0.5, 1.0):
            est = evaluate_policy(
                THREE_ATOMS, problem, grid, Policy((StopMap.constant(c0), StopMap.constant(c1))), 400, seed=7
            )
            assert est.value <= stop_now.value + 3 * est.mc_stderr + 0.01


def test_shortfall_bracket_failure_raises():
    with pytest.raises(ValueError, match="bracket"):
        expected_shortfall_value(
            THREE_ATOMS,
            brownian_problem(0.0),
            0.5,
            es_pde_cfg(nx=81, nt=40),
            beta_lo=-60.0,
            beta_hi=-50.0,
            scan_points=5,
        )


@pytest.mark.parametrize(
    "kw",
    [
        dict(xtol=0.0),
        dict(xtol=-1.0),
        dict(xtol=float("nan")),
        dict(xtol=float("inf")),
        dict(beta_lo=1.0, beta_hi=1.0),
        dict(beta_lo=3.0, beta_hi=-3.0),
        dict(beta_lo=float("-inf"), beta_hi=3.0),
        dict(scan_points=2),
        dict(scan_points=17.0),
        dict(scan_points=True),
    ],
)
def test_shortfall_value_rejects_bad_search_inputs(monkeypatch, kw):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a bad search input reached the obstacle solver")

    monkeypatch.setattr(risk, "step_rows", no_sweep)
    monkeypatch.setattr(risk, "stacked_initial_values", no_sweep)
    with pytest.raises(ValueError, match="xtol|beta bounds|scan_points"):
        expected_shortfall_value(
            THREE_ATOMS, brownian_problem(0.0), 0.5, es_pde_cfg(nx=81, nt=40), **kw
        )


def counted_sweeps(monkeypatch) -> list:
    """Record the number of obstacles of every stacked sweep the duals make."""
    sizes = []
    sweep = risk.stacked_initial_values

    def counted(steps, psis, *args, **kwargs):
        sizes.append(len(psis))
        return sweep(steps, psis, *args, **kwargs)

    monkeypatch.setattr(risk, "stacked_initial_values", counted)
    return sizes


def test_shipped_shortfall_makes_one_sweep_per_scan(monkeypatch):
    # the 17-level scan, then the 9 rounds that shrink its bracket to xtol;
    # all ten sweeps share the step rows, so the drift is evaluated once per
    # step of the dual
    sizes = counted_sweeps(monkeypatch)
    inst = build_instance("shortfall")
    calls = []
    drift = inst.problem.b

    def counted(t, x, m):
        calls.append(t)
        return drift(t, x, m)

    problem = dataclasses.replace(inst.problem, b=counted)
    expected_shortfall_value(inst.m0, problem, 0.8, inst.pde_cfg)
    assert len(sizes) == 10
    assert sizes[0] == 17 and max(sizes[1:]) <= 9
    assert len(calls) == inst.pde_cfg.nt == 300


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.95])
def test_shipped_shortfall_reaches_static_shortfall_within_xtol(alpha):
    # martingale dynamics, so stopping at once is optimal and the dual value
    # is the static shortfall of m0, up to the default xtol of the level
    inst = build_instance("shortfall", alpha=alpha)
    xs, ws = inst.m0.x_marginal()
    res = expected_shortfall_value(inst.m0, inst.problem, alpha, inst.pde_cfg)
    assert abs(res.value - expected_shortfall(xs[:, 0], ws, alpha)) <= 1e-5


def test_shortfall_value_refuses_threads_other_than_one():
    with pytest.raises(ValueError, match="threads must be 1"):
        expected_shortfall_value(
            THREE_ATOMS, brownian_problem(0.0), 0.5, es_pde_cfg(nx=81, nt=40), threads=2
        )


# ---------------------------------------------------------------------------
# mean-variance duality
# ---------------------------------------------------------------------------


def mv_pde_cfg(**kw):
    defaults = dict(x_lo=-6.5, x_hi=8.5, nx=301, nt=120)
    defaults.update(kw)
    return PdeConfig(**defaults)


def test_martingale_collapse_recovers_static_objective():
    # driftless dynamics keep the mean and only grow the second moment, so
    # the best move is to stop everything at once and the value is the
    # objective of the start law; the maximizing slope is 1 + lam * mean
    m = make_empirical([(0.2, 1), (1.0, 1), (1.8, 1)], [0.5, 0.3, 0.2])
    lam = 1.0
    z1 = 0.2 * 0.5 + 1.0 * 0.3 + 1.8 * 0.2
    z2 = 0.04 * 0.5 + 1.0 * 0.3 + 3.24 * 0.2
    target = z1 + 0.5 * lam * z1 * z1 - 0.5 * lam * z2
    res = mean_variance_dual(
        m, brownian_problem(0.0), lam, mv_pde_cfg(), grid_points=13, refine_rounds=3
    )
    assert res.value == pytest.approx(target, abs=5e-3)
    assert res.alpha_star == pytest.approx(1.0 + lam * z1, abs=0.05)


def test_lambda_zero_reduces_to_plain_mean():
    m = make_empirical([(0.2, 1), (1.0, 1), (1.8, 1)], [0.5, 0.3, 0.2])
    res = mean_variance_dual(m, brownian_problem(0.0), 0.0, mv_pde_cfg())
    assert res.value == pytest.approx(0.76, abs=1e-6)
    assert res.alpha_star == 1.0


def test_mean_variance_validation():
    m = make_empirical([(0.5, 1)])
    with pytest.raises(ValueError):
        mean_variance_dual(m, brownian_problem(0.0), -0.5, mv_pde_cfg())
    with pytest.raises(ValueError, match="threads must be 1"):
        mean_variance_dual(m, brownian_problem(0.0), 1.0, mv_pde_cfg(), threads=2)
    with pytest.raises(ValueError, match="alpha-grid"):
        mean_variance_dual(
            m,
            brownian_problem(0.0),
            1.0,
            mv_pde_cfg(nx=121, nt=40),
            alpha_bounds=(5.0, 6.0),
            grid_points=5,
        )


@pytest.mark.parametrize(
    "kw,message",
    [
        (dict(lam=float("nan")), "lam must be finite"),
        (dict(lam=float("inf")), "lam must be finite"),
        (dict(grid_points=2), "grid_points"),
        (dict(refine_rounds=-1), "refine_rounds"),
        (dict(alpha_bounds=(float("nan"), 3.0)), "alpha bounds must be finite"),
        (dict(alpha_bounds=(0.0, float("inf"))), "alpha bounds must be finite"),
        (dict(grid_points=21.0), "grid_points must be an integer"),
        (dict(refine_rounds=1.5), "refine_rounds must be an integer"),
        (dict(refine_rounds=True), "refine_rounds must be an integer"),
        (dict(lam=0.0, alpha_bounds=(3.0, 1.0)), "alpha bounds must be finite"),
        (dict(lam=0.0, alpha_bounds=(float("nan"), 3.0)), "alpha bounds must be finite"),
    ],
)
def test_mean_variance_dual_rejects_bad_search_inputs(monkeypatch, kw, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a bad search input reached the obstacle solver")

    monkeypatch.setattr(risk, "step_rows", no_sweep)
    monkeypatch.setattr(risk, "stacked_initial_values", no_sweep)
    kw = {"lam": 1.0, **kw}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            mean_variance_dual(
                make_empirical([(0.5, 1)]), brownian_problem(0.0), pde_cfg=mv_pde_cfg(), **kw
            )


def test_alpha_star_path_refuses_a_non_finite_lam():
    with pytest.raises(ValueError, match="finite lam"):
        meanvar_alpha_star_path(
            make_empirical([(0.5, 1)]),
            brownian_problem(0.0),
            float("nan"),
            mv_pde_cfg(),
            TimeGrid(4, 1.0),
        )


@pytest.mark.parametrize(
    "kw,message",
    [
        (dict(grid_points=2.5), "grid_points must be an integer"),
        (dict(grid_points=0), "grid_points must be an integer"),
        (dict(grid_points=True), "grid_points must be an integer"),
        (dict(checkpoints=2.5), "checkpoints must be an integer"),
        (dict(checkpoints=0), "checkpoints must be an integer"),
    ],
)
def test_alpha_star_path_refuses_bad_counts(monkeypatch, kw, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a bad count reached the obstacle solver")

    monkeypatch.setattr(risk, "step_rows", no_sweep)
    monkeypatch.setattr(risk, "stacked_os_pde", no_sweep)
    inst = build_instance("mean_variance", lam=1.0)
    grid = TimeGrid(8, inst.problem.horizon)
    with pytest.raises(ValueError, match=message):
        meanvar_alpha_star_path(inst.m0, inst.problem, 1.0, inst.pde_cfg, grid, **kw)


@pytest.mark.parametrize("bounds", [(3.0, 1.0), (2.0, 2.0), (float("nan"), 3.0)])
def test_alpha_star_path_refuses_bad_alpha_bounds(monkeypatch, bounds):
    def no_sweep(*args, **kwargs):
        raise AssertionError("bad alpha bounds reached the obstacle solver")

    monkeypatch.setattr(risk, "step_rows", no_sweep)
    inst = build_instance("mean_variance", lam=1.0)
    grid = TimeGrid(8, inst.problem.horizon)
    with pytest.raises(ValueError, match="alpha bounds must be finite and increasing"):
        meanvar_alpha_star_path(
            inst.m0, inst.problem, 1.0, inst.pde_cfg, grid, paths_per_atom=20, alpha_bounds=bounds
        )


def test_alpha_star_path_is_flat_when_stopping_now_is_optimal():
    # with driftless dynamics the time-0 rule stops everything at once, so
    # the visited law never changes and the re-solved slope cannot move
    m = make_empirical([(0.2, 1), (1.0, 1), (1.8, 1)], [0.5, 0.3, 0.2])
    path = meanvar_alpha_star_path(
        m,
        brownian_problem(0.0),
        1.0,
        mv_pde_cfg(nx=201, nt=60),
        TimeGrid(4, 1.0),
        checkpoints=3,
        paths_per_atom=64,
        seed=3,
        grid_points=15,
    )
    assert len(path) == 3
    stars = {round(p["alpha_star"], 10) for p in path}
    assert len(stars) == 1


def test_alpha_star_path_runs_its_rule_once(monkeypatch):
    # every reported law is a checkpoint of one run over the 8 nodes (one
    # run per reported node took 0 + 2 + 5 + 7 = 14 Euler steps)
    steps = _counting_steps(monkeypatch)
    inst = build_instance("mean_variance", lam=1.0)
    grid = TimeGrid(8, inst.problem.horizon)
    path = meanvar_alpha_star_path(
        inst.m0, inst.problem, 1.0, inst.pde_cfg, grid, checkpoints=4, paths_per_atom=20
    )
    assert [p["t"] for p in path] == [float(grid.nodes[k]) for k in (0, 2, 5, 7)]
    assert len(steps) == grid.n


def test_mean_variance_dual_makes_one_sweep_per_slope_grid(monkeypatch):
    # the coarse grid and the new slopes of each of the two refine rounds
    # are one sweep each, and the sweeps share the step rows, so the dual
    # evaluates the drift once per step
    sizes = counted_sweeps(monkeypatch)
    inst = build_instance("mean_variance", lam=1.0)
    calls = []
    drift = inst.problem.b

    def counted(t, x, m):
        calls.append(t)
        return drift(t, x, m)

    problem = dataclasses.replace(inst.problem, b=counted)
    res = mean_variance_dual(inst.m0, problem, 1.0, inst.pde_cfg, refine_rounds=2)
    assert len(sizes) == 1 + 2 and sizes[0] == 21 and max(sizes[1:]) <= 9
    assert len(calls) == inst.pde_cfg.nt
    assert (repr(res.value), repr(res.alpha_star)) == ("0.5648000000000001", "1.7599999999999998")


def test_gbm_dual_dominates_monte_carlo_search():
    # the dual evaluated on any slope grid is a lower bound of the true
    # value from below-tangency, but it should still beat (or match) what a
    # direct forward policy search finds on the raw nonlinear objective
    lam = 0.5
    problem = Problem(
        d=1,
        b=lambda t, x, m: -0.35 * x,
        sigma=lambda t, x, m: 0.45 * x,
        f=None,
        g=lambda p, w: float(
            p[:, 0] @ w
            + 0.5 * lam * (p[:, 0] @ w) ** 2
            - 0.5 * lam * (p[:, 0] ** 2 @ w)
        ),
        horizon=2.0,
    )
    m0 = make_empirical([(0.8, 1), (1.1, 1), (1.5, 1)], [0.4, 0.35, 0.25])
    dual = mean_variance_dual(
        m0,
        problem,
        lam,
        PdeConfig(x_lo=0.0, x_hi=6.0, nx=241, nt=150),
        grid_points=11,
        refine_rounds=2,
    )
    est, _pol = solve_value(
        m0,
        problem,
        TimeGrid(8, problem.horizon),
        SearchConfig(paths_per_atom=250, coarse_points=7, refine_rounds=2),
        seed=11,
    )
    assert dual.value >= est.value - 3.0 * est.mc_stderr - 0.01


# ---------------------------------------------------------------------------
# distortion functional
# ---------------------------------------------------------------------------


def layer_quadrature(levels, weights, phi):
    """Independent route: integrate phi of the tail mass over payoff levels."""
    levels = np.asarray(levels, dtype=float)
    weights = np.asarray(weights, dtype=float)
    grid = np.unique(np.concatenate([[0.0], levels]))
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        tail = weights[levels >= hi].sum()
        total += (hi - lo) * phi(tail)
    return total


def test_identity_distortion_is_the_expectation():
    m = make_empirical(
        [(-1.0, 0), (0.2, 1), (0.9, 0), (1.7, 1)], [0.1, 0.4, 0.3, 0.2]
    )
    psi = lambda x: x[:, 0] ** 2
    xs, ws = m.x_marginal()
    assert distortion_g(m, lambda u: u, psi) == pytest.approx(
        float(psi(xs) @ ws), abs=1e-12
    )


def test_distortion_point_mass_is_psi():
    m = make_empirical([(1.3, 0)])
    g = distortion_g(m, lambda u: np.power(u, 0.7), lambda x: np.abs(x[:, 0]))
    assert g == pytest.approx(1.3, abs=1e-12)


def test_distortion_square_phi_against_quadrature():
    m = make_empirical([(2.0, 1), (0.5, 0), (1.25, 1)], [0.2, 0.5, 0.3])
    phi = lambda u: np.asarray(u) ** 2
    psi = lambda x: x[:, 0]
    got = distortion_g(m, phi, psi)
    # hand value: 0.5 * 1 + 0.75 * 0.25 + 0.75 * 0.04
    assert got == pytest.approx(0.7175, abs=1e-12)
    assert got == pytest.approx(layer_quadrature([2.0, 0.5, 1.25], [0.2, 0.5, 0.3], phi), abs=1e-12)


@given(shift=st.floats(0.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_distortion_shift_identity(shift):
    m = make_empirical([(0.1, 1), (0.6, 0), (1.4, 1)], [0.3, 0.3, 0.4])
    phi = lambda u: np.power(u, 0.7)
    base = distortion_g(m, phi, lambda x: np.abs(x[:, 0]))
    moved = distortion_g(m, phi, lambda x: np.abs(x[:, 0]) + shift)
    assert moved == pytest.approx(base + shift, abs=1e-9)


def test_distortion_monotone_in_psi():
    m = make_empirical([(0.1, 1), (0.6, 0), (1.4, 1)], [0.3, 0.3, 0.4])
    phi = lambda u: np.power(u, 0.7)
    low = distortion_g(m, phi, lambda x: np.abs(x[:, 0]))
    high = distortion_g(m, phi, lambda x: np.abs(x[:, 0]) + 0.2 * (x[:, 0] > 0.5))
    assert high >= low - 1e-12


def test_distortion_validation():
    m = make_empirical([(0.5, 1)])
    with pytest.raises(ValueError):
        distortion_g(m, lambda u: np.asarray(u) + 0.1, lambda x: np.abs(x[:, 0]))
    with pytest.raises(ValueError):
        distortion_g(m, lambda u: u, lambda x: x[:, 0] - 10.0)


def test_distortion_wasserstein_lipschitz_bound():
    # phi with slope at most 2 and a 1-Lipschitz psi give a 2 W_1 modulus;
    # checked on random stopped-atom pairs against the exact transport cost
    rng = np.random.default_rng(42)
    phi = lambda u: 1.0 - (1.0 - np.asarray(u)) ** 2
    psi = lambda x: np.abs(x[:, 0])
    for _ in range(8):
        n1, n2 = rng.integers(3, 9, size=2)
        m1 = make_empirical(
            [(float(x), 0) for x in rng.uniform(-2, 2, n1)], rng.random(n1) + 0.1
        )
        m2 = make_empirical(
            [(float(x), 0) for x in rng.uniform(-2, 2, n2)], rng.random(n2) + 0.1
        )
        gap = abs(distortion_g(m1, phi, psi) - distortion_g(m2, phi, psi))
        assert gap <= 2.0 * wasserstein(m1, m2, order=1) * (1.0 + 1e-9) + 1e-12
