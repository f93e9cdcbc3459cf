"""Policy search against exact enumeration, plus the two-stage DPP check."""

import hashlib
import warnings
from importlib.resources import files

import numpy as np
import pytest
from scipy.stats import norm
from test_calculus import drawn_lanes

from mfstop.catalog import build_instance, load_experiment_config
from mfstop.dynamics import MAX_NOISE_DOUBLES, Problem, TimeGrid
from mfstop.measures import StopMap, apply_stop, make_empirical
from mfstop.policy import (
    BOOTSTRAP_RESAMPLES,
    Policy,
    PolicyRun,
    evaluate_policy,
    policy_noise,
    run_policy,
)
from mfstop.solver import (
    SearchConfig,
    _Searcher,
    backward_enumeration,
    monotonicity_check,
    solve_value,
    verify_dpp,
)


def quad_g(center):
    def g(points, weights):
        return float(-((points[:, 0] - center) ** 2) @ weights)

    return g


def put_g(strike):
    def g(points, weights):
        return float(np.maximum(strike - points[:, 0], 0.0) @ weights)

    return g


def hump_problem():
    """sigma = 0, drift rises then falls; per-atom stop times all differ."""
    return Problem(
        d=1,
        b=lambda t, x, m: 1.0 - 2.8 * t,
        sigma=lambda t, x, m: 0.0,
        f=None,
        g=quad_g(1.0),
        horizon=1.0,
    )


HUMP_M0 = make_empirical([(0.4, 1), (1.0, 1), (0.75, 1)], [0.3, 0.3, 0.4])


def test_enumeration_matches_hand_computed_assignments():
    # paths: 0.4 -> 0.9 -> 0.7;  1.0 -> 1.5 -> 1.3;  0.75 -> 1.25 -> 1.05
    grid = TimeGrid(n=2, horizon=1.0)
    res = backward_enumeration(HUMP_M0, hump_problem(), grid)
    # atoms in canonical (sorted) order: x = 0.4, 0.75, 1.0
    assert res.stop_nodes == (1, None, 0)
    expected = 0.3 * -0.01 + 0.3 * 0.0 + 0.4 * -0.0025
    assert res.value == pytest.approx(expected, abs=1e-14)


def test_enumeration_requires_zero_volatility():
    noisy = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=quad_g(0.0), horizon=1.0,
    )
    with pytest.raises(ValueError, match="deterministic"):
        backward_enumeration(HUMP_M0, noisy, TimeGrid(2, 1.0))


def test_enumeration_budget_guard():
    m = make_empirical([(float(k) / 10, 1) for k in range(9)])
    with pytest.raises(ValueError, match="budget"):
        backward_enumeration(m, hump_problem(), TimeGrid(8, 1.0))


def test_solver_reproduces_enumeration_on_deterministic_instance():
    grid = TimeGrid(n=2, horizon=1.0)
    oracle = backward_enumeration(HUMP_M0, hump_problem(), grid)
    est, pol = solve_value(HUMP_M0, hump_problem(), grid, SearchConfig(paths_per_atom=4), seed=1)
    assert est.value == pytest.approx(oracle.value, abs=1e-12)


def test_never_stop_is_optimal_for_convex_reward_of_a_martingale():
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=put_g(1.0), horizon=1.0,
    )
    grid = TimeGrid(n=4, horizon=1.0)
    m0 = make_empirical([(0.9, 1)])
    cfg = SearchConfig(paths_per_atom=3000, refine_rounds=2)
    est, pol = solve_value(m0, problem, grid, cfg, seed=7)
    ref = evaluate_policy(m0, problem, grid, Policy.never_stop(grid.n), 3000, seed=7)
    assert est.value >= ref.value - 1e-12  # never-stop is one of the candidates
    assert est.value == pytest.approx(ref.value, abs=3 * np.hypot(est.mc_stderr, ref.mc_stderr) + 1e-3)
    # and the analytic unstopped value is the truth
    z = 0.1
    oracle = 0.1 * norm.cdf(z) + norm.pdf(z)
    assert est.value == pytest.approx(oracle, abs=4 * est.mc_stderr + 2e-3)


def test_solver_beats_every_random_policy_it_did_not_search():
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=put_g(1.0), horizon=1.0,
    )
    grid = TimeGrid(n=4, horizon=1.0)
    m0 = make_empirical([(0.8, 1), (1.1, 1)], [0.5, 0.5])
    cfg = SearchConfig(paths_per_atom=1200, refine_rounds=2)
    est, _ = solve_value(m0, problem, grid, cfg, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        pol = Policy(
            tuple(StopMap.constant(float(rng.uniform())) for _ in range(grid.n))
        )
        other = evaluate_policy(m0, problem, grid, pol, 1200, seed=3)
        assert other.value <= est.value + 3 * np.hypot(est.mc_stderr, other.mc_stderr)


def test_grid_refinement_does_not_lose_value():
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=put_g(1.0), horizon=1.0,
    )
    m0 = make_empirical([(0.95, 1)])
    cfg = SearchConfig(paths_per_atom=1500, refine_rounds=2)
    coarse, _ = solve_value(m0, problem, TimeGrid(3, 1.0), cfg, seed=5)
    fine, _ = solve_value(m0, problem, TimeGrid(6, 1.0), cfg, seed=5)
    assert fine.value >= coarse.value - 3 * np.hypot(coarse.mc_stderr, fine.mc_stderr)


# ---------------------------------------------------------------------------
# DPP
# ---------------------------------------------------------------------------


def test_dpp_exact_on_deterministic_instance():
    grid = TimeGrid(n=2, horizon=1.0)
    report = verify_dpp(HUMP_M0, hump_problem(), grid, split_index=1, mode="exact")
    assert report.residual <= 1e-12
    assert report.combined_stderr == 0.0


def test_dpp_search_mode_on_continuation_favoured_problem():
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=put_g(1.0), horizon=1.0,
    )
    grid = TimeGrid(n=6, horizon=1.0)
    m0 = make_empirical([(0.9, 1)])
    cfg = SearchConfig(paths_per_atom=1500, refine_rounds=2)
    report = verify_dpp(m0, problem, grid, split_index=3, solver_cfg=cfg, seed=13)
    assert report.residual <= 3 * report.combined_stderr + 5e-3


def test_dpp_terminal_split_is_exact_replay():
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=put_g(1.0), horizon=1.0,
    )
    grid = TimeGrid(n=4, horizon=1.0)
    m0 = make_empirical([(0.9, 1)])
    cfg = SearchConfig(paths_per_atom=600, refine_rounds=1)
    report = verify_dpp(m0, problem, grid, split_index=grid.n, solver_cfg=cfg, seed=2)
    assert report.residual <= 1e-10


def test_dpp_rejects_bad_split(monkeypatch):
    import mfstop.solver

    def no_search(*args, **kwargs):
        raise AssertionError("a bad split index reached the search")

    monkeypatch.setattr(mfstop.solver, "solve_value", no_search)
    inst = build_instance("standard_put")
    grid = TimeGrid(4, inst.problem.horizon)
    for split in (0, 5, 2.5, True):
        with pytest.raises(ValueError, match="split"):
            verify_dpp(inst.m0, inst.problem, grid, split_index=split)


# ---------------------------------------------------------------------------
# monotonicity in the stopping order
# ---------------------------------------------------------------------------


def test_full_survival_map_changes_nothing():
    m = make_empirical([(0.5, 1), (1.5, 1)], [0.5, 0.5])
    assert apply_stop(m, StopMap.constant(1.0)).allclose(m)


def test_stop_now_value_is_dominated():
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=put_g(1.0), horizon=1.0,
    )
    grid = TimeGrid(n=3, horizon=1.0)
    m = make_empirical([(0.9, 1)])
    cfg = SearchConfig(paths_per_atom=800, refine_rounds=1)
    est, _ = solve_value(m, problem, grid, cfg, seed=4)
    xs, ws = m.x_marginal()
    assert est.value >= problem.g(xs, ws) - 3 * est.mc_stderr


def test_monotonicity_report_is_clean_on_small_problem():
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 1.0,
        f=None, g=put_g(1.0), horizon=1.0,
    )
    grid = TimeGrid(n=3, horizon=1.0)
    m = make_empirical([(0.7, 1), (1.2, 1)], [0.6, 0.4])
    cfg = SearchConfig(paths_per_atom=400, refine_rounds=1)
    report = monotonicity_check(m, problem, grid, trials=4, seed=9, solver_cfg=cfg)
    assert report.n_trials == 4
    assert report.n_violations == 0
    assert report.worst_gap >= 0.0
    assert len(report.details) == 4


# ---------------------------------------------------------------------------
# one noise table per search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start_node", [0, 3])
def test_search_draws_each_node_noise_once(monkeypatch, start_node):
    # every candidate and the winner's bootstrap estimate share one table
    lanes = drawn_lanes(monkeypatch)
    inst = build_instance("standard_put")
    grid = TimeGrid(8, inst.problem.horizon)
    cfg = SearchConfig(paths_per_atom=40, refine_rounds=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = solve_value(inst.m0, inst.problem, grid, cfg, seed=2, start_node=start_node)
    assert res.n_evaluations > 1
    # each (particle, node) address of the table once, and no other
    rows = inst.m0.n_atoms * cfg.paths_per_atom
    assert sorted(lanes) == [(i, k) for i in range(rows) for k in range(start_node, grid.n)]


def test_search_config_refuses_threads_other_than_one():
    assert SearchConfig(threads=1).threads == 1
    with pytest.raises(ValueError, match="threads must be 1"):
        SearchConfig(threads=2)


@pytest.mark.parametrize(
    "field,value",
    [
        ("paths_per_atom", 0),
        ("paths_per_atom", 2.5),
        ("paths_per_atom", True),
        ("restart_paths", 0),
        ("coarse_points", 0),
        ("coarse_points", 3.0),
        ("refine_rounds", -1),
        ("refine_rounds", False),
        ("tol", float("nan")),
        ("tol", float("inf")),
        ("tol", -1e-3),
        ("tol", True),
    ],
)
def test_search_config_refuses_bad_values_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SearchConfig(**{field: value})


def test_search_config_accepts_its_smallest_values():
    cfg = SearchConfig(paths_per_atom=1, coarse_points=1, refine_rounds=0, tol=0, restart_paths=1)
    assert (cfg.refine_rounds, cfg.tol) == (0, 0)


def test_oversized_noise_table_is_refused_before_any_run(monkeypatch):
    import mfstop.rng

    def no_draws(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(mfstop.rng, "normals", no_draws)
    inst = build_instance("standard_put")
    big_grid = TimeGrid(MAX_NOISE_DOUBLES, inst.problem.horizon)
    with pytest.raises(ValueError, match="paths_per_atom or grid_n"):
        solve_value(inst.m0, inst.problem, big_grid, SearchConfig(paths_per_atom=1), seed=0)


# ---------------------------------------------------------------------------
# trials resumed from the incumbent's checkpoints
# ---------------------------------------------------------------------------


def _counting_steps(monkeypatch):
    from mfstop import dynamics

    calls = []
    step = dynamics.advance_positions

    def counted(*args):
        calls.append(args[2])
        return step(*args)

    monkeypatch.setattr(dynamics, "advance_positions", counted)
    return calls


def test_a_trial_that_stops_as_the_incumbent_reuses_its_value(monkeypatch):
    inst = build_instance("standard_put")
    grid = TimeGrid(6, inst.problem.horizon)
    cfg = SearchConfig(paths_per_atom=30)
    searcher = _Searcher(inst.m0, inst.problem, grid, cfg, 4, 0)
    keep, stop = StopMap.constant(1.0), StopMap.constant(0.0)
    incumbent = Policy((StopMap.threshold(0.8), keep, StopMap.threshold(0.8)) + (stop,) * 3)
    searcher.value(incumbent)

    def full_run(pol):
        run = run_policy(inst.m0, inst.problem, grid, pol.maps, 30, 4, noise=searcher.noise)
        return (run.estimate(4, 0).value, float(np.mean(run.survivor_mass)))

    steps = _counting_steps(monkeypatch)
    # the same fractions on node 1's live rows, from another family
    same = incumbent.replace_node(1, StopMap.threshold(-50.0))
    # nothing is alive at node 4
    dead = incumbent.replace_node(4, StopMap.constant(0.5))
    # other fractions at node 2: the trial runs nodes 2..5 only
    other = incumbent.replace_node(2, StopMap.constant(0.5))
    for trial, n_steps in ((same, 0), (dead, 0), (other, grid.n - 2)):
        assert searcher._key(trial) != searcher._key(incumbent)
        searcher.value(trial)
        assert len(steps) == n_steps
        assert searcher.seen[searcher._key(trial)] == full_run(trial)
        steps.clear()
    assert searcher.n_evaluations == 4


def test_search_steps_only_past_the_incumbents_checkpoints(monkeypatch):
    # 1 296 Euler steps when every trial replayed its run from m0, and 653
    # when the winner's final run was replayed from m0
    steps = _counting_steps(monkeypatch)
    inst = build_instance("standard_put")
    grid = TimeGrid(8, inst.problem.horizon)
    res = solve_value(inst.m0, inst.problem, grid, SearchConfig(paths_per_atom=400), seed=1)
    assert res.n_evaluations == 161
    assert len(steps) == 645


def test_verify_dpp_steps_only_inside_its_two_solves(monkeypatch):
    # the split law is the winner's checkpoint, so no prefix is replayed
    # (378 Euler steps when the prefix ran again from m0)
    import mfstop.solver

    cfg = load_experiment_config(str(files("mfstop").joinpath("configs", "standard_put.json")))
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    steps, in_solves = _counting_steps(monkeypatch), []
    solve = mfstop.solver.solve_value

    def counted(*args, **kwargs):
        before = len(steps)
        result = solve(*args, **kwargs)
        in_solves.append(len(steps) - before)
        return result

    monkeypatch.setattr(mfstop.solver, "solve_value", counted)
    scfg = SearchConfig(paths_per_atom=cfg.paths_per_atom)
    verify_dpp(inst.m0, inst.problem, grid, cfg.split_index, scfg, seed=cfg.seed)
    assert len(in_solves) == 2
    assert len(steps) == sum(in_solves) == 374


def _digest(run) -> str:
    """A hash of every array and list the run holds."""
    particles, h = run.particles, hashlib.sha256()
    for part in (particles.x, particles.alive, particles.w, run.reward):
        h.update(part.tobytes())
    for part in (particles.pool_x, particles.pool_w, particles.pool_src, run.survivor_mass):
        h.update(repr(len(part)).encode())
        for a in part:
            h.update(np.asarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["standard_put", "attraction"])
def test_the_winners_run_is_its_run_from_m0(name):
    # the search hands back its own run of the winner; on standard_put that
    # run resumed from a checkpoint, and the attraction search resumes runs
    # and stops rows fully and fractionally (see the test below)
    inst = build_instance(name)
    grid = TimeGrid(8, inst.problem.horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = solve_value(inst.m0, inst.problem, grid, SearchConfig(paths_per_atom=40), seed=1)
    noise = policy_noise(inst.m0, inst.problem, 40, 1, range(grid.n))
    fresh = run_policy(inst.m0, inst.problem, grid, res.policy.maps, 40, 1, noise=noise)
    assert len(res.run.checkpoints) == grid.n
    runs = [res.run, *res.run.checkpoints], [fresh, *fresh.checkpoints]
    assert [_digest(r) for r in runs[0]] == [_digest(r) for r in runs[1]]
    assert res.estimate == fresh.estimate(1, BOOTSTRAP_RESAMPLES)


def test_no_run_of_a_search_writes_a_checkpoint_it_shares_arrays_with(monkeypatch):
    recorded, ids, resumed = [], set(), []
    copy = PolicyRun.copy

    def recording(run):
        copied = copy(run)
        if id(run) in ids:  # a copy of a checkpoint is a resumed run
            resumed.append(copied)
        else:
            recorded.append((copied, _digest(copied)))
            ids.add(id(copied))
        return copied

    monkeypatch.setattr(PolicyRun, "copy", recording)
    inst = build_instance("attraction")
    grid = TimeGrid(8, inst.problem.horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solve_value(inst.m0, inst.problem, grid, SearchConfig(paths_per_atom=40), seed=1)
    # the search resumed runs and stopped rows both fully and fractionally
    assert resumed
    assert any(not c.particles.alive.all() for c, _ in recorded)
    assert any(c.particles.pool_x for c, _ in recorded)
    assert all(_digest(checkpoint) == digest for checkpoint, digest in recorded)
