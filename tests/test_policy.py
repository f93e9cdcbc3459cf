"""Policy evaluation: exact identities, an analytic oracle, terminal stop sup."""

import warnings
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm
from test_golden import PULL_M0, noisy_pull_problem

from mfstop.catalog import load_experiment_config
from mfstop.dynamics import Noise, Particles, Problem, TimeGrid, flow
from mfstop.measures import StopMap, apply_stop, make_empirical
from mfstop.policy import (
    BOOTSTRAP_RESAMPLES,
    Policy,
    evaluate_policy,
    policy_from_json,
    policy_noise,
    policy_to_json,
    run_policy,
    terminal_stop_sup,
)


def mean_g(points, weights):
    return float(points[:, 0] @ weights)


def put_g(strike):
    def g(points, weights):
        return float(np.maximum(strike - points[:, 0], 0.0) @ weights)

    return g


def brownian(f=None, g=mean_g, horizon=1.0):
    return Problem(
        d=1,
        b=lambda t, x, m: 0.0,
        sigma=lambda t, x, m: 1.0,
        f=f,
        g=g,
        horizon=horizon,
    )


def test_never_stop_matches_unstopped_simulation_exactly():
    # same seed, same particle ids: a kernel run with no stop rule and the
    # never-stop policy must agree bitwise, path for path and in value
    seen = {"kernel": [], "policy": []}

    def make_problem(tag):
        def f(t, x, m):
            seen[tag].append(x.copy())
            return np.cos(x[:, 0])

        return Problem(
            d=1,
            b=lambda t, x, m: 0.2 * x,
            sigma=lambda t, x, m: 0.3 * np.abs(x[:, 0]),
            f=f,
            g=put_g(1.2),
            horizon=1.0,
        )

    grid = TimeGrid(n=10, horizon=1.0)
    m0 = make_empirical([(1.0, 1)])
    seed = 99

    problem = make_problem("kernel")
    particles = Particles.from_measure(m0, 400)
    ids = np.arange(400, dtype=np.uint64)
    reward = np.zeros(400)
    noise = Noise(seed, ids, 1, range(grid.n)).table
    for k, t, snap in flow(particles, problem, 0.0, grid.dt, range(grid.n), noise=noise):
        alive = particles.alive
        reward[alive] += problem.f(t, particles.x[alive], snap) * particles.w[alive] * grid.dt
    manual = float(reward.sum() + problem.g(*particles.marginal()))

    run = run_policy(
        m0, make_problem("policy"), grid, Policy.never_stop(grid.n).maps, paths_per_atom=400,
        seed=seed,
    )
    est = run.estimate(seed, BOOTSTRAP_RESAMPLES)
    assert len(seen["policy"]) == len(seen["kernel"]) == grid.n
    for x_policy, x_kernel in zip(seen["policy"], seen["kernel"]):
        assert np.array_equal(x_policy, x_kernel)
    snap = run.particles.snapshot()
    kernel_snap = particles.snapshot()
    assert np.array_equal(snap.xs, kernel_snap.xs)
    assert np.array_equal(snap.ws, kernel_snap.ws)
    assert est.value == manual


def test_stop_now_returns_terminal_reward_of_initial_marginal():
    problem = brownian(g=put_g(1.0))
    grid = TimeGrid(n=5, horizon=1.0)
    m0 = make_empirical(
        [(0.4, 1), (0.9, 1), (1.3, 0), (1.8, 1)], [0.2, 0.3, 0.25, 0.25]
    )
    stop_at_once = Policy((StopMap.constant(0.0),) + (StopMap.constant(1.0),) * (grid.n - 1))
    est = evaluate_policy(m0, problem, grid, stop_at_once, paths_per_atom=50, seed=3)
    xs, ws = m0.x_marginal()
    assert est.value == pytest.approx(problem.g(xs, ws), abs=1e-12)
    assert est.mc_stderr < 1e-12  # all resamples see the same frozen atoms


def test_unstopped_put_matches_bachelier_price():
    strike, x0, horizon = 1.0, 0.9, 1.0
    problem = brownian(g=put_g(strike), horizon=horizon)
    grid = TimeGrid(n=8, horizon=horizon)
    m0 = make_empirical([(x0, 1)])
    est = evaluate_policy(
        m0, problem, grid, Policy.never_stop(grid.n), paths_per_atom=20000, seed=11
    )
    z = (strike - x0) / np.sqrt(horizon)
    oracle = (strike - x0) * norm.cdf(z) + np.sqrt(horizon) * norm.pdf(z)
    assert est.mc_stderr > 1e-4
    assert est.value == pytest.approx(oracle, abs=4 * est.mc_stderr + 2e-3)


def test_linear_terminal_reward_ignores_the_policy():
    # driftless dynamics and g = mean: every stopping rule has the same value
    problem = brownian(g=mean_g)
    grid = TimeGrid(n=6, horizon=1.0)
    m0 = make_empirical([(-0.3, 1), (0.5, 1)], [0.5, 0.5])
    target = -0.3 * 0.5 + 0.5 * 0.5
    policies = [
        Policy.never_stop(grid.n),
        Policy((StopMap.threshold(0.0),) * grid.n),
        Policy((StopMap.constant(0.7),) * grid.n),
        Policy(tuple(StopMap.logistic(1.5, -0.2) for _ in range(grid.n))),
    ]
    for pol in policies:
        est = evaluate_policy(m0, problem, grid, pol, paths_per_atom=4000, seed=21)
        assert est.value == pytest.approx(target, abs=4 * est.mc_stderr + 5e-3)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(-2.0, 2.0), seed=st.integers(0, 50))
def test_pure_threshold_policies_never_split_mass(theta, seed):
    problem = brownian(g=put_g(1.0))
    grid = TimeGrid(n=4, horizon=1.0)
    m0 = make_empirical([(0.0, 1), (1.0, 1)], [0.4, 0.6])
    maps = (StopMap.threshold(theta),) * grid.n
    run = run_policy(m0, problem, grid, maps, paths_per_atom=30, seed=seed)
    assert run.particles.pool_w == []


def test_fractional_policy_populates_the_pool():
    problem = brownian(g=put_g(1.0))
    grid = TimeGrid(n=4, horizon=1.0)
    m0 = make_empirical([(0.5, 1)])
    maps = (StopMap.constant(0.5),) * grid.n
    run = run_policy(m0, problem, grid, maps, paths_per_atom=20, seed=5)
    assert sum(len(w) for w in run.particles.pool_w) > 0
    assert len(run.reward) == 20


def test_evaluate_policy_from_interior_node():
    # deterministic drift: starting at node s advances (n - s) steps only
    problem = Problem(
        d=1,
        b=lambda t, x, m: 1.0,
        sigma=lambda t, x, m: 0.0,
        f=None,
        g=mean_g,
        horizon=1.0,
    )
    grid = TimeGrid(n=10, horizon=1.0)
    m = make_empirical([(2.0, 1)])
    est = evaluate_policy(
        m, problem, grid, Policy.never_stop(grid.n), 1, seed=0, start_node=4
    )
    assert est.value == pytest.approx(2.0 + 0.6, abs=1e-12)


def test_shared_noise_gives_the_same_value_and_must_match_the_run():
    problem, grid = brownian(g=put_g(1.0)), TimeGrid(n=4, horizon=1.0)
    m0 = make_empirical([(0.8, 1), (1.3, 1)])
    pol = Policy((StopMap.threshold(0.7),) * grid.n)
    noise = policy_noise(m0, problem, 25, 8, range(1, grid.n))
    own = evaluate_policy(m0, problem, grid, pol, 25, seed=8, start_node=1)
    shared = evaluate_policy(m0, problem, grid, pol, 25, seed=8, start_node=1, noise=noise)
    assert shared == own
    for paths, seed in ((25, 9), (26, 8)):
        with pytest.raises(ValueError, match="shared noise"):
            run_policy(m0, problem, grid, pol.maps, paths, seed, 1, noise=noise)
    with pytest.raises(ValueError, match="node 0"):
        run_policy(m0, problem, grid, pol.maps, 25, 8, 0, noise=noise)
    # a later start reads the table from its own node on
    later = evaluate_policy(m0, problem, grid, pol, 25, seed=8, start_node=2, noise=noise)
    assert later == evaluate_policy(m0, problem, grid, pol, 25, seed=8, start_node=2)
    short = policy_noise(m0, problem, 25, 8, range(1, grid.n - 1))
    with pytest.raises(ValueError, match=f"node {grid.n - 1} lies outside"):
        run_policy(m0, problem, grid, pol.maps, 25, 8, 1, noise=short)


@pytest.mark.parametrize("paths", [0, -1, 2.5, True], ids=["zero", "negative", "float", "bool"])
@pytest.mark.parametrize("route", ["run_policy", "evaluate_policy", "make_unstopped_functional"])
def test_a_bad_path_count_is_refused_before_any_noise_is_drawn(monkeypatch, route, paths):
    import mfstop.rng
    from mfstop.calculus import make_unstopped_functional

    def no_draws(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(mfstop.rng, "normals", no_draws)
    problem, grid = brownian(), TimeGrid(n=4, horizon=1.0)
    m0 = make_empirical([(0.8, 1), (1.3, 1)])
    pol = Policy.never_stop(grid.n)
    with pytest.raises(ValueError, match=f"paths_per_atom must be an integer >= 1, got {paths!r}"):
        if route == "run_policy":
            run_policy(m0, problem, grid, pol.maps, paths, seed=1)
        elif route == "evaluate_policy":
            evaluate_policy(m0, problem, grid, pol, paths, seed=1)
        else:
            make_unstopped_functional(problem, n_steps=4, paths_per_atom=paths)(0.0, m0)


# ---------------------------------------------------------------------------
# terminal stop sup
# ---------------------------------------------------------------------------


def marginal_mean(m):
    xs, ws = m.x_marginal()
    return float(xs[:, 0] @ ws)


def test_terminal_sup_is_flat_for_marginal_functionals():
    m = make_empirical([(0.0, 1), (1.0, 1), (2.0, 0)], [0.3, 0.3, 0.4])
    val, smap = terminal_stop_sup(m, marginal_mean)
    assert val == pytest.approx(marginal_mean(m), abs=1e-12)


def test_terminal_sup_linear_functional_matches_sitewise_closed_form():
    # G linear in the atom weights: the optimum picks each site independently
    rng = np.random.default_rng(7)
    xs = rng.normal(size=5)
    ws = rng.uniform(0.5, 1.5, size=9)
    atoms = [(x, 1) for x in xs] + [(x + 3.0, 0) for x in rng.normal(size=4)]
    m = make_empirical(atoms, ws)

    def G(meas):
        xa, wa = meas.survivors()
        xsp, wsp = meas.stopped()
        return float(np.sin(3 * xa[:, 0]) @ wa + np.cos(2 * xsp[:, 0]) @ wsp)

    xa, wa = m.survivors()
    xsp, wsp = m.stopped()
    closed = float(
        np.maximum(np.sin(3 * xa[:, 0]), np.cos(2 * xa[:, 0])) @ wa
        + np.cos(2 * xsp[:, 0]) @ wsp
    )
    val, smap = terminal_stop_sup(m, G)
    assert val == pytest.approx(closed, abs=1e-12)


def test_terminal_sup_fractional_beats_every_corner():
    # G = surviving * stopped mass: corners give 0, the half split gives 1/4
    m = make_empirical([(0.7, 1)])

    def G(meas):
        return meas.surviving_mass() * (meas.ws.sum() - meas.surviving_mass())

    val, smap = terminal_stop_sup(m, G)
    assert val == pytest.approx(0.25, abs=1e-12)
    assert smap(np.array([[0.7]]))[0] == pytest.approx(0.5, abs=1e-12)


def test_terminal_sup_rejects_oversized_enumeration():
    m = make_empirical([(float(k), 1) for k in range(17)])
    with pytest.raises(ValueError):
        terminal_stop_sup(m, marginal_mean)


def test_terminal_sup_on_fully_stopped_measure():
    m = make_empirical([(1.0, 0), (2.0, 0)], [0.5, 0.5])
    val, smap = terminal_stop_sup(m, marginal_mean)
    assert val == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("route", ["evaluate_policy", "apply_stop"])
def test_a_nan_stop_map_raises_on_every_route(route):
    cfg = load_experiment_config(str(files("mfstop").joinpath("configs", "standard_put.json")))
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    nan_map = StopMap(lambda x: np.full(x.shape[0], np.nan))
    with pytest.raises(ValueError, match=r"stop map value outside \[0,1\]"):
        if route == "apply_stop":
            apply_stop(inst.m0, nan_map)
        else:
            pol = Policy((nan_map,) * grid.n)
            evaluate_policy(inst.m0, inst.problem, grid, pol, cfg.paths_per_atom, cfg.seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_policy_json_round_trip():
    pol = Policy(
        (
            StopMap.constant(0.25),
            StopMap.threshold(0.7, "above"),
            StopMap.logistic([1.0], -0.5),
            StopMap.tabular([0.0, 1.0], [0.1, 0.5, 0.9]),
        ),
        family="mixed",
    )
    back = policy_from_json(policy_to_json(pol))
    assert back.family == pol.family
    x = np.linspace(-2, 2, 11)[:, None]
    for a, b in zip(pol.maps, back.maps):
        assert np.allclose(a(x), b(x), atol=0.0)
    assert policy_to_json(back) == policy_to_json(pol)


@pytest.mark.parametrize(
    "node",
    [
        '{"family": "threshold", "params": {"theta": NaN, "side": "below"}}',
        '{"family": "threshold", "params": {"theta": -Infinity, "side": "above"}}',
        '{"family": "logistic", "params": {"a": [NaN], "c": 0.0}}',
        '{"family": "tabular", "params": {"edges": [0.0], "values": [1.0, NaN]}}',
        '{"family": "site_lookup", "params": {"sites": [[0.0]], "values": [NaN], "default": 1}}',
        '{"family": "site_lookup", "params": {"sites": [[0.0]], "values": [0.5], "default": NaN}}',
    ],
)
def test_policy_json_refuses_a_bad_stop_map(node):
    # Python's json reads NaN and Infinity, so the constructors refuse them
    with pytest.raises(ValueError):
        policy_from_json('{"family": "mixed", "nodes": [%s]}' % node)


def test_policy_json_rejects_opaque_callables():
    pol = Policy((StopMap(lambda x: np.ones(x.shape[0])),))
    with pytest.raises(ValueError):
        policy_to_json(pol)


# ---------------------------------------------------------------------------
# checkpoints and resumed runs
# ---------------------------------------------------------------------------


def _resume_case(case):
    """(m0, problem, grid, paths per atom, maps) with full and fractional stops."""
    if case == "noisy_pull":
        maps = (
            StopMap.constant(0.7),
            StopMap.threshold(0.2, "below"),
            StopMap.logistic(2.0, -1.0),
            StopMap.constant(1.0),
        )
        return PULL_M0, noisy_pull_problem(), TimeGrid(4, 1.0), 30, maps
    cfg = load_experiment_config(str(files("mfstop").joinpath("configs", f"{case}.json")))
    inst = cfg.instance()
    theta = float(np.median(inst.m0.xs[:, 0]))
    cycle = (
        StopMap.constant(0.8),
        StopMap.threshold(theta, "below"),
        StopMap.logistic(-2.0, theta),
        StopMap.constant(1.0),
    )
    maps = tuple(cycle[k % 4] for k in range(cfg.grid_n))
    return inst.m0, inst.problem, TimeGrid(cfg.grid_n, inst.problem.horizon), 40, maps


def _run_state(run):
    """Everything a run's value is made of, as bytes."""
    particles = run.particles
    return (
        repr(run.estimate(0, 0).value),
        np.array(run.survivor_mass).tobytes(),
        run.reward.tobytes(),
        particles.x.tobytes(),
        particles.alive.tobytes(),
        particles.w.tobytes(),
        *(a.tobytes() for a in particles.pool_arrays()),
    )


@pytest.mark.parametrize("case", ["standard_put", "mean_variance", "attraction", "noisy_pull"])
def test_a_resumed_run_equals_the_full_run_bit_for_bit(case):
    m0, problem, grid, paths, maps = _resume_case(case)
    noise = policy_noise(m0, problem, paths, 3, range(grid.n))
    run = run_policy(m0, problem, grid, maps, paths, 3, noise=noise)
    full, checkpoints = _run_state(run), run.checkpoints
    assert len(checkpoints) == grid.n
    recorded = [_run_state(c) for c in checkpoints]
    for k, checkpoint in enumerate(checkpoints):
        resumed = run_policy(m0, problem, grid, maps, paths, 3, k, noise=noise, resume=checkpoint)
        assert _run_state(resumed) == full
        assert [_run_state(c) for c in resumed.checkpoints] == recorded
    # a resumed run continues a copy: the checkpoints are as they were
    resumed = run_policy(m0, problem, grid, maps, paths, 3, noise=noise, resume=checkpoints[0])
    assert _run_state(resumed) == full


def test_every_node_has_a_checkpoint_when_nothing_survives():
    problem, grid = brownian(f=lambda t, x, m: np.cos(x[:, 0])), TimeGrid(n=5, horizon=1.0)
    m0 = make_empirical([(0.2, 1), (0.9, 1)])
    maps = (StopMap.constant(0.5), StopMap.constant(0.0)) + (StopMap.threshold(0.5),) * 3
    full = run_policy(m0, problem, grid, maps, 10, 4)
    checkpoints = full.checkpoints
    assert len(checkpoints) == grid.n
    assert not checkpoints[-1].particles.alive.any()
    for k, checkpoint in enumerate(checkpoints):
        resumed = run_policy(m0, problem, grid, maps, 10, 4, k, resume=checkpoint)
        assert _run_state(resumed) == _run_state(full)


def _warns(run) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return any("truncated infinite horizon" in str(w.message) for w in caught)


@pytest.mark.parametrize("stop_node", [None, 0, 2, 4])
def test_a_resumed_run_warns_on_truncation_exactly_when_the_full_run_does(stop_node):
    # a contracting GBM whose horizon is too short for |X| to die out
    problem = Problem(
        d=1,
        b=lambda t, x, m: -0.5 * x,
        sigma=lambda t, x, m: 0.1 * np.abs(x[:, 0]),
        f=None,
        g=mean_g,
        horizon=1.0,
        truncated_horizon=True,
    )
    grid, m0 = TimeGrid(n=5, horizon=1.0), make_empirical([(1.0, 1)])
    maps = [StopMap.constant(1.0)] * grid.n
    if stop_node is not None:
        maps[stop_node] = StopMap.constant(0.5)
    runs = []
    full = _warns(lambda: runs.append(run_policy(m0, problem, grid, maps, 50, 10)))
    assert full is (stop_node is None)
    for k, checkpoint in enumerate(runs[0].checkpoints):
        resume = lambda: run_policy(m0, problem, grid, maps, 50, 10, k, resume=checkpoint)
        assert _warns(resume) is full
