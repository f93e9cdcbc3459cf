"""The forward kernel: freezing, conservation, determinism, moment oracles."""

from __future__ import annotations

import warnings
from importlib.resources import files

import numpy as np
import pytest
from test_golden import PULL_M0, noisy_pull_problem

from mfstop.calculus import generator, make_unstopped_functional
from mfstop.catalog import load_experiment_config
from mfstop.dynamics import (
    NOISE_PASS_LANES,
    LawView,
    Noise,
    Particles,
    Problem,
    TimeGrid,
    advance_positions,
    flow,
)
from mfstop.measures import StopMap, _merge_sorted, make_empirical
from mfstop.policy import Policy, evaluate_policy, policy_noise, run_policy


def _mean_g(points, weights):
    return float(weights @ points[:, 0])


def brownian_problem(d=1, horizon=1.0):
    return Problem(
        d=d,
        b=lambda t, x, m: 0.0,
        sigma=lambda t, x, m: 1.0,
        f=None,
        g=_mean_g,
        horizon=horizon,
    )


def gbm_problem(b0, s0, horizon=1.0, truncated=False):
    return Problem(
        d=1,
        b=lambda t, x, m: b0 * x,
        sigma=lambda t, x, m: s0 * np.abs(x[:, 0]),
        f=None,
        g=_mean_g,
        horizon=horizon,
        truncated_horizon=truncated,
    )


def simulate(m0, problem, grid, paths_per_atom, seed, stop=None, nodes=None):
    """Kernel run of paths_per_atom rows per atom; positions at every node."""
    particles = Particles.from_measure(m0, paths_per_atom)
    ids = np.arange(particles.w.shape[0], dtype=np.uint64)
    xs = []
    nodes = range(grid.n) if nodes is None else nodes
    noise = None if seed is None else Noise(seed, ids, problem.d, nodes).table
    for _ in flow(particles, problem, 0.0, grid.dt, nodes, stop, noise):
        xs.append(particles.x)
    xs.append(particles.x)
    return particles, xs


def test_zero_coefficients_freeze_everything():
    prob = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: 0.0, f=None,
        g=_mean_g, horizon=1.0,
    )
    m0 = make_empirical([(0.5, 1), (-1.0, 1), (2.0, 0)])
    _, xs = simulate(m0, prob, TimeGrid(4, 1.0), paths_per_atom=3, seed=0)
    assert len(xs) == 5
    for k in range(5):
        assert np.array_equal(xs[k], xs[0])


def test_stopped_particles_never_move():
    prob = brownian_problem()
    m0 = make_empirical([(0.0, 1), (5.0, 0)])
    particles = Particles.from_measure(m0, 4)
    w0 = particles.w.copy()
    particles, xs = simulate(m0, prob, TimeGrid(6, 1.0), paths_per_atom=4, seed=1)
    frozen = ~particles.alive
    assert frozen.any()
    for k in range(1, 7):
        assert np.array_equal(xs[k][frozen], xs[0][frozen])
    assert np.array_equal(particles.w, w0)


def test_terminal_flags_zeroed_positions_kept():
    # the forced stop at the horizon is a stop rule of zeros at node n: it
    # clears every flag and moves no position
    prob = brownian_problem()
    m0 = make_empirical([(0.0, 1)])
    particles, xs = simulate(m0, prob, TimeGrid(3, 1.0), paths_per_atom=8, seed=2)
    assert np.all(particles.alive)
    particles.stop(3, lambda k, x, rows: np.zeros(rows.shape[0]))
    assert not particles.alive.any()
    assert particles.x is xs[3]
    assert not np.array_equal(xs[3], xs[2])


def test_single_step_increment_variance():
    # one Euler step of standard Brownian motion: Var = dt
    prob = brownian_problem()
    n = 100_000
    grid = TimeGrid(10, 1.0)
    m0 = make_empirical([(0.0, 1)])
    _, xs = simulate(m0, prob, grid, paths_per_atom=n, seed=3, nodes=range(1))
    incr = xs[1][:, 0] - xs[0][:, 0]
    var = incr.var()
    se = np.sqrt(2.0 / n) * grid.dt  # stderr of a variance estimate at Var=dt
    assert abs(var - grid.dt) < 3 * se
    assert abs(incr.mean()) < 3 * np.sqrt(grid.dt / n)


def test_gbm_terminal_mean():
    b0, s0, T = 0.12, 0.3, 1.0
    prob = gbm_problem(b0, s0, T)
    m0 = make_empirical([(1.0, 1)])
    _, xs = simulate(m0, prob, TimeGrid(64, T), paths_per_atom=40_000, seed=4)
    xT = xs[-1][:, 0]
    want = np.exp(b0 * T)
    se = xT.std() / np.sqrt(len(xT))
    # allow 3 MC stderr plus first-order discretization slack
    assert abs(xT.mean() - want) < 3 * se + 5e-3


def test_seed_determinism():
    prob = gbm_problem(0.05, 0.2)
    m0 = make_empirical([(1.0, 1), (2.0, 1)], [1, 3])
    a, xa = simulate(m0, prob, TimeGrid(5, 1.0), 10, seed=42)
    b, xb = simulate(m0, prob, TimeGrid(5, 1.0), 10, seed=42)
    c, xc = simulate(m0, prob, TimeGrid(5, 1.0), 10, seed=43)
    assert np.array_equal(np.stack(xa), np.stack(xb))
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(np.stack(xa), np.stack(xc))


def test_mass_conservation():
    # with and without a fractional stop rule that sheds mass into the pool
    prob = brownian_problem()
    m0 = make_empirical([(0.0, 1), (1.0, 1), (2.0, 0)], [1, 2, 3])
    for stop in (None, lambda k, x, rows: np.full(rows.shape[0], 0.9)):
        particles = Particles.from_measure(m0, 50)
        ids = np.arange(particles.w.shape[0], dtype=np.uint64)
        masses = []
        noise = Noise(5, ids, 1, range(20)).table
        for _ in flow(particles, prob, 0.0, 0.05, range(20), stop, noise):
            masses.append(particles.marginal()[1].sum())
        masses.append(particles.marginal()[1].sum())
        assert len(masses) == 21
        for mass in masses:
            assert abs(mass - 1.0) <= 1e-12
    assert len(particles.pool_w) == 20


def test_martingale_mean_preserved():
    prob = brownian_problem()
    m0 = make_empirical([(0.3, 1), (-0.7, 1), (1.5, 0)], [2, 1, 1])
    grid = TimeGrid(16, 1.0)
    particles, xs = simulate(m0, prob, grid, 4000, seed=6)
    w = particles.w
    mean0 = w @ xs[0][:, 0]
    for k in (4, 8, 16):
        mk = w @ xs[k][:, 0]
        alive_w = w[particles.alive]
        se = np.sqrt((alive_w**2).sum() * grid.nodes[k])
        assert abs(mk - mean0) < 3 * se


def test_measure_dependent_drift_sees_snapshot():
    seen = []

    def b(t, x, m):
        seen.append(m)
        mean = m.survivors()[1] @ m.survivors()[0][:, 0] / m.surviving_mass()
        return 0.5 * (mean - x)

    prob = Problem(
        d=1, b=b, sigma=lambda t, x, m: 0.0, f=None, g=_mean_g,
        horizon=1.0, uses_measure=True,
    )
    m0 = make_empirical([(0.0, 1), (2.0, 1)])
    _, xs = simulate(m0, prob, TimeGrid(4, 1.0), 1, seed=7)
    assert len(seen) == 4
    assert all(s is not None for s in seen)
    # attraction to the (preserved) mean: particles contract toward 1.0
    gap0 = abs(xs[0][0, 0] - xs[0][1, 0])
    gapT = abs(xs[-1][0, 0] - xs[-1][1, 0])
    assert gapT < gap0


def test_law_view_equals_the_canonical_snapshot_at_every_node():
    # fractional stops fill the pool; the drift reads the law through the view
    problem = noisy_pull_problem()
    maps = (
        StopMap.constant(0.7),
        StopMap.threshold(0.2, "below"),
        StopMap.logistic(2.0, -1.0),
        StopMap.constant(1.0),
    )
    nodes = range(4)
    particles = Particles.from_measure(PULL_M0, 30)
    noise = policy_noise(PULL_M0, problem, 30, 17, nodes).table
    stop = lambda k, x, rows: maps[k](x)
    kept = []
    for _, _, view in flow(particles, problem, 0.0, 0.25, nodes, stop, noise):
        kept.append((view, particles.snapshot()))
    assert particles.pool_w
    # every view still equals its own node's law after the particles moved on
    for view, snap in kept:
        xs, ws = view.survivors()
        order = np.argsort(xs[:, 0], kind="stable")
        merged_xs, merged_ws = _merge_sorted(xs[order], ws[order])
        snap_xs, snap_ws = snap.survivors()
        assert view.d == 1 and merged_xs.shape == snap_xs.shape
        assert np.allclose(merged_xs, snap_xs, rtol=0.0, atol=1e-12)
        assert np.allclose(merged_ws, snap_ws, rtol=0.0, atol=1e-12)
        assert abs(view.surviving_mass() - snap.surviving_mass()) <= 1e-12


@pytest.mark.parametrize(
    "x,w,frozen_x,frozen_w,message",
    [
        ([[np.nan], [0.0]], [0.5, 0.3], [[1.0]], [0.2], "non-finite atom data"),
        ([[0.0], [1.0]], [0.5, 0.3], [[np.inf]], [0.2], "non-finite atom data"),
        ([[0.0], [1.0]], [1.5, -0.7], [[2.0]], [0.2], "negative atom weight"),
        ([[0.0], [1.0]], [0.5, 0.3], [[2.0]], [0.2 + 1e-6], "total mass .* is not 1"),
    ],
    ids=["row-position", "frozen-position", "negative-weight", "mass-off-by-1e-6"],
)
def test_law_view_raises_what_the_canonical_snapshot_raises(x, w, frozen_x, frozen_w, message):
    # the view checks nothing: a system is checked where it is built, so no
    # view of bad rows can exist
    arrays = (
        np.array(x), np.ones(2, dtype=bool), np.array(w), np.array(frozen_x), np.array(frozen_w)
    )
    with pytest.raises(ValueError, match=message):
        Particles(*arrays)
    particles = Particles(np.zeros((2, 1)), np.ones(2, dtype=bool), np.array([0.5, 0.5]))
    particles.x, particles.alive, particles.w, particles.frozen_x, particles.frozen_w = arrays
    with pytest.raises(ValueError, match=message):
        particles.snapshot()


def test_law_view_shares_the_rows_while_every_row_is_alive():
    particles = Particles.from_measure(make_empirical([(0.0, 1), (1.0, 1)]), 3)
    xs, ws = LawView(particles).survivors()
    assert np.shares_memory(xs, particles.x) and np.shares_memory(ws, particles.w)
    assert not xs.flags.writeable and not ws.flags.writeable
    particles.stop(0, lambda k, x, rows: (rows > 0).astype(float))
    xs, ws = LawView(particles).survivors()
    assert xs.shape == (5, 1) and not np.shares_memory(xs, particles.x)


def test_law_view_kept_across_a_fractional_stop_keeps_its_weights():
    particles = Particles.from_measure(make_empirical([(0.0, 1), (1.0, 1)]), 2)
    view = LawView(particles)
    particles.stop(0, lambda k, x, rows: np.where(rows < 2, 0.25, 1.0))
    assert np.array_equal(view.survivors()[1], np.full(4, 0.25))
    assert view.surviving_mass() == 1.0
    assert np.array_equal(particles.w, [0.0625, 0.0625, 0.25, 0.25])


def test_a_position_that_overflows_is_refused():
    # the drift is finite at every step; the second step overflows the position
    prob = Problem(
        d=1, b=lambda t, x, m: 1.5e308, sigma=lambda t, x, m: 0.0, f=None, g=_mean_g,
        horizon=2.0,
    )
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite drift or volatility"):
            simulate(make_empirical([(0.0, 1)]), prob, TimeGrid(2, 2.0), 1, seed=None)


def _all_alive_is_alive_all(particles):
    assert particles.all_alive is bool(particles.alive.all())


def test_all_alive_follows_alive_through_stops_copies_and_resumes():
    _all_alive_is_alive_all(Particles.from_measure(make_empirical([(0.0, 1), (1.0, 0)]), 2))
    particles = Particles.from_measure(make_empirical([(0.0, 1), (1.0, 1)]), 3)
    _all_alive_is_alive_all(particles)
    before = particles.copy()
    particles.stop(0, lambda k, x, rows: np.full(rows.size, 0.5))  # fractional only
    _all_alive_is_alive_all(particles)
    particles.stop(1, lambda k, x, rows: (rows > 0).astype(float))  # stops row 0
    for p in (particles, particles.copy(), before, before.copy()):
        _all_alive_is_alive_all(p)
    assert before.all_alive and not particles.all_alive

    prob, grid = brownian_problem(), TimeGrid(4, 1.0)
    m0 = make_empirical([(-0.5, 1), (0.5, 1)])
    maps = (StopMap.constant(1.0), StopMap.constant(0.5), StopMap.threshold(0.0),
            StopMap.constant(1.0))
    noise = policy_noise(m0, prob, 5, 3, range(grid.n))
    run = run_policy(m0, prob, grid, maps, 5, 3, noise=noise)
    for k, checkpoint in enumerate(run.checkpoints):
        _all_alive_is_alive_all(checkpoint.particles)
        resumed = run_policy(m0, prob, grid, maps, 5, 3, k, noise=noise, resume=checkpoint)
        _all_alive_is_alive_all(resumed.particles)
    assert run.checkpoints[2].particles.all_alive and not run.particles.all_alive


def test_an_all_alive_step_equals_the_masked_step_bit_for_bit():
    rng = np.random.default_rng(5)
    x, xi = rng.standard_normal((50, 1)), rng.standard_normal((50, 1))
    prob = gbm_problem(-0.3, 0.45)
    every = np.ones(50, dtype=bool)
    for noise in (xi, None):
        unmasked = advance_positions(x, None, 0.3, 0.1, prob, None, noise)
        masked = advance_positions(x, every, 0.3, 0.1, prob, None, noise)
        assert unmasked.tobytes() == masked.tobytes()
    # and a whole flow with every row alive, against the same flow made to mask
    m0 = make_empirical([(-0.5, 1), (0.5, 1)])
    table = Noise(8, 10, 1, range(6)).table
    runs = [Particles.from_measure(m0, 5) for _ in range(2)]
    runs[1].all_alive = False
    for particles in runs:
        for _ in flow(particles, prob, 0.0, 0.2, range(6), noise=table):
            pass
    assert runs[0].x.tobytes() == runs[1].x.tobytes()


@pytest.mark.parametrize("alive", [None, np.ones(2, dtype=bool)], ids=["all-alive", "masked"])
@pytest.mark.parametrize("drift", [np.nan, 1.5e308], ids=["nan", "overflow"])
def test_a_non_finite_step_is_refused_with_or_without_the_mask(alive, drift):
    prob = Problem(d=1, b=lambda t, x, m: drift, sigma=lambda t, x, m: 0.0, f=None,
                   g=_mean_g, horizon=1.0)
    x = np.full((2, 1), 1.5e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite drift or volatility"):
            advance_positions(x, alive, 0.0, 1.0, prob, None, None)


def test_flow_builds_no_canonical_measure(monkeypatch):
    import mfstop.measures

    builds = []
    build = mfstop.measures._build

    def counting(*args):
        builds.append(args)
        return build(*args)

    cfg = load_experiment_config(str(files("mfstop").joinpath("configs", "attraction.json")))
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    pol = Policy((StopMap.constant(0.8),) * grid.n)
    monkeypatch.setattr(mfstop.measures, "_build", counting)
    evaluate_policy(inst.m0, inst.problem, grid, pol, cfg.paths_per_atom, cfg.seed)
    assert builds == []
    u = make_unstopped_functional(inst.problem, n_steps=8, paths_per_atom=20, seed=4)
    generator(u, 0.0, inst.m0, inst.problem)
    # only the bump probes, each at eps and eps/2: x, x + h and x - h per
    # survivor; 3 atoms, all alive
    assert len(builds) == 2 * 3 * 3


def test_snapshot_is_valid_measure():
    prob = brownian_problem()
    m0 = make_empirical([(0.0, 1), (1.0, 0)], [3, 1])
    particles = Particles.from_measure(m0, 7)
    ids = np.arange(particles.w.shape[0], dtype=np.uint64)
    noise = Noise(8, ids, 1, range(5)).table
    for k, _, snap in flow(particles, prob, 0.0, 0.2, range(5), noise=noise):
        assert snap is None  # no coefficient reads the measure
        if k == 3:
            snap = particles.snapshot()
            assert snap.ws.sum() == pytest.approx(1.0, abs=1e-12)
            assert snap.surviving_mass() == pytest.approx(0.75, abs=1e-12)


def test_frozen_atoms_stay_outside_the_rows():
    # the layout that keeps stopped atoms once, outside the path arrays
    prob = brownian_problem()
    m0 = make_empirical([(0.0, 1), (1.0, 0)], [3, 1])
    particles = Particles.from_measure(m0, 7, freeze_stopped=True)
    assert particles.w.shape[0] == 7 and particles.alive.all()
    ids = np.arange(7, dtype=np.uint64)
    for _ in flow(particles, prob, 0.0, 0.2, range(5), noise=Noise(8, ids, 1, range(5)).table):
        pass
    snap = particles.snapshot()
    assert snap.ws.sum() == pytest.approx(1.0, abs=1e-12)
    assert snap.surviving_mass() == pytest.approx(0.75, abs=1e-12)
    xs, ws = snap.stopped()
    assert xs[:, 0].tolist() == [1.0] and ws[0] == pytest.approx(0.25, abs=1e-15)


def test_replay_without_seed_draws_no_noise():
    calls = []

    def sigma(t, x, m):
        calls.append(t)
        return 1.0

    prob = Problem(d=1, b=lambda t, x, m: 1.0, sigma=sigma, f=None, g=_mean_g, horizon=1.0)
    m0 = make_empirical([(2.0, 1)])
    particles, _ = simulate(m0, prob, TimeGrid(4, 1.0), 1, seed=None)
    assert calls == []
    assert particles.x[0, 0] == pytest.approx(3.0, abs=1e-15)


def test_nonfinite_coefficients_raise():
    prob = Problem(
        d=1, b=lambda t, x, m: np.nan, sigma=lambda t, x, m: 1.0, f=None,
        g=_mean_g, horizon=1.0,
    )
    m0 = make_empirical([(0.0, 1)])
    with pytest.raises(ValueError, match="non-finite"):
        simulate(m0, prob, TimeGrid(2, 1.0), 3, seed=9)


def test_truncation_warning():
    # contraction regime, but horizon too short for |X| to die out
    prob = gbm_problem(-0.5, 0.1, horizon=1.0, truncated=True)
    m0 = make_empirical([(1.0, 1)])
    with pytest.warns(RuntimeWarning, match="truncated infinite horizon"):
        simulate(m0, prob, TimeGrid(8, 1.0), 100, seed=10)


def test_truncation_quiet_when_decayed():
    prob = gbm_problem(-1.0, 0.05, horizon=8.0, truncated=True)
    m0 = make_empirical([(1.0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(m0, prob, TimeGrid(64, 8.0), 100, seed=11)


def test_truncation_guard_runs_on_the_production_paths():
    prob = gbm_problem(-0.5, 0.1, horizon=1.0, truncated=True)
    m0 = make_empirical([(1.0, 1)])
    grid = TimeGrid(8, 1.0)
    with pytest.warns(RuntimeWarning, match="truncated infinite horizon"):
        evaluate_policy(m0, prob, grid, Policy.never_stop(grid.n), 20, seed=10)
    u = make_unstopped_functional(prob, n_steps=8, paths_per_atom=20, seed=10)
    with pytest.warns(RuntimeWarning, match="truncated infinite horizon"):
        u(0.0, m0)
    # stopping runs and runs over part of [0, T] stay quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stop_at_once = (StopMap.constant(0.0),) + (StopMap.constant(1.0),) * (grid.n - 1)
        evaluate_policy(m0, prob, grid, Policy(stop_at_once), 20, seed=10)
        evaluate_policy(m0, prob, grid, Policy((StopMap.constant(0.5),) * grid.n), 20, seed=10)
        simulate(m0, prob, grid, 20, seed=10, nodes=range(4))
        simulate(m0, prob, grid, 20, seed=10, nodes=range(4, 8))
        u(0.5, m0)


def test_a_noise_table_is_read_only_and_equals_per_node_draws():
    from mfstop.rng import normals

    ids = np.arange(500, dtype=np.uint64) * 7
    nodes = range(3, 11)
    noise = Noise(13, ids, 2, nodes)
    assert noise.table.shape == (len(nodes), 500, 2)
    assert not noise.table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        noise.table[0, 0, 0] = 0.0
    for i, k in enumerate(nodes):
        assert np.array_equal(noise.table[i], normals(13, ids, k, 2))


def test_flow_refuses_a_noise_table_of_another_node_count():
    particles = Particles.from_measure(make_empirical([(0.0, 1)]), 4)
    table = Noise(3, 4, 1, range(5)).table
    for rows in (table[:4], np.concatenate([table, table[:1]])):
        with pytest.raises(ValueError, match=f"the noise table has {len(rows)} rows"):
            next(flow(particles, brownian_problem(), 0.0, 0.2, range(5), noise=rows))
    # the check runs before any state is touched
    assert np.array_equal(particles.x, np.zeros((4, 1)))


@pytest.mark.parametrize(
    "n_ids,per_pass",
    [(1000, NOISE_PASS_LANES // 1000), (NOISE_PASS_LANES + 1, 1)],
    ids=["nodes-per-pass", "one-node-wider-than-the-cap"],
)
def test_a_noise_table_wider_than_the_lane_cap_is_drawn_in_capped_passes(
    monkeypatch, n_ids, per_pass
):
    import mfstop.rng

    draw = mfstop.rng.normals
    passes = []

    def recording(seed, ids, step, d):
        passes.append(np.atleast_1d(step).tolist())
        return draw(seed, ids, step, d)

    monkeypatch.setattr(mfstop.rng, "normals", recording)
    ids = np.arange(n_ids, dtype=np.uint64) * 3 + 2**33
    nodes = range(3, 20)
    noise = Noise(5, ids, 3, nodes)
    # the constructor draws the whole table, whole nodes per pass, each node once
    assert len(passes) == -(-len(nodes) // per_pass) > 1
    assert all(len(steps) <= per_pass for steps in passes)
    assert all(len(steps) * n_ids <= max(NOISE_PASS_LANES, n_ids) for steps in passes)
    assert sum(passes, []) == list(nodes)
    monkeypatch.setattr(mfstop.rng, "normals", draw)
    assert noise.table.shape == (len(nodes), n_ids, 3) and noise.table.flags.c_contiguous
    assert not noise.table.flags.writeable
    for i, k in enumerate(nodes):
        assert np.array_equal(noise.table[i].view(np.uint64), draw(5, ids, k, 3).view(np.uint64))
