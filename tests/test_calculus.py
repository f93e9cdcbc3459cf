"""Bump-quotient derivatives, the flow generator, and stationarity residuals."""

from collections import Counter
from importlib.resources import files

import numpy as np
import pytest

from mfstop.calculus import (
    ResidualConfig,
    estimate_derivatives,
    generator,
    linear_derivative,
    make_unstopped_functional,
    obstacle_residual,
    running_reward,
    stop_sensitivity,
)
from mfstop.catalog import build_instance, load_experiment_config
from mfstop.dynamics import Problem
from mfstop.measures import StopMap, apply_stop, make_empirical
from mfstop.pde import aggregate_value, standard_os_pde
from mfstop.util import rng_for

M3 = make_empirical([(-0.4, 1), (0.5, 0), (1.1, 1)], [0.3, 0.3, 0.4])


def full_mean(m):
    return float(m.xs[:, 0] @ m.ws)


def test_linear_functional_derivative_is_exact():
    u = lambda t, m: float((m.xs[:, 0] ** 2 + 3.0 * m.flags) @ m.ws)
    expect = (0.7**2 + 3.0) - u(0.0, M3)
    for richardson in (False, True):
        got = linear_derivative(u, 0.0, M3, (0.7, 1), eps=0.02, richardson=richardson)
        assert abs(got - expect) <= 1e-12


def test_quadratic_functional_matches_closed_form():
    u = lambda t, m: full_mean(m) ** 2
    zbar = full_mean(M3)
    y = 0.9
    exact = 2.0 * zbar * (y - zbar)
    rich = linear_derivative(u, 0.0, M3, (y, 1), eps=1e-2)
    assert abs(rich - exact) <= 1e-10
    raw_err = [
        abs(linear_derivative(u, 0.0, M3, (y, 1), eps=e, richardson=False) - exact)
        for e in (1e-2, 5e-3)
    ]
    assert raw_err[0] > 1e-6
    assert abs(raw_err[0] / raw_err[1] - 2.0) <= 0.2


def test_richardson_error_is_second_order_on_a_cubic():
    u = lambda t, m: full_mean(m) ** 3
    zbar = full_mean(M3)
    y = 1.3
    exact = 3.0 * zbar**2 * (y - zbar)
    eps = np.array([1e-2, 5e-3, 2.5e-3])
    raw = np.array(
        [
            abs(linear_derivative(u, 0.0, M3, (y, 1), eps=e, richardson=False) - exact)
            for e in eps
        ]
    )
    rich = np.array(
        [abs(linear_derivative(u, 0.0, M3, (y, 1), eps=e) - exact) for e in eps]
    )
    slope_raw = np.polyfit(np.log(eps), np.log(raw), 1)[0]
    slope_rich = np.polyfit(np.log(eps), np.log(rich), 1)[0]
    assert 0.9 <= slope_raw <= 1.2
    assert 1.8 <= slope_rich <= 2.3


def test_constant_functional_has_zero_derivative():
    u = lambda t, m: 4.2
    assert linear_derivative(u, 0.0, M3, (0.3, 0)) == 0.0


def test_linear_derivative_is_centered_and_d_i_is_gauge_invariant():
    u = lambda t, m: full_mean(m) ** 2 + float((m.xs[:, 0] ** 2) @ m.ws)
    delta_m = [linear_derivative(u, 0.0, M3, (x, f)) for x, f in zip(M3.xs[:, 0], M3.flags)]
    assert abs(float(M3.ws @ delta_m)) <= 1e-10
    x = 1.1
    direct = linear_derivative(u, 0.0, M3, (x, 1)) - linear_derivative(
        u, 0.0, M3, (x, 0)
    )
    live_xs = M3.survivors()[0][:, 0]
    k = int(np.flatnonzero(np.isclose(live_xs, x))[0])
    assert abs(stop_sensitivity(u, 0.0, M3)[k] - direct) <= 1e-9


def test_generator_matches_drift_only_analytic_value():
    problem = Problem(
        d=1,
        b=lambda t, x, m: np.full_like(x, 0.3),
        sigma=lambda t, x, m: 0.0,
        f=None,
        g=lambda xs, ws: 0.0,
        horizon=1.0,
    )
    u = lambda t, m: float(m.survivors()[0][:, 0] @ m.survivors()[1])
    got = generator(u, 0.4, M3, problem)
    assert abs(got - 0.3 * M3.surviving_mass()) <= 1e-8


def test_generator_matches_diffusion_only_analytic_value():
    problem = Problem(
        d=1,
        b=lambda t, x, m: 0.0,
        sigma=lambda t, x, m: 0.7,
        f=None,
        g=lambda xs, ws: 0.0,
        horizon=1.0,
    )
    u = lambda t, m: float((m.survivors()[0][:, 0] ** 2) @ m.survivors()[1])
    got = generator(u, 0.2, M3, problem)
    assert abs(got - 0.49 * M3.surviving_mass()) <= 1e-5


def test_generator_time_term_with_edge_clamping():
    problem = Problem(
        d=1,
        b=lambda t, x, m: 0.0,
        sigma=lambda t, x, m: 0.0,
        f=None,
        g=lambda xs, ws: 0.0,
        horizon=2.0,
    )
    u = lambda t, m: t * m.surviving_mass()
    for t in (0.0, 1.0, 2.0):
        got = generator(u, t, M3, problem)
        assert abs(got - M3.surviving_mass()) <= 1e-9


def test_running_reward_integrates_over_survivors():
    problem = Problem(
        d=1,
        b=lambda t, x, m: 0.0,
        sigma=lambda t, x, m: 1.0,
        f=lambda t, x, m: 0.1 * x[:, 0],
        g=lambda xs, ws: 0.0,
        horizon=1.0,
    )
    expect = 0.1 * (-0.4 * 0.3 + 1.1 * 0.4)
    assert abs(running_reward(problem, 0.0, M3) - expect) <= 1e-12


def _gbm_problem():
    return Problem(
        d=1,
        b=lambda t, x, m: -0.35 * x,
        sigma=lambda t, x, m: 0.45 * x,
        f=lambda t, x, m: 0.1 * x[:, 0],
        g=lambda xs, ws: float(xs[:, 0] @ ws),
        horizon=2.0,
    )


def test_unstopped_functional_exact_for_deterministic_drift():
    problem = Problem(
        d=1,
        b=lambda t, x, m: 1.0,
        sigma=lambda t, x, m: 0.0,
        f=lambda t, x, m: np.ones(x.shape[0]),
        g=lambda xs, ws: float(xs[:, 0] @ ws),
        horizon=1.0,
    )
    m = make_empirical([(2.0, 1)])
    u = make_unstopped_functional(problem, n_steps=7, paths_per_atom=1, seed=0)
    # running reward 1 * surviving mass over [0.4, 1], then the drifted mean
    assert u(0.4, m) == pytest.approx(0.6 + 2.6, abs=1e-12)
    assert u(1.0, m) == pytest.approx(2.0, abs=1e-15)


def test_simulated_functional_is_linear_under_reweighting():
    # with a linear terminal reward and linear running reward, the simulated
    # functional is exactly linear in the weights once the noise is frozen,
    # so bump quotients at an existing atom must not depend on eps at all
    problem = _gbm_problem()
    u = make_unstopped_functional(problem, n_steps=24, paths_per_atom=400, seed=3)
    m = make_empirical([(0.8, 1), (1.1, 1), (1.35, 0)], [0.4, 0.35, 0.25])
    qa = linear_derivative(u, 0.7, m, (1.1, 1), eps=0.2, richardson=False)
    qb = linear_derivative(u, 0.7, m, (1.1, 1), eps=0.01, richardson=False)
    assert abs(qa - qb) <= 1e-9


def test_simulated_functional_shares_noise_across_small_shifts():
    problem = _gbm_problem()
    u = make_unstopped_functional(problem, n_steps=24, paths_per_atom=400, seed=3)
    m = make_empirical([(0.8, 1), (1.1, 1)], [0.5, 0.5])
    shifted = make_empirical([(0.8 + 1e-3, 1), (1.1, 1)], [0.5, 0.5])
    # same bucket, same draws: the gap reflects the flow derivative, not
    # independent Monte Carlo noise
    assert abs(u(0.7, shifted) - u(0.7, m)) <= 3e-3


def test_flow_identity_for_simulated_unstopped_functional():
    problem = _gbm_problem()
    u = make_unstopped_functional(problem, n_steps=48, paths_per_atom=3000, seed=13)
    m = make_empirical([(0.8, 1), (1.1, 1), (1.35, 0)], [0.4, 0.35, 0.25])
    t = 0.7
    resid = generator(u, t, m, problem) + running_reward(problem, t, m)
    assert abs(resid) <= 5e-2


# the shipped attraction law, whose atoms at -1, 0 and 1 sit on bucket edges,
# and a law whose atoms and probes stay inside three buckets
ATTRACTION = build_instance("attraction")
THREE_BUCKETS = make_empirical([(-0.375, 1), (0.125, 1), (0.625, 1)], [0.3, 0.3, 0.4])


def drawn_lanes(monkeypatch) -> list:
    """Record the (id, step) address of every lane that `rng.normals` draws."""
    import mfstop.rng

    lanes = []
    draw = mfstop.rng.normals

    def recording(seed, ids, step, d):
        lanes.extend((int(i), int(k)) for k in np.atleast_1d(step) for i in ids)
        return draw(seed, ids, step, d)

    monkeypatch.setattr(mfstop.rng, "normals", recording)
    return lanes


def _key_lanes(keys, paths: int, n_steps: int) -> set:
    """The addresses of the given noise keys' paths over every node."""
    return {((key << 20) | p, k) for key in keys for p in range(paths) for k in range(n_steps)}


def _recording(u, calls):
    def recorded(t, m):
        calls.append((t, m))
        return u(t, m)

    return recorded


def _assert_shared_noise_is_invisible(problem, calls, **sim):
    """Every call of one functional equals a fresh functional's value on that call alone."""
    u = make_unstopped_functional(problem, **sim)
    for t, m in calls:
        assert u(t, m) == make_unstopped_functional(problem, **sim)(t, m)


def test_shared_noise_is_bit_identical_to_fresh_functionals():
    sim = dict(n_steps=8, paths_per_atom=20, seed=4)
    problem = ATTRACTION.problem
    # the generator's own probes: the base, the bumps at x and x +- h, and
    # both time probes
    calls = []
    u = _recording(make_unstopped_functional(problem, **sim), calls)
    generator(u, 0.1, ATTRACTION.m0, problem)
    assert len(calls) == 21 and {t for t, _ in calls} > {0.1}
    stopped = make_empirical([(-1.0, 1), (0.0, 0), (1.0, 1)], [0.3, 0.3, 0.4])
    calls += [(0.0, stopped), (0.3, THREE_BUCKETS), (0.0, ATTRACTION.m0)]
    _assert_shared_noise_is_invisible(problem, calls, **sim)

    # a running reward that reads the measure, next to a stopped atom
    problem = Problem(
        d=1,
        b=lambda t, x, m: -0.3 * x,
        sigma=lambda t, x, m: 0.45 * x,
        f=lambda t, x, m: 0.1 * x[:, 0] + 0.01 * m.surviving_mass(),
        g=lambda xs, ws: float(xs[:, 0] @ ws),
        horizon=2.0,
        uses_measure=True,
    )
    m = make_empirical([(0.8, 1), (1.1, 1), (1.35, 0)], [0.4, 0.35, 0.25])
    calls = []
    generator(_recording(make_unstopped_functional(problem, **sim), calls), 0.7, m, problem)
    _assert_shared_noise_is_invisible(problem, calls + [(0.0, m), (0.7, M3)], **sim)


@pytest.mark.parametrize(
    "m,n_keys", [(THREE_BUCKETS, 3), (ATTRACTION.m0, 6)], ids=["three-buckets", "shipped"]
)
def test_each_noise_key_is_drawn_once_per_functional(monkeypatch, m, n_keys):
    u = make_unstopped_functional(ATTRACTION.problem, n_steps=8, paths_per_atom=20, seed=4)
    lanes = drawn_lanes(monkeypatch)
    generator(u, 0.0, m, ATTRACTION.problem)
    # each key's paths over every node, each address once: the generator's
    # 21 evaluations of u share them
    keys = {i >> 20 for i, _ in lanes}
    assert len(keys) == n_keys
    assert len(lanes) == n_keys * 20 * 8
    assert set(lanes) == _key_lanes(keys, 20, 8)


def test_shared_noise_stays_under_the_cap(monkeypatch):
    import mfstop.dynamics

    sim = dict(n_steps=8, paths_per_atom=20, seed=4)
    # two keys' noise fits, a third does not
    monkeypatch.setattr(mfstop.dynamics, "MAX_NOISE_DOUBLES", 2 * 20 * 8)
    low = make_empirical([(-0.375, 1), (0.125, 1)], [0.5, 0.5])
    high = make_empirical([(0.625, 1), (1.125, 1)], [0.5, 0.5])
    u = make_unstopped_functional(ATTRACTION.problem, **sim)
    lanes = drawn_lanes(monkeypatch)
    for m in (low, high, low, high):
        assert u(0.0, m) == make_unstopped_functional(ATTRACTION.problem, **sim)(0.0, m)
    # each law's keys push the other's out, so every call of u draws again:
    # each of the 4 keys' addresses is drawn by 2 calls of u and 2 fresh
    # functionals, and once by each
    keys = {i >> 20 for i, _ in lanes}
    assert len(keys) == 4
    assert Counter(lanes) == dict.fromkeys(_key_lanes(keys, 20, 8), 4)
    with pytest.raises(ValueError, match="the particle noise needs 480 doubles"):
        u(0.0, THREE_BUCKETS)


def _bootstrap_mean_and_se(samples) -> tuple[float, float]:
    samples = np.asarray(samples, dtype=float)
    picks = np.random.default_rng(0).integers(0, samples.size, size=(2000, samples.size))
    return float(samples.mean()), float(samples[picks].mean(axis=1).std(ddof=1))


def test_anchored_noise_keys_give_the_shipped_attraction_law_a_zero_generator():
    # The attraction value is the total mean, which neither the flow nor any
    # stop changes: the never-stop generator is 0 and every stop of m keeps
    # u. Keyed by m's atoms, the +-h probes share their atom's draws. The
    # bucket keys put the shipped atoms at -1, 0 and 1 on bucket edges, the
    # probes draw independent noise, and the generator reads hundreds.
    problem, m = ATTRACTION.problem, ATTRACTION.m0
    rng = rng_for(0, "residual")
    stops = [StopMap.constant(0.0)] + [StopMap.random(rng) for _ in range(5)]
    generators, gaps = [], []
    for seed in range(8):  # independent replicates of the simulated functional
        u = make_unstopped_functional(problem, paths_per_atom=200, seed=seed, anchors=m.xs[:, 0])
        generators.append(generator(u, 0.0, m, problem) + running_reward(problem, 0.0, m))
        base = u(0.0, m)
        gaps.append([u(0.0, apply_stop(m, stop)) - base for stop in stops])
    mean, se = _bootstrap_mean_and_se(generators)
    # 0.01 is the scale at which `mfstop residual` reads its interior term
    assert se < 0.01 and abs(mean) <= 4 * se
    for gap in np.transpose(gaps):
        mean, se = _bootstrap_mean_and_se(gap)
        assert abs(mean) <= 4 * se


def _put_setup():
    inst = build_instance("standard_put")
    pde = standard_os_pde(inst.problem, inst.psi, inst.pde_cfg)
    u = lambda t, m: aggregate_value(m, pde, inst.psi, t)
    return inst, u


# the aggregate u interpolates a PDE surface with cell width 0.025, so the
# spatial probes must straddle several cells for second differences to see
# the surface rather than the interpolation
PDE_H = 0.04


def test_residual_in_the_continuation_region():
    inst, u = _put_setup()
    m = make_empirical([(1.2, 1), (1.5, 1)], [0.5, 0.5])
    rep = obstacle_residual(
        u, 0.5, m, inst.problem, ResidualConfig(seed=1, h=PDE_H)
    )
    assert not rep["empty_survivors"]
    assert rep["d_I_min"] > 5e-2
    assert abs(rep["interior_term"]) <= 2e-2
    assert abs(rep["residual"]) <= 2e-2


def test_residual_flags_the_exercise_like_region():
    inst, u = _put_setup()
    m = make_empirical([(-2.0, 1)])
    rep = obstacle_residual(
        u, 0.5, m, inst.problem, ResidualConfig(seed=2, h=PDE_H)
    )
    assert rep["d_I_min"] <= 1e-3
    assert rep["residual"] <= rep["d_I_min"] + 1e-12
    assert rep["residual"] >= -2e-2


def test_residual_terminal_layer_has_no_stop_improvement():
    inst, u = _put_setup()
    m = make_empirical([(0.6, 1), (1.3, 1), (0.9, 0)], [0.4, 0.4, 0.2])
    rep = obstacle_residual(
        u, inst.problem.horizon, m, inst.problem,
        ResidualConfig(seed=3, h=PDE_H),
    )
    assert rep["d_I_min"] >= -1e-9


def test_residual_with_no_survivors_reports_interior_only():
    inst, u = _put_setup()
    m = make_empirical([(0.7, 0), (1.2, 0)], [0.5, 0.5])
    rep = obstacle_residual(
        u, 0.5, m, inst.problem, ResidualConfig(seed=4, h=PDE_H)
    )
    assert rep["empty_survivors"]
    assert rep["d_I_min"] is None
    assert rep["residual"] == rep["interior_term"]
    assert abs(rep["interior_term"]) <= 1e-6
    assert rep["n_kept"] >= 1


def test_residual_report_is_deterministic():
    inst, u = _put_setup()
    m = make_empirical([(0.9, 1), (1.4, 1)], [0.6, 0.4])
    cfg = ResidualConfig(seed=7, h=PDE_H, n_stop_maps=16)
    assert obstacle_residual(u, 0.3, m, inst.problem, cfg) == obstacle_residual(
        u, 0.3, m, inst.problem, cfg
    )


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_stop_maps", -1),
        ("n_stop_maps", 2.5),
        ("n_stop_maps", True),
        ("h", 0.0),
        ("h", -1e-3),
        ("h", float("nan")),
        ("h", float("inf")),
        ("h", True),
    ],
)
def test_residual_config_refuses_a_bad_field_when_made(field, value):
    # before any simulation: a bad h used to surface only in the first
    # derivative probe, after u(t, m) and every stop candidate had run
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ResidualConfig(**{field: value})


def test_bump_and_config_validation():
    u = lambda t, m: 0.0
    with pytest.raises(ValueError, match="h must be positive"):
        estimate_derivatives(u, 0.0, M3, h=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        ResidualConfig(n_stop_maps=-1)
    with pytest.raises(ValueError, match="flag"):
        linear_derivative(u, 0.0, M3, (0.5, 2))
    with pytest.raises(ValueError, match="eps"):
        linear_derivative(u, 0.0, M3, (0.5, 1), eps=0.9)
    problem = _gbm_problem()
    with pytest.raises(ValueError):
        make_unstopped_functional(problem, paths_per_atom=1 << 20)
    sim = make_unstopped_functional(problem, n_steps=4, paths_per_atom=8)
    with pytest.raises(ValueError, match="time"):
        sim(2.5, M3)


# generator, the stop sensitivities and the residual report's (interior_term,
# d_I_min, n_kept) on each shipped config, as computed before the probe plan
# was split by caller: 40 paths per atom over 16 steps, keyed by m's atoms
PROBES_BEFORE_THE_SPLIT = {
    "standard_put": (
        "-0x1.172dff7048518p-3",
        ["0x1.a0273682a0f88p-3", "0x1.512ba71f507b4p-2", "0x1.5a65b86e4c0a8p-3"],
        ("0x1.172dff7048518p-3", "0x1.5898faba2c5b8p-3", 1),
    ),
    "attraction": (
        "0x1.60b857381939cp-7",
        ["0x1.54e28781b4080p-6", "0x1.bbd4d18d82ff0p-6", "-0x1.6f877b55d9378p-4"],
        ("-0x1.6e49619678035p-7", "-0x1.6f877b55d94a8p-4", 6),
    ),
    "mean_variance": (
        "0x1.559d7e9af3280p-8",
        ["-0x1.574497dcb4e18p-1", "-0x1.1758dd8a6b7f0p-2", "-0x1.2c6aabec309a0p-1"],
        ("-0x1.559d7e9af3280p-8", "-0x1.57522851b72b8p-1", 6),
    ),
}


@pytest.mark.parametrize("name", sorted(PROBES_BEFORE_THE_SPLIT))
def test_split_probes_read_the_values_of_the_whole_plan_bit_for_bit(name):
    cfg = load_experiment_config(str(files("mfstop").joinpath("configs", f"{name}.json")))
    inst = cfg.instance()
    m, problem = inst.m0, inst.problem
    sim = dict(n_steps=16, paths_per_atom=40, seed=cfg.seed, anchors=m.xs[:, 0])
    gen, d_i, report = PROBES_BEFORE_THE_SPLIT[name]
    assert generator(make_unstopped_functional(problem, **sim), 0.0, m, problem).hex() == gen
    got = stop_sensitivity(make_unstopped_functional(problem, **sim), 0.0, m)
    assert [float(v).hex() for v in got] == d_i
    rep = obstacle_residual(make_unstopped_functional(problem, **sim), 0.0, m, problem,
                            ResidualConfig(n_stop_maps=4, seed=cfg.seed))
    assert (rep["interior_term"].hex(), rep["d_I_min"].hex(), rep["n_kept"]) == report
