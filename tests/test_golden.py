"""Golden values: exact numbers that no refactor or optimisation may move.

The artifact digests cover `simulate`, `solve` and `verify-dpp` on the three
shipped configs, `residual` on `standard_put` and `mollify` on all three, and
the `example meanvar` and `example es` outputs pin the
risk duals; `runtime_ms` is the only field left out. The 24 searches of the
benchmark's `search` pool are pinned one by one. The floats are
compared through `repr`, so a change in the last bit fails. A change that
moves any of these on purpose records the old and new values and the reason
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from importlib.resources import files

import numpy as np
import pytest

from mfstop import cli
from mfstop.calculus import make_unstopped_functional
from mfstop.catalog import build_instance, load_experiment_config
from mfstop.dynamics import Problem, TimeGrid
from mfstop.measures import StopMap, make_empirical, wasserstein
from mfstop.pde import aggregate_value, standard_os_pde
from mfstop.policy import Policy, evaluate_policy, policy_to_json, terminal_stop_sup
from mfstop.risk import expected_shortfall_value, mean_variance_dual
from mfstop.rng import _philox_rounds
from mfstop.solver import SearchConfig, backward_enumeration, solve_value, verify_dpp

ARTIFACT_SHA256 = {
    ("standard_put", "simulate"): "24704733dbe8a8820a69fba61c9e06f9e49bb5967892f11b00f80474b5df70cd",
    ("standard_put", "solve"): "01e8dc17dc843c701e64c1904f1dad2670842c9e50683c08d58f4141625fd3d0",
    ("standard_put", "verify-dpp"): "21d15f7f77285fc2e396d164b0b54f8843bd595069121f1e55c4f360c7c9da14",
    ("mean_variance", "simulate"): "ae10e8a40f1ee4be5fa7c8213d942c186d046406e4ca87d2b13866b5d82d880d",
    ("mean_variance", "solve"): "f04bff2588d27bc5f90d1a9307f0639fc8d8400c7fe373ec0349639b725474a1",
    ("mean_variance", "verify-dpp"): "e9701ff742bb9fce5f3f55f1caabde517823bd8ed9f34372aef945389cdf99c8",
    ("attraction", "simulate"): "7b5ecd38ca777d44501b05572d83c37f562d3d0dce34054e3a261006590beb8b",
    ("attraction", "solve"): "d1dc505fced210fd0bb854f399e38635092d37ddfdf92d9c311ce91f7d094680",
    ("attraction", "verify-dpp"): "54bc60bbeba9c1da836661ce880dffe989dc78d6693ac124d4aa95f3568e40d6",
    ("standard_put", "residual"): "8169ed087e0a71330eeb92889a598e75e1263cc333c5dd17fe37122c7bef8b64",
    ("standard_put", "mollify"): "8b04e700f56f06fe7868479a5c6ff915fdf3433ec9e6c2877805f804bb20ab1e",
    ("mean_variance", "mollify"): "3802e4bf06cbd59912693ae5a166d70e6ef24a1e1bdfbc1fb9ff6e773416531d",
    ("attraction", "mollify"): "d6e85089b326513bb47c9414aa2f74b00e3f0aea178b4cd7374d7bb778fbbd39",
}

TERMINAL_CSV_SHA256 = {
    "standard_put": "6d6342c7017c393489c2c486dbb4543c9465a801398c87b269adccabc60542ef",
    "mean_variance": "8001085ab8b73eb5c0b7ece5b4db78b4ef1edfd1fec2675d8e6ee5def2259d58",
    "attraction": "9583c6ece85bb2d1018c6f281523ed7c060187687ba78776f525d8a1a82c0e13",
}

ARTIFACT_NAME = {
    "simulate": "simulate.json",
    "solve": "solve.json",
    "verify-dpp": "dpp.json",
    "residual": "residual.json",
    "mollify": "mollify.json",
}


def _artifact_digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "runtime_ms"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("config,command", sorted(ARTIFACT_SHA256))
def test_shipped_config_artifacts_are_bit_identical(tmp_path, config, command):
    path = str(files("mfstop").joinpath("configs", f"{config}.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main([command, "--config", path, "--out", str(tmp_path), "--quiet"])
    assert code == 0
    with open(os.path.join(tmp_path, ARTIFACT_NAME[command]), encoding="utf-8") as fh:
        assert _artifact_digest(json.load(fh)) == ARTIFACT_SHA256[(config, command)]
    if command == "simulate":
        with open(os.path.join(tmp_path, "simulate_terminal.csv"), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == TERMINAL_CSV_SHA256[config]


# ---------------------------------------------------------------------------
# the simulated never-stop functional
# ---------------------------------------------------------------------------


def test_unstopped_functional_on_attraction():
    inst = build_instance("attraction")
    u = make_unstopped_functional(inst.problem, paths_per_atom=50, seed=5)
    shifted = make_empirical([(x + 0.125, 1) for x in (-1.0, 0.0, 1.0)], [0.3, 0.3, 0.4])
    assert repr(u(0.0, inst.m0)) == "0.1066144131773828"
    assert repr(u(0.5, inst.m0)) == "0.10467709641129697"
    assert repr(u(0.0, shifted)) == "0.23161441317738277"
    assert repr(u(0.5, shifted)) == "0.22967709641129697"


def test_unstopped_functional_with_running_reward_and_frozen_atoms():
    # trapezoid over the running reward, a reward that reads the measure,
    # and a stopped atom carried outside the path arrays
    problem = Problem(
        d=1,
        b=lambda t, x, m: -0.3 * x,
        sigma=lambda t, x, m: 0.45 * x,
        f=lambda t, x, m: 0.1 * x[:, 0] + 0.01 * m.surviving_mass(),
        g=lambda xs, ws: float(xs[:, 0] @ ws),
        horizon=2.0,
        uses_measure=True,
    )
    u = make_unstopped_functional(problem, n_steps=12, paths_per_atom=40, seed=3)
    m = make_empirical([(0.8, 1), (1.1, 1), (1.35, 0)], [0.4, 0.35, 0.25])
    assert repr(u(0.7, m)) == "0.8340411771604395"
    assert repr(u(0.0, m)) == "0.772871001054875"


# ---------------------------------------------------------------------------
# the transport distance and the terminal sup over stops
# ---------------------------------------------------------------------------


def test_wasserstein_lp_across_flags():
    m1 = make_empirical([(0.1, 1), (0.9, 0), (1.7, 1)], [0.2, 0.5, 0.3])
    m2 = make_empirical([(0.4, 0), (1.2, 1)], [0.6, 0.4])
    assert repr(wasserstein(m1, m2, order=1)) == "0.6144030650891055"
    assert repr(wasserstein(m1, m2, order=2)) == "0.6557438524302001"


def test_terminal_stop_sup_with_survivor_mass_reward():
    def functional(mm):
        s = mm.surviving_mass()
        return s * (1.0 - s) + float(np.sin(mm.xs[:, 0]) @ mm.ws)

    m = make_empirical([(0.7, 1), (-0.3, 1), (1.1, 0)], [0.5, 0.3, 0.2])
    value, _ = terminal_stop_sup(m, functional)
    assert repr(value) == "0.6616942536327308"


# ---------------------------------------------------------------------------
# exact enumeration and the DPP check
# ---------------------------------------------------------------------------


def hump_problem():
    """The sigma = 0 instance of test_solver.py."""
    return Problem(
        d=1,
        b=lambda t, x, m: 1.0 - 2.8 * t,
        sigma=lambda t, x, m: 0.0,
        f=None,
        g=lambda p, w: float(-((p[:, 0] - 1.0) ** 2) @ w),
        horizon=1.0,
    )


HUMP_M0 = make_empirical([(0.4, 1), (1.0, 1), (0.75, 1)], [0.3, 0.3, 0.4])


def pull_problem(sigma=lambda t, x, m: 0.0):
    """Measure-dependent drift, a running reward, and a tunable volatility."""

    def b(t, x, m):
        xs, ws = m.survivors()
        total = float(ws.sum())
        center = float(xs[:, 0] @ ws / total) if total > 0 else 0.0
        return 1.5 * (center - x) + 0.3 - t

    return Problem(
        d=1,
        b=b,
        sigma=sigma,
        f=lambda t, x, m: np.cos(2.0 * x[:, 0]) - 0.3,
        g=lambda p, w: float(-((p[:, 0] - 0.6) ** 2) @ w),
        horizon=1.0,
        uses_measure=True,
    )


PULL_M0 = make_empirical([(0.1, 1), (0.9, 1), (1.6, 1), (0.4, 0)], [0.2, 0.3, 0.3, 0.2])


def test_enumeration_on_hump_instance():
    grid = TimeGrid(2, 1.0)
    res = backward_enumeration(HUMP_M0, hump_problem(), grid)
    assert repr(res.value) == "-0.004"
    assert res.stop_nodes == (1, None, 0)
    report = verify_dpp(HUMP_M0, hump_problem(), grid, split_index=1, mode="exact")
    assert (repr(report.lhs), repr(report.rhs)) == ("-0.004", "-0.004")


def test_enumeration_with_measure_dependent_drift_and_frozen_atom():
    grid = TimeGrid(3, 1.0)
    res = backward_enumeration(PULL_M0, pull_problem(), grid)
    assert repr(res.value) == "-0.2631812767919637"
    assert res.stop_nodes == (None, 0, 0)
    report = verify_dpp(PULL_M0, pull_problem(), grid, split_index=2, mode="exact")
    assert repr(report.lhs) == "-0.2631812767919637"
    assert repr(report.rhs) == "-0.2631812767919637"


# ---------------------------------------------------------------------------
# policy evaluation with running reward, fractional stops and the pool
# ---------------------------------------------------------------------------


def noisy_pull_problem():
    return pull_problem(sigma=lambda t, x, m: 0.4 + 0.1 * x[:, 0] ** 2)


def test_policy_value_with_fractional_stops_and_running_reward():
    pol = Policy(
        (
            StopMap.constant(0.7),
            StopMap.threshold(0.2, "below"),
            StopMap.logistic(2.0, -1.0),
            StopMap.constant(1.0),
        )
    )
    est = evaluate_policy(PULL_M0, noisy_pull_problem(), TimeGrid(4, 1.0), pol, 30, seed=17)
    assert repr(est.value) == "-0.6092659206071382"
    assert repr(est.mc_stderr) == "0.023611146870461754"


def test_dpp_search_with_prefix_bootstrap():
    cfg = SearchConfig(paths_per_atom=12, refine_rounds=1, restart_paths=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = verify_dpp(
            PULL_M0, noisy_pull_problem(), TimeGrid(4, 1.0), 2, solver_cfg=cfg, seed=23
        )
    assert repr(report.lhs) == "-0.2889394248726528"
    assert repr(report.rhs) == "-0.28260765964954926"
    assert repr(report.combined_stderr) == "0.013282461455935483"


# ---------------------------------------------------------------------------
# searches that exhaust every refinement round
# ---------------------------------------------------------------------------

UNCONVERGED_ATTRACTION = {
    # solver seed: value, stderr, evaluations, sha256 of the policy JSON
    1: (
        "0.12107895678669904",
        "0.0061702955921796405",
        200,
        "09d249b8fc9f5381997badc9422dc90eda7e343b285aad4f45f3a16bcf92c2e1",
    ),
    7: (
        "0.11348557168369185",
        "0.0037677359566737965",
        185,
        "ff4271ed5e28398d5ec821f9a030d78b41a74993e20f995b030d8494506a13a2",
    ),
}


@pytest.mark.parametrize("seed", sorted(UNCONVERGED_ATTRACTION))
def test_unconverged_search_on_attraction(seed):
    # the SearchConfig that `mfstop solve` builds from the shipped config
    cfg = load_experiment_config(str(files("mfstop").joinpath("configs", "attraction.json")))
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    scfg = SearchConfig(paths_per_atom=cfg.paths_per_atom, threads=cfg.threads)
    with pytest.warns(RuntimeWarning, match="budget exhausted"):
        res = solve_value(inst.m0, inst.problem, grid, scfg, seed=seed)
    value, stderr, n_evaluations, policy_sha256 = UNCONVERGED_ATTRACTION[seed]
    assert (repr(res.estimate.value), repr(res.estimate.mc_stderr)) == (value, stderr)
    assert res.n_evaluations == n_evaluations
    assert res.converged is False
    assert hashlib.sha256(policy_to_json(res.policy).encode()).hexdigest() == policy_sha256


# ---------------------------------------------------------------------------
# the benchmark's whole search pool
# ---------------------------------------------------------------------------

SEARCH_POOL = {
    # (config, solver seed): value, stderr, evaluations, converged, sha256 of the policy JSON
    ("standard_put", 0): ("0.39576067819941474", "0.014964687524258353", 161, True, "717fb770b0c1b206dbffc259803566b48b2157f3aa4a401b645cb3ee62fbbf71"),
    ("standard_put", 1): ("0.3647766524142745", "0.011031667153760949", 161, True, "19511dc7c4636cab9f3fe454ca58ea8590a3b008b281e9574f61b5592b864b78"),
    ("standard_put", 2): ("0.37014946146433053", "0.015686110946051678", 46, True, "1d16cf20020d12f4d0730f24aaf65beafc480ef39708d262a18b622a2537c1bc"),
    ("standard_put", 3): ("0.3913533231005788", "0.014078399122029833", 71, True, "33f6bde6952697acbcecb7e0f40d5b8ce5c8ec131c6f874a2c9da3e56da00704"),
    ("standard_put", 4): ("0.3899931510256428", "0.014828919747731593", 116, True, "32b397fe1198fa256682f2684da105b64b48634fc915dc30f240d071dc0850a2"),
    ("standard_put", 5): ("0.3766533885606603", "0.015309015162062694", 46, True, "1d16cf20020d12f4d0730f24aaf65beafc480ef39708d262a18b622a2537c1bc"),
    ("standard_put", 6): ("0.3648454211395475", "0.015270476834199156", 46, True, "1d16cf20020d12f4d0730f24aaf65beafc480ef39708d262a18b622a2537c1bc"),
    ("standard_put", 7): ("0.3931524680574064", "0.015470691679317052", 46, True, "1d16cf20020d12f4d0730f24aaf65beafc480ef39708d262a18b622a2537c1bc"),
    ("mean_variance", 0): ("0.5648", "8.799109010141379e-17", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("mean_variance", 1): ("0.5648", "1.2567641446174236e-16", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("mean_variance", 2): ("0.5648", "1.3332900557602546e-16", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("mean_variance", 3): ("0.5648", "1.293199635958341e-16", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("mean_variance", 4): ("0.5648", "1.1513054971008574e-16", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("mean_variance", 5): ("0.5648", "1.0529559598635021e-16", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("mean_variance", 6): ("0.5648", "1.209037282200177e-16", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("mean_variance", 7): ("0.5648", "1.4723725555802219e-16", 46, True, "9bb533300e22681f1304d9185724fa5e0fc24b8e1fbd2e73ffd445a96cfdc175"),
    ("attraction", 0): ("0.11046835202266843", "0.008569350478023919", 137, True, "37ec9c8dc24f91152cf132c088093698fc70f276df299eb98a2ba711e5668249"),
    ("attraction", 1): ("0.12107895678669904", "0.0061702955921796405", 200, False, "09d249b8fc9f5381997badc9422dc90eda7e343b285aad4f45f3a16bcf92c2e1"),
    ("attraction", 2): ("0.12271951943576494", "0.0061696887844511165", 197, True, "63899add463cb624ae8bd8d1b2e6fd18f9c6af1cec47ecb8f6b0ce4aea59059c"),
    ("attraction", 3): ("0.11511680260221274", "0.005094316381342232", 134, True, "db4eaa5b75d562dbdc34c4b55406e386dc3dc31affa68cb9b40f6541ee2f2e4a"),
    ("attraction", 4): ("0.09976639365534413", "0.005795324667810426", 52, True, "6102af41e4437d072f4cb286db6b0f4dfee17939f9dd01a3865ef10c14e482df"),
    ("attraction", 5): ("0.10778532474962621", "0.004697193788000831", 104, True, "35131df6403a222d66d142917b45e1ead2f1604d4bcf8027b118f61d89ac9a8d"),
    ("attraction", 6): ("0.11548622961969489", "0.0054103516752870996", 137, True, "318bc6cc48f4d5f970f769f3463f651e751bb2705095cdb7a7255cb5022f85bb"),
    ("attraction", 7): ("0.11348557168369185", "0.0037677359566737965", 185, False, "ff4271ed5e28398d5ec821f9a030d78b41a74993e20f995b030d8494506a13a2"),
}


def _solve_config(config, seed):
    # the SearchConfig that `mfstop solve` builds from the shipped config
    cfg = load_experiment_config(str(files("mfstop").joinpath("configs", f"{config}.json")))
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    scfg = SearchConfig(paths_per_atom=cfg.paths_per_atom, threads=cfg.threads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve_value(inst.m0, inst.problem, grid, scfg, seed=seed)


@pytest.mark.parametrize("config,seed", sorted(SEARCH_POOL))
def test_search_pool(config, seed):
    res = _solve_config(config, seed)
    value, stderr, n_evaluations, converged, policy_sha256 = SEARCH_POOL[(config, seed)]
    assert (repr(res.estimate.value), repr(res.estimate.mc_stderr)) == (value, stderr)
    assert res.n_evaluations == n_evaluations
    assert res.converged is converged
    assert hashlib.sha256(policy_to_json(res.policy).encode()).hexdigest() == policy_sha256


# ---------------------------------------------------------------------------
# the obstacle solver and the risk duals built on it
# ---------------------------------------------------------------------------


def test_put_surface_aggregate():
    inst = build_instance("standard_put")
    surface = standard_os_pde(inst.problem, inst.psi, inst.pde_cfg)
    assert repr(aggregate_value(inst.m0, surface, inst.psi)) == "0.3704203443492085"


def test_mean_variance_dual():
    inst = build_instance("mean_variance")
    res = mean_variance_dual(inst.m0, inst.problem, 1.0, inst.pde_cfg)
    assert (repr(res.value), repr(res.alpha_star)) == ("0.5648000000000001", "1.7599999999999998")


def test_expected_shortfall_dual():
    inst = build_instance("shortfall")
    res = expected_shortfall_value(inst.m0, inst.problem, 0.8, inst.pde_cfg)
    assert (repr(res.value), repr(res.beta_star)) == ("1.20000047507834", "1.19999952492166")


def test_mean_variance_dual_on_gbm():
    # the one shipped dual whose obstacle steps need more than one policy
    # iteration: the binding region moves, so the warm starts matter
    inst = build_instance("mean_variance_gbm")
    res = mean_variance_dual(inst.m0, inst.problem, 0.5, inst.pde_cfg)
    assert (repr(res.value), repr(res.alpha_star)) == ("1.0611", "1.54")


EXAMPLE_SHA256 = {
    # the duals at lam in {0, 0.5, 1, 2} and alpha in {0.5, 0.75, 0.9}
    "example_meanvar.csv": "505c9ee5abfefb4cd36511717a6267513ea7a24b7d68837bd58390e8bb0af7c7",
    "example_es.csv": "1640df5b5e0b0a43eb5ef0c17c0a441dfb549d96127f78703fc303bdb463230b",
    # the slope path, without runtime_ms
    "example_meanvar_alpha_path.json": "dc2c04245ff455d60547d242ed33d9dadd8edee5d3290d7e908e153d9c30f60d",
}


@pytest.mark.parametrize("which", ["meanvar", "es"])
def test_risk_example_outputs_are_bit_identical(tmp_path, which):
    assert cli.main(["example", which, "--out", str(tmp_path), "--quiet"]) == 0
    with open(os.path.join(tmp_path, f"example_{which}.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == EXAMPLE_SHA256[f"example_{which}.csv"]
    if which == "meanvar":
        name = "example_meanvar_alpha_path.json"
        with open(os.path.join(tmp_path, name), encoding="utf-8") as fh:
            assert _artifact_digest(json.load(fh)) == EXAMPLE_SHA256[name]


# ---------------------------------------------------------------------------
# Philox-4x32-10 known answers (Salmon et al., SC'11, Random123 kat_vectors)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "counter,key,expected",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        (
            (0xFFFFFFFF,) * 4,
            (0xFFFFFFFF,) * 2,
            (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
        ),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ],
)
def test_philox_known_answers(counter, key, expected):
    lanes = [np.array([v], dtype=np.uint32) for v in counter + key]
    with np.errstate(over="ignore"):
        out = _philox_rounds(*lanes)
    assert tuple(int(w[0]) for w in out) == expected

