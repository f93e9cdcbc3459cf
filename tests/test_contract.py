"""The coefficient contract: every route evaluates b, sigma, f and g through `Problem`."""

from __future__ import annotations

import numpy as np
import pytest

from mfstop.calculus import generator, make_unstopped_functional, running_reward
from mfstop.dynamics import LawView, Problem, TimeGrid
from mfstop.measures import EmpiricalMeasure, make_empirical
from mfstop.pde import PdeConfig, standard_os_pde
from mfstop.policy import Policy, evaluate_policy
from mfstop.risk import expected_shortfall_value
from mfstop.solver import SearchConfig, backward_enumeration, solve_value, verify_dpp

M0 = make_empirical([(-0.4, 1), (0.3, 1), (0.9, 0)], [0.3, 0.4, 0.3])
GRID = TimeGrid(2, 1.0)
PDE = PdeConfig(x_lo=-3.0, x_hi=3.0, nx=25, nt=4)


def _mean_g(points, weights):
    return float(weights @ points[:, 0])


def _deterministic(f=lambda t, x, m: np.cos(x[:, 0]), g=_mean_g) -> Problem:
    """sigma = 0, so that every route, the enumeration included, accepts it."""
    return Problem(
        d=1, b=lambda t, x, m: 0.2 - x, sigma=lambda t, x, m: 0.0, f=f, g=g, horizon=1.0
    )


ROUTES = {
    "evaluate_policy": lambda p: evaluate_policy(M0, p, GRID, Policy.never_stop(GRID.n), 4, 0),
    "backward_enumeration": lambda p: backward_enumeration(M0, p, GRID).value,
    "standard_os_pde": lambda p: standard_os_pde(p, lambda x: np.maximum(x, 0.0), PDE),
    "simulated_u": lambda p: make_unstopped_functional(p, n_steps=4, paths_per_atom=3)(0.0, M0),
    "running_reward": lambda p: running_reward(p, 0.0, M0),
}


@pytest.mark.parametrize(
    "route,coefficient",
    [(route, "f") for route in ROUTES]
    # the obstacle solve reads psi and the running reward never reads g
    + [(route, "g") for route in ("evaluate_policy", "backward_enumeration", "simulated_u")],
)
def test_a_non_finite_reward_raises_on_every_route(route, coefficient):
    if coefficient == "f":
        problem = _deterministic(f=lambda t, x, m: np.where(x[:, 0] > 0.0, np.nan, 1.0))
        message = "non-finite running reward"
    else:
        problem = _deterministic(g=lambda points, weights: np.nan)
        message = "non-finite terminal reward"
    with pytest.raises(ValueError, match=message):
        ROUTES[route](problem)


COEFFICIENT_ROUTES = {
    "evaluate_policy": lambda p: evaluate_policy(M0, p, GRID, Policy.never_stop(GRID.n), 4, 0),
    "standard_os_pde": lambda p: standard_os_pde(p, lambda x: np.maximum(x, 0.0), PDE),
    "generator": lambda p: generator(lambda t, m: float(m.xs[:, 0] @ m.ws) + t, 0.0, M0, p),
}


@pytest.mark.parametrize("route", sorted(COEFFICIENT_ROUTES))
@pytest.mark.parametrize("coefficient", ["b", "sigma"])
def test_a_non_finite_drift_or_volatility_raises_on_every_route(route, coefficient):
    # non-finite at the positive positions only, which every route visits
    bad = lambda t, x, m: np.where(x > 0.0, np.nan, 0.5)
    fine = lambda t, x, m: 0.5
    problem = Problem(
        d=1,
        b=bad if coefficient == "b" else fine,
        sigma=bad if coefficient == "sigma" else fine,
        f=None,
        g=_mean_g,
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="non-finite drift or volatility"):
        COEFFICIENT_ROUTES[route](problem)


def test_vol_names_the_accepted_forms_of_sigma():
    x = np.zeros((3, 1))
    problem = Problem(
        d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m: np.ones((x.shape[0], 1, 1)),
        f=None, g=_mean_g, horizon=1.0,
    )
    with pytest.raises(ValueError, match=r"scalar, \(N,\) or \(N, d\) diagonal"):
        problem.vol(0.0, x, None)
    with pytest.raises(ValueError, match=r"scalar, \(N,\) or \(N, d\) diagonal"):
        evaluate_policy(M0, problem, GRID, Policy.never_stop(GRID.n), 4, 0)
    # the accepted forms, each broadcastable to (N, d)
    for sig, shape in ((0.5, ()), (np.full(3, 0.5), (3, 1)), (np.full((3, 1), 0.5), (3, 1))):
        accepted = Problem(
            d=1, b=lambda t, x, m: 0.0, sigma=lambda t, x, m, s=sig: s,
            f=None, g=_mean_g, horizon=1.0,
        )
        assert accepted.vol(0.0, x, None).shape == shape


def _recording(uses_measure: bool):
    """A sigma = 0 problem whose b, sigma and f record the m they are handed."""
    seen = []

    def record(value):
        def coefficient(t, x, m):
            seen.append(m)
            return value(x)

        return coefficient

    problem = Problem(
        d=1,
        b=record(lambda x: 0.2 - x),
        sigma=record(lambda x: 0.0),
        f=record(lambda x: np.cos(x[:, 0])),
        g=_mean_g,
        horizon=1.0,
        uses_measure=uses_measure,
    )
    return problem, seen


def test_measure_free_coefficients_are_never_handed_a_measure():
    problem, seen = _recording(uses_measure=False)
    u = make_unstopped_functional(problem, n_steps=4, paths_per_atom=3)
    calls = {
        "solve_value": lambda: solve_value(M0, problem, GRID, SearchConfig(paths_per_atom=4)),
        "verify_dpp": lambda: verify_dpp(M0, problem, GRID, 1, mode="exact"),
        "standard_os_pde": lambda: standard_os_pde(problem, lambda x: np.maximum(x, 0.0), PDE),
        "expected_shortfall_value": lambda: expected_shortfall_value(
            M0, problem, 0.5, PDE, xtol=0.05
        ),
        "generator": lambda: generator(u, 0.0, M0, problem) + running_reward(problem, 0.0, M0),
    }
    for route, call in calls.items():
        seen.clear()
        call()
        assert seen, route
        assert all(m is None for m in seen), route


def test_measure_reading_coefficients_see_a_view_in_flow_and_a_measure_in_the_probes():
    problem, seen = _recording(uses_measure=True)
    evaluate_policy(M0, problem, GRID, Policy.never_stop(GRID.n), 4, 0)
    assert seen and all(isinstance(m, LawView) for m in seen)

    seen.clear()
    u = lambda t, m: float(m.xs[:, 0] @ m.ws) + t
    generator(u, 0.0, M0, problem)
    running_reward(problem, 0.0, M0)
    assert seen and all(isinstance(m, EmpiricalMeasure) for m in seen)
