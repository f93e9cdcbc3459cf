"""Built-in coefficient fields, benchmark instances, experiment configs.

The command line tools and the acceptance suite all refer to the instances
defined here, so the concrete numbers (start measures, strikes, domain
sizes, default parameters) live in exactly one place. Coefficients are
picked from a small named registry instead of an expression language; the
`attraction` drift is the one entry whose evaluation genuinely reads the
measure argument.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .dynamics import MAX_NOISE_DOUBLES, Problem
from .measures import EmpiricalMeasure, make_empirical
from .pde import PdeConfig
from .risk import distorted_expectation, expected_shortfall
from .util import check_count, check_threads

__all__ = [
    "coefficient_field",
    "BenchmarkInstance",
    "build_instance",
    "instance_names",
    "ExperimentConfig",
    "load_experiment_config",
]


# ---------------------------------------------------------------------------
# named coefficient fields
# ---------------------------------------------------------------------------


def coefficient_field(name: str, **params) -> tuple[Callable, bool]:
    """Return (callable with signature (t, x, m), uses_measure) by name.

    constant:   value
    affine:     intercept + slope * x  (componentwise)
    attraction: kappa * (surviving mean - x); reads the measure
    """
    if name == "constant":
        value = float(params.pop("value"))
        fn = lambda t, x, m: value
        uses_measure = False
    elif name == "affine":
        intercept = float(params.pop("intercept", 0.0))
        slope = float(params.pop("slope"))
        fn = lambda t, x, m: intercept + slope * x
        uses_measure = False
    elif name == "attraction":

        kappa = float(params.pop("kappa"))

        def fn(t, x, m):
            xs, ws = m.survivors()
            total = float(ws.sum())
            center = float(xs[:, 0] @ ws / total) if total > 0 else 0.0
            return kappa * (center - x)

        uses_measure = True
    else:
        raise ValueError(f"unknown coefficient field '{name}'")
    if params:
        raise ValueError(f"unused parameters for coefficient '{name}': {sorted(params)}")
    return fn, uses_measure


# ---------------------------------------------------------------------------
# benchmark instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkInstance:
    """One fully wired stopping problem with its reduction ingredients.

    psi / pde_cfg are None when the instance has no one-particle payoff or
    no valid single-particle reduction (the measure-dependent drift case).
    """

    name: str
    problem: Problem
    m0: EmpiricalMeasure
    psi: Optional[Callable] = None
    pde_cfg: Optional[PdeConfig] = None
    params: dict = field(default_factory=dict)


PUT_STRIKE = 1.0


def _brownian(g, horizon=1.0):
    return Problem(
        d=1,
        b=lambda t, x, m: 0.0,
        sigma=lambda t, x, m: 1.0,
        f=None,
        g=g,
        horizon=horizon,
    )


def _standard_put() -> BenchmarkInstance:
    psi = lambda x: np.maximum(PUT_STRIKE - np.asarray(x, dtype=float), 0.0)
    g = lambda p, w: float(psi(p[:, 0]) @ w)
    m0 = make_empirical(
        [(0.6, 1), (0.9, 1), (1.1, 0), (1.4, 1)], [0.3, 0.3, 0.2, 0.2]
    )
    cfg = PdeConfig(x_lo=PUT_STRIKE - 6.0, x_hi=PUT_STRIKE + 6.0, nx=481, nt=600)
    return BenchmarkInstance(
        name="standard_put",
        problem=_brownian(g),
        m0=m0,
        psi=psi,
        pde_cfg=cfg,
        params={"strike": PUT_STRIKE},
    )


def _mv_reward(lam: float) -> Callable:
    if not abs(lam) <= sys.float_info.max:
        raise ValueError(f"lam must be finite, got {lam!r}")

    def g(p, w):
        z1 = float(p[:, 0] @ w)
        z2 = float(p[:, 0] ** 2 @ w)
        return z1 + 0.5 * lam * z1 * z1 - 0.5 * lam * z2

    return g


def _mean_variance(lam: float = 1.0) -> BenchmarkInstance:
    m0 = make_empirical([(0.2, 1), (1.0, 1), (1.8, 1)], [0.5, 0.3, 0.2])
    cfg = PdeConfig(x_lo=-6.5, x_hi=8.5, nx=601, nt=240)
    return BenchmarkInstance(
        name="mean_variance",
        problem=_brownian(_mv_reward(lam)),
        m0=m0,
        pde_cfg=cfg,
        params={"lam": lam},
    )


def _mean_variance_gbm(lam: float = 0.5) -> BenchmarkInstance:
    # proportional coefficients with b0 - sigma0^2/2 < 0, so the unstopped
    # state vanishes and cutting the horizon at T approximates T = infinity
    b, _ = coefficient_field("affine", slope=-0.5)
    s, _ = coefficient_field("affine", slope=0.45)
    problem = Problem(
        d=1,
        b=b,
        sigma=s,
        f=None,
        g=_mv_reward(lam),
        horizon=6.5,
        truncated_horizon=True,
    )
    m0 = make_empirical([(0.8, 1), (1.1, 1), (1.5, 1)], [0.4, 0.35, 0.25])
    cfg = PdeConfig(x_lo=0.0, x_hi=8.0, nx=481, nt=360)
    return BenchmarkInstance(
        name="mean_variance_gbm", problem=problem, m0=m0, pde_cfg=cfg, params={"lam": lam}
    )


def _shortfall(alpha: float = 0.8) -> BenchmarkInstance:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    # the solver maximizes, so the problem reward is the negated shortfall;
    # reporting layers flip the sign back
    g = lambda p, w: -expected_shortfall(p[:, 0], w, alpha)
    m0 = make_empirical([(-0.5, 1), (0.3, 1), (1.2, 1)], [0.25, 0.35, 0.4])
    cfg = PdeConfig(x_lo=-7.5, x_hi=8.5, nx=481, nt=300)
    return BenchmarkInstance(
        name="shortfall", problem=_brownian(g), m0=m0, pde_cfg=cfg, params={"alpha": alpha}
    )


def _distortion(exponent: float = 0.7) -> BenchmarkInstance:
    if not 0.0 < exponent <= 1.0:
        raise ValueError("distortion exponent must lie in (0, 1]")
    phi = lambda u: np.power(np.asarray(u, dtype=float), exponent)
    psi = lambda x: np.maximum(np.asarray(x, dtype=float), 0.0)
    g = lambda p, w: distorted_expectation(psi(p[:, 0]), w, phi)
    b, _ = coefficient_field("affine", slope=-0.3)
    s, _ = coefficient_field("affine", slope=0.4)
    problem = Problem(d=1, b=b, sigma=s, f=None, g=g, horizon=2.0)
    m0 = make_empirical([(0.6, 1), (1.0, 1), (1.6, 1)], [0.4, 0.35, 0.25])
    return BenchmarkInstance(
        name="distortion", problem=problem, m0=m0, psi=psi, params={"exponent": exponent}
    )


def _attraction(kappa: float = 2.0, vol: float = 0.4) -> BenchmarkInstance:
    b, uses = coefficient_field("attraction", kappa=kappa)
    s, _ = coefficient_field("constant", value=vol)
    g = lambda p, w: float(p[:, 0] @ w)
    problem = Problem(d=1, b=b, sigma=s, f=None, g=g, horizon=1.0, uses_measure=uses)
    m0 = make_empirical([(-1.0, 1), (0.0, 1), (1.0, 1)], [0.3, 0.3, 0.4])
    return BenchmarkInstance(
        name="attraction", problem=problem, m0=m0, params={"kappa": kappa, "vol": vol}
    )


_INSTANCES: dict = {
    "standard_put": _standard_put,
    "mean_variance": _mean_variance,
    "mean_variance_gbm": _mean_variance_gbm,
    "shortfall": _shortfall,
    "distortion": _distortion,
    "attraction": _attraction,
}


def instance_names() -> list[str]:
    return sorted(_INSTANCES)


def build_instance(name: str, **params) -> BenchmarkInstance:
    if name not in _INSTANCES:
        raise ValueError(
            f"unknown problem '{name}'; known problems: {', '.join(instance_names())}"
        )
    try:
        return _INSTANCES[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for problem '{name}': {exc}") from None


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run; every count is explicit.

    The seed is mandatory: no entry point falls back to entropy, so a rerun
    of the same config is a byte-identical artifact (timestamps aside).
    `threads` must be 1; it is kept so that old configs keep loading.
    """

    problem: str
    seed: int
    grid_n: int = 8
    paths_per_atom: int = 200
    threads: int = 1
    split_index: Optional[int] = None
    trials: int = 20
    mollifier_n: int = 8
    z_samples: int = 256
    problem_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.problem, str) or self.problem not in _INSTANCES:
            raise ValueError(
                f"unknown problem '{self.problem}'; known problems: "
                f"{', '.join(instance_names())}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.seed >= 1 << 64:
            # the noise streams read the seed modulo 2^64
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        for name in ("grid_n", "paths_per_atom", "trials", "z_samples"):
            check_count(name, getattr(self, name), 1)
        if self.grid_n * self.paths_per_atom > MAX_NOISE_DOUBLES:
            # every particle subcommand draws at least this many doubles
            raise ValueError(
                f"grid_n x paths_per_atom is {self.grid_n * self.paths_per_atom}, more "
                f"than the particle noise cap of {MAX_NOISE_DOUBLES} doubles; lower "
                "paths_per_atom or grid_n"
            )
        check_threads(self.threads)
        check_count("mollifier_n", self.mollifier_n, 2)
        split = self.split_index
        if split is not None and (
            not isinstance(split, int) or isinstance(split, bool) or not 0 < split <= self.grid_n
        ):
            raise ValueError("split_index must be an integer in 1..grid_n")
        if not isinstance(self.problem_params, dict):
            raise ValueError("problem_params must be a table of parameter values")
        for key, value in self.problem_params.items():
            # every catalog parameter is a real number
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                # also rejects nan, inf and ints too large for a float
                or not abs(value) <= sys.float_info.max
            ):
                raise ValueError(
                    f"problem_params '{key}' must be a finite number, got {value!r}"
                )

    def as_dict(self) -> dict:
        return asdict(self)

    def instance(self) -> BenchmarkInstance:
        return build_instance(self.problem, **self.problem_params)


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config field '{sorted(unknown)[0]}'")
    if "problem" not in raw:
        raise ValueError("config is missing the required field 'problem'")
    if "seed" not in raw:
        raise ValueError("config is missing the required field 'seed'")
    return ExperimentConfig(**raw)
