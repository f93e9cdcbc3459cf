"""Smooth approximation of functions on measure space by grid projection.

A function U of measures is replaced by U_n: the measure is pushed onto the
lattice {j/n} separately per survival flag, every lattice site receives a
small guaranteed floor of mass, the weights are perturbed by a random
vector z from a tiny simplex, and U is averaged over the perturbation.

The projection preserves the total and per-flag masses exactly, and it
preserves the stopping order pair by pair: for a common z, the projected
pair of an ordered pair is again ordered. Averaging over z therefore keeps
monotone U monotone with zero tolerance, which `monotonicity_probe` checks
by construction rather than statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .measures import EmpiricalMeasure, StopMap, apply_stop, from_arrays, make_empirical
from .util import check_count, rng_for

__all__ = [
    "MollifierParams",
    "smoothstep",
    "cutoff",
    "partition_weights",
    "sample_simplex",
    "project_measure",
    "MollifyResult",
    "mollify",
    "MollifierMonotonicityReport",
    "monotonicity_probe",
]

# Sharpness of the bump exp(-BUMP_SHARPNESS / t(1-t)) whose integral is `smoothstep`.
BUMP_SHARPNESS = 0.1


@dataclass(frozen=True)
class MollifierParams:
    """Grid resolution n (spacing 1/n, cutoff radius 3n/2) and draw count.

    Lattice indices run over |j| <= 2 n^2; the perturbation lives on the
    simplex of vectors summing to zero with |z_j| <= n_sites^-3 off the
    origin coordinate.
    """

    n: int
    z_samples: int = 256

    def __post_init__(self):
        check_count("n", self.n, 2)
        check_count("z_samples", self.z_samples, 1)

    @property
    def j_max(self) -> int:
        return 2 * self.n * self.n

    @property
    def n_sites(self) -> int:
        return 4 * self.n * self.n + 1


@lru_cache(maxsize=1)
def _smoothstep_table() -> tuple:
    # cumulative integral of the bump exp(-BUMP_SHARPNESS / t(1-t)); the
    # top half is mirrored from the bottom so s(t) + s(1-t) = 1 holds
    # exactly, which partition_weights relies on for its exact mass identity
    half = 2048
    ts = np.linspace(0.0, 1.0, 2 * half + 1)
    interior = ts[1:-1]
    rho = np.zeros_like(ts)
    rho[1:-1] = np.exp(-BUMP_SHARPNESS / (interior * (1.0 - interior)))
    cum = np.concatenate([[0.0], np.cumsum((rho[1:] + rho[:-1]) * 0.5 * (ts[1] - ts[0]))])
    s = cum / cum[-1]
    s[half + 1 :] = 1.0 - s[half - 1 :: -1]
    s[half] = 0.5
    return ts, s


def smoothstep(t):
    """C-infinity ramp from 0 at t<=0 to 1 at t>=1 with vanishing end slopes."""
    ts, s = _smoothstep_table()
    return np.interp(np.clip(t, 0.0, 1.0), ts, s)


def cutoff(x, params: MollifierParams):
    """The radial cutoff H: 1 inside |x| <= n, 0 outside |x| >= 3n/2.

    The ramp between the radii is the smoothstep squeezed into width n/2,
    so its slope is bounded by 3/n as the construction requires.
    """
    a = np.abs(np.asarray(x, dtype=float))
    n = params.n
    return 1.0 - smoothstep((a - n) / (n / 2.0))


def partition_weights(xs, ws, params: MollifierParams) -> np.ndarray:
    """Push a weighted atom set on the line onto the lattice {j/n}.

    Each atom splits its cutoff-weighted mass between the two lattice
    neighbours of its cell (complementary smoothstep fractions, so the two
    shares add to the atom's mass exactly); whatever the cutoff removes is
    credited to the origin site. Returns the full weight vector indexed by
    j + 2 n^2; the total equals the input mass up to float summation.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ws = np.asarray(ws, dtype=float).reshape(-1)
    if xs.shape != ws.shape:
        raise ValueError("positions and weights must align")
    n, off = params.n, params.j_max
    out = np.zeros(params.n_sites)
    h = np.asarray(cutoff(xs, params))
    carried = ws * h
    inside = carried > 0.0
    if np.any(inside):
        xi = xs[inside]
        j0 = np.floor(n * xi).astype(int)
        theta = n * xi - j0
        s = smoothstep(theta)
        np.add.at(out, j0 + off, carried[inside] * (1.0 - s))
        np.add.at(out, j0 + 1 + off, carried[inside] * s)
    out[off] += float(ws @ (1.0 - h))
    return out


def sample_simplex(params: MollifierParams, rng: np.random.Generator) -> np.ndarray:
    """One perturbation vector: smooth bump draws off the origin coordinate,
    balanced at the origin so the total is exactly zero."""
    c = params.n_sites ** -3.0
    free = params.n_sites - 1
    draws = np.empty(free)
    filled = 0
    while filled < free:
        u = rng.uniform(-1.0, 1.0, size=2 * (free - filled))
        accept = rng.uniform(0.0, 1.0, size=u.size) * math.exp(-1.0) < np.exp(
            -1.0 / (1.0 - u * u)
        )
        got = u[accept]
        take = min(got.size, free - filled)
        draws[filled : filled + take] = got[:take]
        filled += take
    z = np.empty(params.n_sites)
    z[: params.j_max] = c * draws[: params.j_max]
    z[params.j_max + 1 :] = c * draws[params.j_max :]
    z[params.j_max] = -(z[: params.j_max].sum() + z[params.j_max + 1 :].sum())
    return z


def _sites(params: MollifierParams) -> np.ndarray:
    js = np.arange(-params.j_max, params.j_max + 1)
    return (js / params.n)[:, None]


def project_measure(
    m: EmpiricalMeasure, z: np.ndarray, params: MollifierParams
) -> EmpiricalMeasure:
    """Lattice-supported surrogate of m with per-flag masses preserved.

    Per flag class, the lattice weights are the pushed partition weights
    plus a strictly positive floor (mass / n_sites^2) perturbed by z, all
    rescaled so the class total is unchanged; the z components are small
    enough that no weight can go negative.
    """
    if m.d != 1:
        raise ValueError("the lattice construction is one-dimensional")
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != params.n_sites:
        raise ValueError("perturbation length must equal the site count")
    nn = float(params.n_sites)
    sites = _sites(params)
    xs_parts, flag_parts, w_parts = [], [], []
    for flag, (xs, ws) in ((0, m.stopped()), (1, m.survivors())):
        mass = float(ws.sum())
        if mass <= 0.0:
            continue
        psi = partition_weights(xs[:, 0], ws, params)
        hat = (nn / (nn + 1.0)) * (psi + mass * (nn ** -2.0 + z))
        xs_parts.append(sites)
        flag_parts.append(np.full(params.n_sites, flag, dtype=np.uint8))
        w_parts.append(hat)
    return from_arrays(
        np.vstack(xs_parts), np.concatenate(flag_parts), np.concatenate(w_parts)
    )


@dataclass(frozen=True)
class MollifyResult:
    value: float
    stderr: float
    n_samples: int


def mollify(
    U: Callable[[EmpiricalMeasure], float],
    m: EmpiricalMeasure,
    params: MollifierParams,
    seed: int,
) -> MollifyResult:
    """Monte-Carlo average of U over projected perturbations of m.

    Draw k uses its own derived generator, so two calls with equal seeds see
    identical perturbations regardless of the measure; that is what makes
    monotonicity comparisons exact rather than statistical.
    """

    def one(k: int) -> float:
        z = sample_simplex(params, rng_for(seed, "mollify", k))
        val = float(U(project_measure(m, z, params)))
        if not math.isfinite(val):
            raise ValueError("U returned a non-finite value on a projected measure")
        return val

    vals = np.array([one(k) for k in range(params.z_samples)])
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return MollifyResult(value=float(vals.mean()), stderr=stderr, n_samples=len(vals))


@dataclass(frozen=True)
class MollifierMonotonicityReport:
    n_trials: int
    n_violations: int
    worst_gap: float


def monotonicity_probe(
    U: Callable[[EmpiricalMeasure], float],
    params: MollifierParams,
    trials: int,
    seed: int,
) -> MollifierMonotonicityReport:
    """Check that mollification keeps a stopping-monotone U monotone.

    Random base measures are paired with randomly stopped versions of
    themselves and both are mollified with common draws; for monotone U
    every pair must satisfy the inequality up to 1e-12 rounding, since the
    projected pairs are ordered for each individual draw.
    """
    rng = rng_for(seed, "mollifier-mono")
    violations = 0
    worst = 0.0
    for trial in range(trials):
        k = int(rng.integers(2, 7))
        pts = [(float(x), int(flag)) for x, flag in
               zip(rng.uniform(-3.0, 3.0, k), rng.integers(0, 2, k))]
        weights = rng.random(k) + 0.05
        base = make_empirical(pts, weights)
        smaller = apply_stop(base, StopMap.random(rng))
        pair_seed = int(rng.integers(0, 2**31))
        hi = mollify(U, base, params, seed=pair_seed)
        lo = mollify(U, smaller, params, seed=pair_seed)
        gap = lo.value - hi.value
        if gap > 1e-12:
            violations += 1
            worst = max(worst, gap)
    return MollifierMonotonicityReport(
        n_trials=trials, n_violations=violations, worst_gap=worst
    )
