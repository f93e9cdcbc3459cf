"""Finite-difference calculus for functionals of weighted atom measures.

The linear derivative of u at a point y is probed by the weight-bump
quotient [u((1-eps) m + eps delta_y) - u(m)] / eps. As eps -> 0 this tends
to delta_m u(t,m,y) - int delta_m u dm, i.e. the quotient is
self-centering: it converges to the representative of the derivative whose
m-integral vanishes, which is the gauge fixed throughout this module (the
derivative is defined only up to an additive constant). One Richardson
halving (2 q(eps/2) - q(eps)) removes the first-order error, so quotients
are exact on functionals linear or quadratic in the measure.

The bump probes come in two plans, each computing only what its caller reads:

* ``stop_sensitivity``, the stop-sensitivity probe: d_I at a surviving
  position x, the derivative at (x, 1) minus the derivative at (x, 0). The
  centering constant cancels, so d_I is gauge-invariant. Negative values
  mean stopping mass at x raises u to first order.
* ``estimate_derivatives``, the flow probe: spatial central differences of
  the survivor-side derivative and the time difference of u, from which
  ``generator`` builds the measure flow operator: the time derivative of u
  plus the survivor-weighted drift and diffusion terms acting on
  delta_m u along x.
* ``obstacle_residual``, which checks the stationarity structure of a
  candidate value function: at an optimum, no admissible stop of m may make
  the flow term -(generator + running reward) negative, and the worst stop
  sensitivity over the survivor support must vanish; the residual is the
  minimum of the two.

``make_unstopped_functional`` turns a problem into a simulated functional
u(t, m) = terminal reward of the never-stop flow plus the accumulated
running reward. Its noise is keyed by where each path starts rather than
by atom identity, so a measure and its probe bumps see identical draws and
finite differences stay usable despite Monte Carlo noise. Each key's noise
is drawn once per functional, so the 21 evaluations of one `generator`
call on three survivors draw each of their few keys once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dynamics
from .dynamics import LawView, Noise, Particles, Problem, check_coefficients, flow
from .measures import EmpiricalMeasure, StopMap, apply_stop, from_arrays
from .util import check_count, rng_for

__all__ = [
    "linear_derivative",
    "DerivativeEstimate",
    "estimate_derivatives",
    "stop_sensitivity",
    "running_reward",
    "generator",
    "make_unstopped_functional",
    "ResidualConfig",
    "obstacle_residual",
]


# Bump weight of `estimate_derivatives`; its quotients are always
# Richardson-extrapolated over BUMP_EPS and BUMP_EPS/2.
BUMP_EPS = 1e-2
# Default spatial probe scale h: the probes sit at x +- h (1 + |x|).
BUMP_H = 1e-3
# Time probe step, as a fraction of the horizon.
BUMP_DT_FRAC = 1e-3
# Width of the start buckets that key the simulated functional's noise without anchors.
NOISE_BUCKET = 0.25
# `obstacle_residual`'s membership tolerance and its position jitter (see ResidualConfig).
MEMBERSHIP_TOL = 1e-3
JITTER = 1e-3
JITTER_SAMPLES = 4


def _with_atom(m: EmpiricalMeasure, x, flag: int, eps: float) -> EmpiricalMeasure:
    x_row = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    if x_row.shape[1] != m.d:
        raise ValueError("bump point dimension does not match the measure")
    xs = np.vstack([m.xs, x_row])
    flags = np.concatenate([m.flags, np.array([flag], dtype=np.uint8)])
    ws = np.concatenate([(1.0 - eps) * m.ws, np.array([eps])])
    return from_arrays(xs, flags, ws)


def _base_value(u, t, m) -> float:
    base = float(u(t, m))
    if not math.isfinite(base):
        raise ValueError("functional is non-finite at the base measure")
    return base


def _quotient(u, t, m, x, flag, eps, base, richardson=True) -> float:
    """Bump quotient at (x, flag), Richardson-extrapolated over eps and eps/2."""

    def single(e):
        val = float(u(t, _with_atom(m, x, flag, e)))
        if not math.isfinite(val):
            raise ValueError("functional returned a non-finite value at a bump probe")
        return (val - base) / e

    q = single(eps)
    return 2.0 * single(eps / 2.0) - q if richardson else q


def linear_derivative(
    u: Callable[[float, EmpiricalMeasure], float],
    t: float,
    m: EmpiricalMeasure,
    y: tuple,
    eps: float = BUMP_EPS,
    richardson: bool = True,
) -> float:
    """Centered linear derivative of u at (t, m) in the point y = (x, flag).

    Returns the bump quotient, Richardson-extrapolated over eps and eps/2
    unless disabled. Exact for functionals linear in m at any eps; first
    order in eps otherwise (second order after extrapolation).
    """
    x, flag = y
    flag = int(flag)
    if flag not in (0, 1):
        raise ValueError("flag must be 0 or 1")
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 0.5]")
    return _quotient(u, t, m, x, flag, eps, _base_value(u, t, m), richardson)


@dataclass(frozen=True)
class DerivativeEstimate:
    """The flow probe at one (t, m): dx_delta and dxx_delta per surviving
    atom, in canonical atom order, and dt, the time difference of u."""

    dx_delta: np.ndarray
    dxx_delta: np.ndarray
    dt: float


def estimate_derivatives(
    u: Callable[[float, EmpiricalMeasure], float],
    t: float,
    m: EmpiricalMeasure,
    h: float = BUMP_H,
    *,
    horizon: float,
) -> DerivativeEstimate:
    """The flow probe of u at (t, m), the probes `generator` reads; d = 1 only.

    Every bump has weight `BUMP_EPS` and is Richardson-extrapolated. The
    survivor-side quotients sit at x and x +- h (1+|x|), with h > 0; the
    time probe is central with step `BUMP_DT_FRAC` * horizon, one-sided at
    the ends of [0, horizon]. That is
    1 + 6 per survivor + 2 evaluations of u: 21 on three survivors.
    """
    if m.d != 1:
        raise ValueError("derivative probes are one-dimensional")
    if not h > 0.0:
        raise ValueError("the spatial probe scale h must be positive")
    base = _base_value(u, t, m)

    xs = m.xs[m.flags == 1, 0]
    hx = h * (1.0 + np.abs(xs))
    quot = lambda ys: np.array([_quotient(u, t, m, y, 1, BUMP_EPS, base) for y in ys])
    q_mid, q_plus, q_minus = quot(xs), quot(xs + hx), quot(xs - hx)
    dx = (q_plus - q_minus) / (2.0 * hx)
    dxx = (q_plus - 2.0 * q_mid + q_minus) / (hx * hx)

    step = BUMP_DT_FRAC * horizon
    lo = max(t - step, 0.0)
    hi = min(t + step, horizon)
    if hi <= lo:
        raise ValueError("time probe collapsed; horizon too small for BUMP_DT_FRAC")
    dt_val = (float(u(hi, m)) - float(u(lo, m))) / (hi - lo)

    return DerivativeEstimate(dx_delta=dx, dxx_delta=dxx, dt=dt_val)


def stop_sensitivity(
    u: Callable[[float, EmpiricalMeasure], float], t: float, m: EmpiricalMeasure
) -> np.ndarray:
    """The stop-sensitivity probe: d_I at each surviving atom of m, in
    canonical atom order, from the Richardson-extrapolated bump quotients at
    (x, 1) and (x, 0) of weight `BUMP_EPS`: 1 + 4 per survivor evaluations of u.
    """
    base = _base_value(u, t, m)
    quot = lambda x, flag: _quotient(u, t, m, x, flag, BUMP_EPS, base)
    return np.array([quot(x, 1) - quot(x, 0) for x in m.xs[m.flags == 1]])


def running_reward(problem: Problem, t: float, m: EmpiricalMeasure) -> float:
    """The instantaneous mean-field reward: f integrated over survivors."""
    xs, ws = m.survivors()
    return float(problem.rate(t, xs, m) @ ws) if xs.shape[0] else 0.0


def generator(
    u: Callable[[float, EmpiricalMeasure], float],
    t: float,
    m: EmpiricalMeasure,
    problem: Problem,
    h: float = BUMP_H,
) -> float:
    """Measure flow operator of the problem applied to u at (t, m).

    Time derivative of u plus the survivor-weighted sum of
    b d_x delta_m u + (1/2) sigma^2 d_xx delta_m u at the atoms, from the
    probes of `estimate_derivatives` with spatial scale h. The additive
    gauge of delta_m drops out because only x-differences enter.
    """
    if problem.d != 1 or m.d != 1:
        raise ValueError("the generator probe is one-dimensional")
    est = estimate_derivatives(u, t, m, h, horizon=problem.horizon)
    xs, ws = m.survivors()
    if xs.shape[0] == 0:
        return est.dt
    b_vals = problem.drift(t, xs, m)[:, 0]
    sig = np.broadcast_to(problem.vol(t, xs, m), xs.shape)[:, 0]
    check_coefficients(b_vals, sig)
    integrand = b_vals * est.dx_delta + 0.5 * sig * sig * est.dxx_delta
    return est.dt + float(ws @ integrand)


def make_unstopped_functional(
    problem: Problem,
    n_steps: int = 64,
    paths_per_atom: int = 2000,
    seed: int = 0,
    anchors: Optional[np.ndarray] = None,
) -> Callable[[float, EmpiricalMeasure], float]:
    """Simulated value of the never-stop flow from (t, m).

    Returns u with u(t, m) = terminal reward g of the flow at the horizon
    plus the time integral of the running reward (trapezoid over the Euler
    steps). Stopped atoms stay frozen; every surviving atom is expanded
    into paths_per_atom equal-weight paths.

    Noise keys are (key of the start, path index), so reweighted atoms and
    probe positions with one key reuse the same draws; this common
    randomness is what keeps finite differences of u stable. With
    `anchors`, a 1-d array of positions (the atoms of the measure whose
    derivatives are probed), the key of a start is the index of its
    nearest anchor. With anchors None it is floor(start / NOISE_BUCKET),
    with the bucket width fixed at 0.25, and a probe that crosses a bucket
    edge draws independent noise. Distinct atoms sharing a key share draws
    too, which correlates their paths but does not bias per-path laws for
    measure-free coefficients.

    The noise of each key is drawn once, as a `dynamics.Noise` table over
    every node on the key's first use, and kept by u, shared by every later
    call of u. A call stacks its atoms' tables in row order once, into a
    copy it holds while it runs, beside the kept tables. The draws are a
    pure function of their address, so the values equal those of a fresh
    functional per call. A call whose own rows need more than
    `dynamics.MAX_NOISE_DOUBLES` doubles is refused before it draws, and
    neither its copy nor the kept noise ever holds more: when a call's new
    keys would overflow the kept noise, it is emptied first.
    """
    if problem.d != 1:
        raise ValueError("the simulated functional is one-dimensional")
    check_count("paths_per_atom", paths_per_atom, 1)
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if paths_per_atom >= (1 << 20):
        raise ValueError("paths_per_atom exceeds the noise address space")

    p = paths_per_atom
    nodes = range(n_steps)
    if anchors is not None:
        anchors = np.asarray(anchors, dtype=float)
    paths = np.arange(p, dtype=np.uint64)
    # noise key -> the noise of that key's p paths over every node
    noises: dict = {}

    def u(t: float, m: EmpiricalMeasure) -> float:
        if m.d != 1:
            raise ValueError("measure dimension mismatch")
        horizon = problem.horizon
        if not -1e-12 <= t <= horizon + 1e-12:
            raise ValueError("time outside [0, horizon]")
        t = min(max(t, 0.0), horizon)

        xs_live, _ = m.survivors()
        n_live = xs_live.shape[0]
        if n_live == 0 or t >= horizon:
            # nothing moves and survivors are absent or out of time, so the
            # running-reward integral vanishes
            return problem.terminal(m.xs, m.ws)

        # the call's own stacked rows must fit the cap, as one table would
        dynamics.check_noise_size(n_live * p * n_steps * problem.d)
        if anchors is None:
            keys = np.floor(xs_live[:, 0] / NOISE_BUCKET).astype(np.int64) + (1 << 31)
        else:
            keys = np.abs(xs_live[:, 0, None] - anchors).argmin(axis=1)
        keys = keys.astype(np.uint64).tolist()
        new = set(keys) - noises.keys()
        if (len(noises) + len(new)) * p * n_steps * problem.d > dynamics.MAX_NOISE_DOUBLES:
            # the draws are a pure function of their address: refilling moves no bit
            noises.clear()
            new = set(keys)
        for key in new:
            noises[key] = Noise(seed, (np.uint64(key) << np.uint64(20)) | paths, problem.d, nodes)
        noise = np.concatenate([noises[key].table for key in keys], axis=1)

        particles = Particles.from_measure(m, p, freeze_stopped=True)
        dt = (horizon - t) / n_steps

        rates = []
        for _, tk, law in flow(particles, problem, t, dt, nodes, noise=noise):
            if problem.f is not None:
                rates.append(problem.rate(tk, particles.x, law) @ particles.w)
        value = problem.terminal(*particles.marginal())

        if problem.f is not None:
            law = LawView(particles) if problem.uses_measure else None
            rates.append(problem.rate(horizon, particles.x, law) @ particles.w)
            value += float(np.trapezoid(rates, dx=dt))
        return value

    return u


@dataclass(frozen=True)
class ResidualConfig:
    """Sampling plan for the stationarity residual.

    n_stop_maps random stop maps plus the two extremes probe the set of
    admissible stops of m whose value stays within `MEMBERSHIP_TOL` of
    u(t, m); `JITTER_SAMPLES` position-jittered copies of m approximate the
    lower envelope of the stop sensitivity, each position moved by
    `JITTER` (1 + |x|) times a standard normal. seed drives both draws, and
    h is the spatial probe scale handed to `generator`. A non-integer
    n_stop_maps and an h that is not positive and finite are refused here,
    before anything is simulated.
    """

    n_stop_maps: int = 64
    seed: int = 0
    h: float = BUMP_H

    def __post_init__(self):
        check_count("n_stop_maps", self.n_stop_maps, 0)
        h = self.h
        if not isinstance(h, (int, float)) or isinstance(h, bool) or not 0 < h < math.inf:
            raise ValueError(f"h must be a positive finite number, got {h!r}")


def _memo(u: Callable[[float, EmpiricalMeasure], float]) -> Callable:
    """u keeping its value at each exact (t, xs, flags, ws) it was called on."""
    values: dict = {}

    def memo(t: float, m: EmpiricalMeasure) -> float:
        key = (np.float64(t).tobytes(), m.xs.tobytes(), m.flags.tobytes(), m.ws.tobytes())
        if key not in values:
            values[key] = u(t, m)
        return values[key]

    return memo


def obstacle_residual(
    u: Callable[[float, EmpiricalMeasure], float],
    t: float,
    m: EmpiricalMeasure,
    problem: Problem,
    cfg: ResidualConfig = ResidualConfig(),
) -> dict:
    """Stationarity report for a candidate value function at (t, m).

    interior_term: the smallest -(generator(u) + running reward) over the
    sampled stops m' of m that keep u(t, m') within `MEMBERSHIP_TOL` of
    u(t, m) (m itself is always a member, through the identity stop map).
    d_I_min: the smallest stop sensitivity over the survivor support, also
    minimized over position-jittered copies of m as a stand-in for the
    lower envelope (the sensitivity need not be continuous in m, so the
    jitter is a heuristic without an error bound).
    residual: min(interior_term, d_I_min). For a value function both terms
    should vanish to within probe tolerance.

    When m has no survivors, d_I is undefined; the report says so and the
    residual is the interior term alone.

    The report evaluates u once per exact (t, measure): a candidate's
    membership value is its generator's base, and m's survivor quotients
    serve d_I_min too. u must be a pure function of (t, m), as the
    simulated functional is.
    """
    u = _memo(u)
    base = _base_value(u, t, m)
    rng = rng_for(cfg.seed, "residual")

    maps = [StopMap.constant(1.0), StopMap.constant(0.0)]
    maps += [StopMap.random(rng) for _ in range(cfg.n_stop_maps)]

    unique: dict = {}  # the first stop of m with each key, its weights rounded
    for sm in maps:
        m2 = apply_stop(m, sm)
        unique.setdefault(m2.xs.tobytes() + m2.flags.tobytes() + np.round(m2.ws, 12).tobytes(), m2)
    candidates = list(unique.values())

    kept = [m2 for m2 in candidates if float(u(t, m2)) >= base - MEMBERSHIP_TOL]

    interior_term = float(min(
        -(generator(u, t, m2, problem, cfg.h) + running_reward(problem, t, m2))
        for m2 in kept
    ))

    d_i_min = None
    if (m.flags == 1).any():
        probes = [m]
        for _ in range(JITTER_SAMPLES):
            shift = JITTER * (1.0 + np.abs(m.xs)) * rng.standard_normal(m.xs.shape)
            probes.append(from_arrays(m.xs + shift, m.flags, m.ws))
        d_i_min = min(float(stop_sensitivity(u, t, meas).min()) for meas in probes)

    return {
        "value": base,
        "interior_term": interior_term,
        "d_I_min": d_i_min,
        "residual": interior_term if d_i_min is None else min(interior_term, d_i_min),
        "n_candidates": len(candidates),
        "n_kept": len(kept),
        "empty_survivors": d_i_min is None,
    }
