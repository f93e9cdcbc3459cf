"""Euler-Maruyama simulation of stopped mean-field particle dynamics.

A `Problem` bundles the coefficients (b, sigma, f, g) and the horizon, and
is the one place that evaluates them. The coefficients may read the current
particle law; the simulation then feeds them a `LawView` of the whole
system, lagged to the left endpoint of each step (weak order-1 mean-field
scheme). The view holds the live rows without copying, sorting or merging
them; the canonical snapshot, `Particles.snapshot()`, is built only where a
law leaves the kernel.

Every particle flow in the package runs through one kernel, `flow`. At each
decision node it applies the node's stop rule, builds the view of the
post-stop law, hands both to the caller, then draws the node's noise and
takes one Euler step. Callers accumulate their own running rewards from
what the kernel hands them; only this module knows the step order, how the
noise is addressed and how frozen mass enters the law.

Survival freezing: a particle whose flag is 0 never moves again. The flag
factor multiplies both the drift and the noise, which is the discrete copy of
stopped dynamics where integrands carry the survival indicator.

Noise comes from `rng.normals(seed, particle_ids, k, d)` with k the node
index, so a simulation is a deterministic function of its seed regardless
of batching, and two simulations sharing a seed see identical increments
wherever their particle ids coincide. A `Noise` object owns that address
and draws each node's block once: runs that share one object (every
candidate of a policy search) reuse the same blocks instead of drawing them
again. A run without noise is a sigma = 0 replay: it draws nothing and
steps by the drift alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import rng as crng
from .measures import EmpiricalMeasure, from_arrays

__all__ = ["Problem", "TimeGrid", "Particles", "LawView", "Noise", "flow", "MAX_NOISE_DOUBLES"]

# cap on the doubles one Noise object may hold: 2^25 doubles, 256 MiB
MAX_NOISE_DOUBLES = 1 << 25


@dataclass(frozen=True)
class Problem:
    """Coefficient bundle for one stopping problem.

    Parameters
    ----------
    d : spatial dimension.
    b : drift, (t, x, m) -> array broadcastable to (N, d). `x` is an (N, d)
        block of positions; `m` is the law of the system (a `LawView`
        inside `flow`, an `EmpiricalMeasure` in the probes of `calculus`
        and the solver's scale probes), or None when `uses_measure` is
        False. A coefficient reads only `m.survivors()`,
        `m.surviving_mass()` and `m.d`, and must not depend on the order of
        the survivors or on how their mass is split among duplicate
        positions.
    sigma : diagonal volatility, (t, x, m) -> scalar, (N,) or (N, d), with
        `m` as for b; nonnegative componentwise. Full (N, d, d) matrices
        are not accepted.
    f : running reward density (t, x, m) -> (N,), with `m` as for b, or
        None for zero. Enters the objective as the survivor-weighted sum,
        i.e. integrated against m(dx, 1) only.
    g : terminal reward, (points (N, d), weights (N,)) -> float. Reads the
        full spatial marginal; it must not depend on atom order or on how
        mass is split among duplicate atoms.
    horizon : T > 0.
    uses_measure : set when b, sigma or f reads `m`. When False they are
        handed None on every route, and `flow` builds no per-step views.
    truncated_horizon : marks a problem built by truncating an infinite
        horizon; a run over [0, T] that stops nothing warns if the
        surviving state has not decayed.

    Every route reaches the coefficients through `drift`, `vol`, `rate`
    and `terminal`, which hand them m only when `uses_measure` is set, fix
    the shapes of their values and refuse non-finite rewards.
    """

    d: int
    b: Callable
    sigma: Callable
    f: Optional[Callable]
    g: Callable[[np.ndarray, np.ndarray], float]
    horizon: float
    uses_measure: bool = False
    truncated_horizon: bool = False

    def __post_init__(self):
        if self.d < 1 or self.d > 3:
            raise ValueError("d must be 1, 2 or 3")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    def drift(self, t: float, x: np.ndarray, m) -> np.ndarray:
        """b at the rows of x, as an (N, d) array."""
        b = np.asarray(self.b(t, x, m if self.uses_measure else None), dtype=float)
        return b if b.shape == x.shape else np.broadcast_to(b, x.shape)

    def vol(self, t: float, x: np.ndarray, m) -> np.ndarray:
        """sigma at the rows of x, broadcastable to (N, d): a scalar, (N, 1) or (N, d)."""
        sig = np.asarray(self.sigma(t, x, m if self.uses_measure else None), dtype=float)
        if sig.ndim == 1:
            return sig.reshape(-1, 1)
        if sig.ndim > 2:
            raise ValueError(
                f"sigma returned shape {sig.shape}; it must be a scalar, (N,) or "
                "(N, d) diagonal"
            )
        return sig

    def rate(self, t: float, x: np.ndarray, m) -> np.ndarray:
        """f at the rows of x, as an (N,) array; zeros when f is None."""
        if self.f is None:
            return np.zeros(x.shape[0])
        f = np.asarray(self.f(t, x, m if self.uses_measure else None), dtype=float)
        f = np.broadcast_to(f.reshape(-1) if f.ndim > 1 else f, x.shape[:1])
        if not np.all(np.isfinite(f)):
            raise ValueError("non-finite running reward")
        return f

    def terminal(self, points: np.ndarray, weights: np.ndarray) -> float:
        """g of the spatial marginal (points, weights)."""
        value = float(self.g(points, weights))
        if not math.isfinite(value):
            raise ValueError("non-finite terminal reward")
        return value


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k T / n, k = 0..n."""

    n: int
    horizon: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs at least one step")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n + 1)


class Particles:
    """One particle system: rows that move, and atoms that never move.

    Row i sits at x[i] with weight w[i] and moves while alive[i]. Frozen
    atoms are stored once, outside the rows: first the atoms given at the
    start, then the mass shed by fractional stops (the pool), with the row
    that shed each pool atom in `pool_src`. Snapshots and marginals list the
    rows, then the frozen atoms, then the pool.

    The raw arrays are checked once, when built, as a canonical snapshot
    checks them; `stop` and `advance_positions` keep the checks true.

    No array or list that a `Particles` holds is written after it is made:
    `stop` and `flow` replace `x`, `alive`, `w` and the pool lists instead.
    A copy therefore shares all of them, and a copy or a `LawView` kept
    past its node does not move with the particles.

    `stopped_any` and `guard_size0` are the state of `flow`'s
    truncated-horizon guard, so a copy taken mid-run carries it on.
    """

    def __init__(self, x, alive, w, frozen_x=None, frozen_w=None):
        self.x = x
        self.alive = alive
        self.w = w
        self.frozen_x = np.zeros((0, x.shape[1])) if frozen_x is None else frozen_x
        self.frozen_w = np.zeros(0) if frozen_w is None else frozen_w
        self.pool_x: list = []
        self.pool_w: list = []
        self.pool_src: list = []
        self.stopped_any = False
        self.guard_size0: Optional[float] = None
        if not all(np.isfinite(a).all() for a in (x, w, self.frozen_x, self.frozen_w)):
            raise ValueError("non-finite atom data")
        if (w < 0).any() or (self.frozen_w < 0).any():
            raise ValueError("negative atom weight")
        total = float(w.sum()) + float(self.frozen_w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"total mass {total!r} is not 1")

    @classmethod
    def from_measure(
        cls, m: EmpiricalMeasure, paths_per_atom: int = 1, freeze_stopped: bool = False
    ) -> "Particles":
        """paths_per_atom equal-weight rows per atom, in atom order.

        With freeze_stopped only the surviving atoms get rows and the
        stopped atoms are kept once as frozen atoms; otherwise they become
        rows that are never alive.
        """
        if freeze_stopped:
            xs, ws = m.survivors()
            alive = np.ones(ws.shape[0], dtype=bool)
            frozen = m.stopped()
        else:
            xs, ws, alive, frozen = m.xs, m.ws, m.flags == 1, (None, None)
        rows = np.repeat(np.arange(ws.shape[0]), paths_per_atom)
        return cls(xs[rows], alive[rows], ws[rows] / paths_per_atom, *frozen)

    def copy(self) -> "Particles":
        """A copy that shares every array and list, not checked again; a run
        may continue either without touching the other."""
        other = object.__new__(Particles)  # skips __init__ and its checks
        other.__dict__.update(self.__dict__)
        return other

    def marginal(self) -> tuple[np.ndarray, np.ndarray]:
        """Spatial marginal as raw (points, weights): rows, frozen, pool."""
        points = np.vstack([self.x, self.frozen_x, *self.pool_x])
        return points, np.concatenate([self.w, self.frozen_w, *self.pool_w])

    def snapshot(self) -> EmpiricalMeasure:
        """The law of the system: live rows flagged 1, everything else 0."""
        points, weights = self.marginal()
        flags = np.zeros(weights.shape[0], dtype=np.uint8)
        flags[: self.w.shape[0]] = self.alive
        return from_arrays(points, flags, weights)

    def pool_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.pool_w:
            return np.zeros((0, self.x.shape[1])), np.zeros(0), np.zeros(0, dtype=int)
        return np.vstack(self.pool_x), np.concatenate(self.pool_w), np.concatenate(self.pool_src)

    def stop(self, k: int, rule: Callable) -> None:
        """Keep the fraction rule(k, x, rows) of each surviving row's weight.

        `rows` indexes the surviving rows and `x` holds their positions. A
        fraction of 0 stops the row; a fraction strictly between 0 and 1
        moves the rest of its weight into the pool.
        """
        if not self.alive.any():
            return
        idx = np.nonzero(self.alive)[0]
        p = rule(k, self.x[idx], idx)
        full = p == 0.0
        frac = (p > 0.0) & (p < 1.0)
        if frac.any():
            sub = idx[frac]
            self.pool_x = self.pool_x + [self.x[sub]]
            self.pool_w = self.pool_w + [self.w[sub] * (1.0 - p[frac])]
            self.pool_src = self.pool_src + [sub]
            self.w = self.w.copy()
            self.w[sub] = self.w[sub] * p[frac]
        if full.any():
            self.alive = self.alive.copy()
            self.alive[idx[full]] = False
        self.stopped_any = self.stopped_any or bool(frac.any() or full.any())


class LawView:
    """The law of a particle system at one node, as coefficients read it.

    Holds the live rows' positions and weights, read-only and uncopied when
    every row is alive. `Particles` never writes its arrays, so a view kept
    past its node does not move with the particles.
    `survivors()` returns the rows in row order, unsorted and unmerged.
    """

    def __init__(self, particles: Particles):
        if particles.alive.all():
            self._x, self._w = particles.x.view(), particles.w.view()
        else:
            live = np.flatnonzero(particles.alive)
            self._x, self._w = particles.x.take(live, axis=0), particles.w.take(live)
        self._x.flags.writeable = self._w.flags.writeable = False

    @property
    def d(self) -> int:
        return self._x.shape[1]

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions and weights of the live rows, in row order."""
        return self._x, self._w

    def surviving_mass(self) -> float:
        return float(self._w.sum())


class Noise:
    """The particle noise at address (seed, ids, d) over the node indices `nodes`.

    `block(k)` is the (len(ids), d) block `rng.normals(seed, ids, k, d)`,
    drawn on first use and kept, read-only, for every later run that asks
    for node k. An integer `ids` n stands for the ids 0..n-1. A table of
    more than MAX_NOISE_DOUBLES is refused before anything is allocated.
    Safe to share between threads: a block drawn twice by racing threads is
    the same bits, and the first one stored is the one every caller gets.
    """

    def __init__(self, seed: int, ids, d: int, nodes: range):
        count = isinstance(ids, (int, np.integer))
        size = (int(ids) if count else len(ids)) * len(nodes) * d
        if size > MAX_NOISE_DOUBLES:
            raise ValueError(
                f"the particle noise needs {size} doubles, more than the cap of "
                f"{MAX_NOISE_DOUBLES} (256 MiB); lower paths_per_atom or grid_n"
            )
        self.seed = seed
        self.ids = np.arange(ids, dtype=np.uint64) if count else ids
        self.d = d
        self.nodes = nodes
        self._blocks: dict = {}

    def block(self, k: int) -> np.ndarray:
        block = self._blocks.get(k)
        if block is None:
            if k not in self.nodes:
                raise ValueError(f"node {k} lies outside the noise table's nodes {self.nodes}")
            # a contiguous copy, so that a kept block holds d columns, not 2 ceil(d/2)
            block = np.ascontiguousarray(crng.normals(self.seed, self.ids, k, self.d))
            block.flags.writeable = False
            block = self._blocks.setdefault(k, block)
        return block


def check_coefficients(*values: np.ndarray) -> None:
    """Refuse non-finite drift or volatility values, on every route that evaluates them."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError("non-finite drift or volatility")


def advance_positions(
    x: np.ndarray,
    alive: np.ndarray,
    t: float,
    dt: float,
    problem: Problem,
    m: Optional[LawView],
    noise: Optional[np.ndarray],
) -> np.ndarray:
    """One Euler update x + 1_alive (b dt + sigma sqrt(dt) xi).

    The step of `flow`. With noise None, sigma is not evaluated and the
    update is the drift alone, as in a sigma = 0 replay. Refuses non-finite
    stepped rows: a non-finite coefficient, or a position that overflows.
    """
    incr = problem.drift(t, x, m) * dt
    if noise is not None:
        incr = incr + problem.vol(t, x, m) * noise * np.sqrt(dt)
    x = x + incr * alive[:, None]
    check_coefficients(x)
    return x


def flow(
    particles: Particles,
    problem: Problem,
    t0: float,
    dt: float,
    nodes: range,
    stop: Optional[Callable] = None,
    noise: Optional[Noise] = None,
    enter: Optional[Callable[[int, Particles], None]] = None,
) -> Iterator[tuple[int, float, Optional[LawView]]]:
    """Advance `particles` over the node indices `nodes`.

    The kernel replaces the particles' arrays and never writes them, so a
    copy taken on the way keeps the state it was taken from. At node k, at
    time t0 + k dt: call `enter(k, particles)` on the state that enters the
    node, unless `enter` is None; apply `stop` through
    `Particles.stop` unless it is None or nothing survives; build the
    `LawView` of the post-stop law when `problem.uses_measure` (None
    otherwise); yield (k, t, view), where the caller reads the post-stop
    state and hands the view to `problem.rate`; then take one Euler step
    through `problem.drift` and `problem.vol` with the noise
    `noise.block(k)`, or with none when noise is None. A caller that needs
    the canonical snapshot calls `particles.snapshot()`.

    A run over the whole horizon [0, T] of a truncated-horizon problem that
    stops nothing warns when the surviving state has not decayed to 5% of
    its size at time 0. Runs over a later window are not checked: their
    decay says nothing about where the truncation cut. The size at time 0
    is kept in `particles.guard_size0`, so a run that continues a copy of
    such a run's particles to the horizon warns exactly when the whole run
    would.
    """
    reaches_horizon = t0 + nodes.stop * dt >= problem.horizon * (1 - 1e-9)
    if t0 + nodes.start * dt == 0.0:
        guard = problem.truncated_horizon and particles.alive.any() and reaches_horizon
        particles.guard_size0 = np.abs(particles.x[particles.alive]).mean() if guard else None
    for k in nodes:
        t = t0 + k * dt
        if enter is not None:
            enter(k, particles)
        if stop is not None:
            particles.stop(k, stop)
        law = LawView(particles) if problem.uses_measure else None
        yield k, t, law
        xi = None if noise is None else noise.block(k)
        particles.x = advance_positions(particles.x, particles.alive, t, dt, problem, law, xi)
    size0 = particles.guard_size0
    if reaches_horizon and size0 is not None and not particles.stopped_any:
        size = np.abs(particles.x[particles.alive]).mean()
        if size > 0.05 * size0 > 0:
            # one fixed message, so the default filter reports it once per
            # call site rather than once per run
            warnings.warn(
                "truncated infinite horizon: terminal state has not decayed to 5% "
                "of its initial size; consider a larger horizon",
                RuntimeWarning,
                stacklevel=2,
            )
