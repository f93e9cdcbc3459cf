"""Finite-difference obstacle solver for one-particle stopping problems.

For measure-free coefficients in d=1 the mean-field value collapses to an
aggregation of a classical obstacle problem: solve for v(t,x) on a grid,
then integrate v over the surviving atoms and the payoff over the stopped
ones. `standard_os_pde` produces the surface, `aggregate_value` does the
integration.

The scheme is implicit Euler in time with central/upwind differences in
space. Each backward step is a tridiagonal linear complementarity problem
with an M-matrix, solved exactly by policy iteration (Howard's algorithm):
every row either obeys the linear equation or sits on the obstacle, and
each iteration is one LAPACK tridiagonal solve (Reisinger & Witte, SIAM J.
Financial Math. 3, 2012). The same kernel serves both inequality
directions: mode 'sup' keeps v >= psi (maximize over stopping), mode 'inf'
keeps v <= psi (minimize, used by the shortfall reduction).

There is one backward sweep, and it carries K obstacles on the same grid
and coefficients at once; `standard_os_pde` is its K = 1 case. Each step
evaluates the coefficient rows once and stacks the K blocks into one
(K nx)-row tridiagonal system, so each policy iteration is a single
`dgtsv` call over all K blocks. A block keeps its own warm start and
tolerance; once it settles it keeps its rows, and the step ends when every
block has settled. The stacked solve is the separate solves bit for bit:
the two boundary rows of every block sit on the obstacle, so the entries
coupling neighbouring blocks are exactly 0. At each block boundary the
elimination multiplier is then 0 and partial pivoting never swaps rows
across it, so every block goes through the separate solve's arithmetic,
and a settled block solved again comes back unchanged. (Subtracting that
zero product can only turn a -0.0 boundary payoff into +0.0.)

A step is a pure function of its rows, its right-hand side and the warm
start it begins from (`psi`, its row maxima and the mode are fixed within a
sweep). The step reports whether it moved its warm start, which it does
exactly when its first solve left some block unsettled. After a step that
did not, the sweep keeps its rows and right-hand side, and does not solve a
next step whose rows are the same object and whose right-hand side is equal
bit for bit (by its bits, not by ==, which takes -0.0 for +0.0): that step
begins from the same warm start, so the output the sweep still holds is
exactly what the solve would return. After a step that moved its warm
start the sweep keeps nothing, and the next step is solved. Steps repeat
wherever stopping at once is optimal and every slice is the obstacle
itself, as for the payoffs both risk duals scan on their shipped instances.
A failing step stores nothing. The memo lives for one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Problem, check_coefficients
from .measures import EmpiricalMeasure

__all__ = [
    "PdeConfig",
    "ObstaclePDEGrid",
    "standard_os_pde",
    "stacked_os_pde",
    "stacked_initial_values",
    "aggregate_value",
    "aggregate_slice",
]


@dataclass(frozen=True)
class PdeConfig:
    x_lo: float
    x_hi: float
    nx: int = 481
    nt: int = 600

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError("need x_lo < x_hi")
        if self.nx < 5 or self.nt < 1:
            raise ValueError("grid too small")


@dataclass(frozen=True)
class ObstaclePDEGrid:
    """Solved value surface v(t_k, x_j) with its obstacle.

    `values[k]` is the slice at time t_k; the terminal slice equals psi, and
    every slice respects the obstacle for the solve's mode ('sup': v >= psi,
    'inf': v <= psi).
    """

    xs: np.ndarray  # (nx,)
    ts: np.ndarray  # (nt+1,)
    values: np.ndarray  # (nt+1, nx)
    psi_values: np.ndarray  # (nx,)
    mode: str

    @property
    def dt(self) -> float:
        return float(self.ts[1] - self.ts[0])

    def value(self, t: float, x) -> np.ndarray:
        """Bilinear interpolation of v at (t, x); x may be an array."""
        T = self.ts[-1]
        if not -1e-12 <= t <= T + 1e-12:
            raise ValueError("query time outside [0, T]")
        t = min(max(t, 0.0), T)
        kf = t / self.dt
        k0 = min(int(kf), len(self.ts) - 2)
        wt = kf - k0
        row = (1.0 - wt) * self.values[k0] + wt * self.values[k0 + 1]
        return _slice_value(self.xs, row, x)


def _slice_value(xs: np.ndarray, row: np.ndarray, x) -> np.ndarray:
    """Linear interpolation of one time slice; refuses points off the grid."""
    x = np.asarray(x, dtype=float)
    if np.any(x < xs[0] - 1e-12) or np.any(x > xs[-1] + 1e-12):
        raise ValueError("query point outside the PDE domain")
    return np.interp(x, xs, row)


def _coefficient_rows(problem: Problem, t: float, xs: np.ndarray):
    x_col = xs[:, None]
    b = problem.drift(t, x_col, None)[:, 0]
    sig = np.broadcast_to(problem.vol(t, x_col, None), x_col.shape)[:, 0]
    return b, sig**2


def _tridiag(b: np.ndarray, s2: np.ndarray, dt: float, h: float):
    """Rows of A = I - dt L for drift b and variance s2, upwind drift where
    advection dominates, and the row-sum norm |A|_inf that scales the
    step's tolerance."""
    central = s2 >= np.abs(b) * h
    bp = np.maximum(b, 0.0)
    bm = np.minimum(b, 0.0)
    diff = s2 / (2.0 * h * h)
    lower = np.where(central, -dt * (diff - b / (2 * h)), -dt * (diff - bm / h))
    upper = np.where(central, -dt * (diff + b / (2 * h)), -dt * (diff + bp / h))
    diag = np.where(
        central, 1.0 + 2.0 * dt * diff, 1.0 + 2.0 * dt * diff + dt * (bp - bm) / h
    )
    return lower, diag, upper, np.max(np.abs(lower) + diag + np.abs(upper))


def _lcp_step(
    rhs: np.ndarray,
    rows: tuple,
    psi: np.ndarray,
    psi_max: np.ndarray,
    on_obstacle: np.ndarray,
    mode: str,
    gtsv,
) -> tuple:
    """Solve one backward step of K stacked complementarity systems exactly.

    Every block (a row of `rhs`, `psi` and `on_obstacle`, shape (K, nx))
    shares the rows (lower, diag, upper, |A|_inf) of `_tridiag`.
    mode 'sup': min(Av - rhs, v - psi) = 0;  'inf': min(rhs - Av, psi - v) = 0.
    Policy iteration from the rows `on_obstacle` marks (the two boundary rows
    of each block always are, which pins them to psi), updated in place;
    `psi_max` is max|psi| per block. Each iteration solves all K blocks with
    one call of `gtsv`, LAPACK's tridiagonal solver. A block settles on a
    residual at rounding level, not on a repeated set of rows, which can
    cycle where v and psi coincide; a settled block keeps its rows, so the
    later solves return it unchanged, and the loop ends once every block
    has settled. Returns (values, moved): `moved` is False when the first
    solve settled every block, which leaves `on_obstacle` as it found it.
    """
    lower, diag, upper, norm_a = rows
    sign = 1.0 if mode == "sup" else -1.0
    project = np.maximum if mode == "sup" else np.minimum
    # rounding in Av - rhs grows with |A| |v|, and |v| <= max(|rhs|, |psi|)
    tol = 1e-13 * norm_a * (np.max(np.abs(rhs), axis=1) + psi_max)
    for iteration in range(rhs.shape[1]):
        _, _, _, v, info = gtsv(
            np.where(on_obstacle, 0.0, lower).ravel()[1:],
            np.where(on_obstacle, 1.0, diag).ravel(),
            np.where(on_obstacle, 0.0, upper).ravel()[:-1],
            np.where(on_obstacle, psi, rhs).ravel(),
        )
        if info != 0:
            raise RuntimeError(f"LAPACK tridiagonal solve failed (info={info})")
        v = v.reshape(rhs.shape)
        av = diag * v
        av[:, 1:] += lower[1:] * v[:, :-1]
        av[:, :-1] += upper[:-1] * v[:, 1:]
        equation_gap = sign * (av - rhs)[:, 1:-1]
        obstacle_gap = sign * (v - psi)[:, 1:-1]
        settled = np.max(np.abs(np.minimum(equation_gap, obstacle_gap)), axis=1) <= tol
        if settled.all():
            return project(v, psi), iteration > 0
        # near-ties leave the obstacle; flipping them on rounding noise stalls
        flips = obstacle_gap < equation_gap - tol[:, None]
        on_obstacle[~settled, 1:-1] = flips[~settled]
    raise RuntimeError(
        f"obstacle step did not settle within {rhs.shape[1]} policy iterations"
    )


def _sweep(problem: Problem, psis, cfg: PdeConfig, mode: str, keep_surfaces: bool):
    """One backward obstacle solve for K payoffs on one grid.

    Returns (xs, ts, psi_values (K, nx), values): values is (nt+1, K, nx)
    when `keep_surfaces`, else only the t = 0 slices (K, nx).
    """
    if problem.d != 1:
        raise ValueError("the obstacle solver is one-dimensional")
    if problem.uses_measure:
        raise ValueError("the aggregation route needs measure-free coefficients")
    if mode not in ("sup", "inf"):
        raise ValueError("mode must be 'sup' or 'inf'")
    if len(psis) == 0:
        raise ValueError("need at least one payoff")

    xs = np.linspace(cfg.x_lo, cfg.x_hi, cfg.nx)
    ts = np.linspace(0.0, problem.horizon, cfg.nt + 1)
    dt = ts[1] - ts[0]
    psi_values = np.empty((len(psis), cfg.nx))
    for row, psi in zip(psi_values, psis):
        value = np.asarray(psi(xs), dtype=float)
        if value.shape != xs.shape or not np.all(np.isfinite(value)):
            raise ValueError("psi must map the grid to finite values")
        row[:] = value
    psi_max = np.max(np.abs(psi_values), axis=1)

    from scipy.linalg.lapack import dgtsv

    current = psi_values
    if keep_surfaces:
        values = np.empty((cfg.nt + 1,) + psi_values.shape)
        values[-1] = current
    on_obstacle = np.ones(psi_values.shape, dtype=bool)
    coefficients = None
    last = None  # (rows, rhs) of the last step, unless it moved its warm start
    for k in range(cfg.nt - 1, -1, -1):
        t = ts[k]
        b, s2 = _coefficient_rows(problem, t, xs)
        # the rows depend on t only through the coefficients: rebuild them
        # only when those change, which time-homogeneous problems never do
        if coefficients is None or not (
            np.array_equal(b, coefficients[0]) and np.array_equal(s2, coefficients[1])
        ):
            check_coefficients(b, s2)
            coefficients = (b, s2)
            rows = _tridiag(b, s2, dt, xs[1] - xs[0])
        rhs = current
        if problem.f is not None:
            rhs = rhs + dt * problem.rate(t, xs[:, None], None)
        repeat = (
            last is not None
            and last[0] is rows
            and np.array_equal(rhs.view(np.uint64), last[1].view(np.uint64))
        )
        if not repeat:  # a repeated step keeps the output `current` already is
            current, moved = _lcp_step(rhs, rows, psi_values, psi_max, on_obstacle, mode, dgtsv)
            last = None if moved else (rows, rhs)
        if keep_surfaces:
            values[k] = current
    return xs, ts, psi_values, values if keep_surfaces else current


def stacked_os_pde(
    problem: Problem,
    psis,
    cfg: PdeConfig,
    mode: str = "sup",
) -> list:
    """`standard_os_pde` for several payoffs at once, one surface each.

    All payoffs share the grid, the coefficients and every backward step;
    each surface is bit-identical to its own `standard_os_pde` solve.
    """
    xs, ts, psi_values, values = _sweep(problem, psis, cfg, mode, keep_surfaces=True)
    return [
        ObstaclePDEGrid(xs=xs, ts=ts, values=values[:, j], psi_values=psi_values[j], mode=mode)
        for j in range(len(psis))
    ]


def stacked_initial_values(
    problem: Problem,
    psis,
    cfg: PdeConfig,
    mode: str = "sup",
) -> tuple:
    """The t = 0 slices of `stacked_os_pde`, without keeping the surfaces.

    Returns (xs, values) with values of shape (K, nx), one row per payoff.
    """
    xs, _, _, values = _sweep(problem, psis, cfg, mode, keep_surfaces=False)
    return xs, values


def standard_os_pde(
    problem: Problem,
    psi: Callable[[np.ndarray], np.ndarray],
    cfg: PdeConfig,
    mode: str = "sup",
) -> ObstaclePDEGrid:
    """Backward obstacle solve for a single particle in d=1.

    Requires measure-free coefficients (they are called with m=None). The
    terminal condition is v(T, x) = psi(x), the spatial boundary is pinned to
    psi (so the domain must be wide enough that the truncation is harmless),
    and the running reward f, when present, enters the right-hand side.
    """
    return stacked_os_pde(problem, [psi], cfg, mode)[0]


def aggregate_value(
    m: EmpiricalMeasure,
    pde: ObstaclePDEGrid,
    psi: Callable[[np.ndarray], np.ndarray],
    t: float = 0.0,
) -> float:
    """Mean-field value of m through the one-particle surface.

    Surviving atoms read v(t, x) (they still face the stopping decision),
    stopped atoms read the payoff psi(x) frozen at their position:
    sum of w * (v(t,x) i + psi(x) (1-i)). Raises when an atom falls outside
    the PDE domain.
    """
    return _aggregate(m, lambda x: pde.value(t, x), psi)


def aggregate_slice(
    m: EmpiricalMeasure,
    xs: np.ndarray,
    row: np.ndarray,
    psi: Callable[[np.ndarray], np.ndarray],
) -> float:
    """`aggregate_value` at t = 0 from the t = 0 slice alone.

    `row` is one row of `stacked_initial_values`; the result is bit-identical
    to `aggregate_value` on the full surface at t = 0.
    """
    return _aggregate(m, lambda x: _slice_value(xs, row, x), psi)


def _aggregate(m: EmpiricalMeasure, surviving_value, psi) -> float:
    if m.d != 1:
        raise ValueError("aggregation is one-dimensional")
    total = 0.0
    xs_live, ws_live = m.survivors()
    if xs_live.shape[0]:
        total += float(surviving_value(xs_live[:, 0]) @ ws_live)
    xs_stop, ws_stop = m.stopped()
    if xs_stop.shape[0]:
        total += float(np.asarray(psi(xs_stop[:, 0]), dtype=float) @ ws_stop)
    return total
