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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import Problem
from .measures import EmpiricalMeasure

__all__ = [
    "PdeConfig",
    "ObstaclePDEGrid",
    "standard_os_pde",
    "aggregate_value",
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
        x = np.asarray(x, dtype=float)
        if np.any(x < self.xs[0] - 1e-12) or np.any(x > self.xs[-1] + 1e-12):
            raise ValueError("query point outside the PDE domain")
        T = self.ts[-1]
        if not -1e-12 <= t <= T + 1e-12:
            raise ValueError("query time outside [0, T]")
        t = min(max(t, 0.0), T)
        kf = t / self.dt
        k0 = min(int(kf), len(self.ts) - 2)
        wt = kf - k0
        row = (1.0 - wt) * self.values[k0] + wt * self.values[k0 + 1]
        return np.interp(x, self.xs, row)


def _coefficient_rows(problem: Problem, t: float, xs: np.ndarray):
    x_col = xs[:, None]
    b = np.broadcast_to(np.asarray(problem.b(t, x_col, None), dtype=float), x_col.shape)[:, 0]
    sig = np.asarray(problem.sigma(t, x_col, None), dtype=float)
    if sig.ndim == 0:
        sig = np.full(len(xs), float(sig))
    else:
        sig = np.broadcast_to(sig.reshape(len(xs), -1)[:, 0], (len(xs),))
    return b, sig**2


def _tridiag(b: np.ndarray, s2: np.ndarray, dt: float, h: float):
    """Rows of A = I - dt L for drift b and variance s2; upwind drift where
    advection dominates."""
    central = s2 >= np.abs(b) * h
    bp = np.maximum(b, 0.0)
    bm = np.minimum(b, 0.0)
    diff = s2 / (2.0 * h * h)
    lower = np.where(central, -dt * (diff - b / (2 * h)), -dt * (diff - bm / h))
    upper = np.where(central, -dt * (diff + b / (2 * h)), -dt * (diff + bp / h))
    diag = np.where(
        central, 1.0 + 2.0 * dt * diff, 1.0 + 2.0 * dt * diff + dt * (bp - bm) / h
    )
    return lower, diag, upper


def _lcp_step(
    rhs: np.ndarray,
    lower: np.ndarray,
    diag: np.ndarray,
    upper: np.ndarray,
    psi: np.ndarray,
    on_obstacle: np.ndarray,
    mode: str,
    gtsv,
) -> np.ndarray:
    """Solve the complementarity system for one backward step exactly.

    mode 'sup': min(Av - rhs, v - psi) = 0;  'inf': min(rhs - Av, psi - v) = 0.
    Policy iteration from the rows `on_obstacle` marks (the two boundary rows
    always are, which pins them to psi), updated in place; `gtsv` is LAPACK's
    tridiagonal solver. It stops on a residual at rounding level, not on a
    repeated set of rows, which can cycle where v and psi coincide.
    """
    sign = 1.0 if mode == "sup" else -1.0
    # rounding in Av - rhs grows with |A| |v|, and |v| <= max(|rhs|, |psi|)
    norm_a = np.max(np.abs(lower) + diag + np.abs(upper))
    tol = 1e-13 * norm_a * (np.max(np.abs(rhs)) + np.max(np.abs(psi)))
    for _ in range(len(rhs)):
        _, _, _, v, info = gtsv(
            np.where(on_obstacle[1:], 0.0, lower[1:]),
            np.where(on_obstacle, 1.0, diag),
            np.where(on_obstacle[:-1], 0.0, upper[:-1]),
            np.where(on_obstacle, psi, rhs),
        )
        if info != 0:
            raise RuntimeError(f"LAPACK tridiagonal solve failed (info={info})")
        av = diag * v
        av[1:] += lower[1:] * v[:-1]
        av[:-1] += upper[:-1] * v[1:]
        equation_gap = sign * (av - rhs)[1:-1]
        obstacle_gap = sign * (v - psi)[1:-1]
        if np.max(np.abs(np.minimum(equation_gap, obstacle_gap))) <= tol:
            return np.maximum(v, psi) if mode == "sup" else np.minimum(v, psi)
        # near-ties leave the obstacle; flipping them on rounding noise stalls
        on_obstacle[1:-1] = obstacle_gap < equation_gap - tol
    raise RuntimeError(
        f"obstacle step did not settle within {len(rhs)} policy iterations"
    )


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
    if problem.d != 1:
        raise ValueError("the obstacle solver is one-dimensional")
    if problem.measure_dependent:
        raise ValueError("the aggregation route needs measure-free coefficients")
    if mode not in ("sup", "inf"):
        raise ValueError("mode must be 'sup' or 'inf'")

    xs = np.linspace(cfg.x_lo, cfg.x_hi, cfg.nx)
    ts = np.linspace(0.0, problem.horizon, cfg.nt + 1)
    dt = ts[1] - ts[0]
    psi_values = np.asarray(psi(xs), dtype=float)
    if psi_values.shape != xs.shape or not np.all(np.isfinite(psi_values)):
        raise ValueError("psi must map the grid to finite values")

    from scipy.linalg.lapack import dgtsv

    values = np.empty((cfg.nt + 1, cfg.nx))
    values[-1] = psi_values
    on_obstacle = np.ones(cfg.nx, dtype=bool)
    coefficients = None
    for k in range(cfg.nt - 1, -1, -1):
        t = ts[k]
        b, s2 = _coefficient_rows(problem, t, xs)
        # the rows depend on t only through the coefficients: rebuild them
        # only when those change, which time-homogeneous problems never do
        if coefficients is None or not (
            np.array_equal(b, coefficients[0]) and np.array_equal(s2, coefficients[1])
        ):
            coefficients = (b, s2)
            lower, diag, upper = _tridiag(b, s2, dt, xs[1] - xs[0])
        rhs = values[k + 1]
        if problem.f is not None:
            fv = np.asarray(problem.f(t, xs[:, None], None), dtype=float)
            rhs = rhs + dt * np.broadcast_to(fv, xs.shape)
        values[k] = _lcp_step(rhs, lower, diag, upper, psi_values, on_obstacle, mode, dgtsv)
    return ObstaclePDEGrid(xs=xs, ts=ts, values=values, psi_values=psi_values, mode=mode)


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
    if m.d != 1:
        raise ValueError("aggregation is one-dimensional")
    total = 0.0
    xs_live, ws_live = m.survivors()
    if xs_live.shape[0]:
        total += float(pde.value(t, xs_live[:, 0]) @ ws_live)
    xs_stop, ws_stop = m.stopped()
    if xs_stop.shape[0]:
        total += float(np.asarray(psi(xs_stop[:, 0]), dtype=float) @ ws_stop)
    return total
