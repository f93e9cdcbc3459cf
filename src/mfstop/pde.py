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
each iteration is one solve of the masked tridiagonal system, whose rows on
the obstacle are identity rows (Reisinger & Witte, SIAM J. Financial Math.
3, 2012). The same kernel serves both inequality directions: mode 'sup'
keeps v >= psi (maximize over stopping), mode 'inf' keeps v <= psi
(minimize, used by the shortfall reduction).

The masked system depends only on the step's rows and the obstacle set, so
it is factored once per obstacle set, not once per solve: LAPACK `gttrf`
makes its LU factors and every iteration solves with `gttrs`, which does the
arithmetic of a `gtsv` solve (same multipliers, same pivots, same order), so
the values are those of a `gtsv` solve bit for bit. Both routines come from
the OpenBLAS that numpy's wheel bundles, bound through ctypes on the first
sweep of a process; a numpy built against another BLAS has none, and then
`scipy.linalg.lapack` serves them, with the same bits. An iteration that
changes the obstacle set factors again, and no change follows the last
solve of a step, so the factors a step returns always match the warm start
it leaves behind, whether it moved that warm start or not. The sweep keeps
them with their rows, and a step whose rows are the same object starts
from those factors: a put over 600 steps factors twice for 601 solves.

There is one backward sweep, and it carries K obstacles on the same grid
and coefficients at once; `standard_os_pde` is its K = 1 case. The rows of
every step come from `step_rows`, which evaluates the coefficients once per
step and builds the rows again only where they change, so a
time-homogeneous problem holds one rows object for all its steps. That set
is a sweep's only description of the problem and the grid, and several
sweeps may share one, as the risk duals' scans do; the rows are read-only.
Each step stacks the K blocks into one (K nx)-row tridiagonal system, so
each policy iteration is a single triangular solve over all K blocks. A
block keeps its own warm start and tolerance; once it settles it keeps its
rows, and the step ends when every block has settled. The stacked solve is
the separate solves bit for bit: the two boundary rows of every block sit
on the obstacle, so the entries coupling neighbouring blocks are exactly 0.
At each block boundary the elimination multiplier is then 0 and partial
pivoting never swaps rows across it, so every block goes through the
separate solve's arithmetic, and a settled block solved again comes back
unchanged. (Subtracting that zero product can only turn a -0.0 boundary
payoff into +0.0.)

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
A repeated step keeps its own right-hand side; without a running reward
that is the next step's right-hand side itself, so a run of repeats costs
an identity check per step, not a comparison. A failing step stores
nothing. The memo lives for one sweep; the step rows it compares by
identity may outlive it.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Problem, check_coefficients
from .measures import EmpiricalMeasure
from .util import check_count

__all__ = [
    "PdeConfig",
    "ObstaclePDEGrid",
    "standard_os_pde",
    "stacked_os_pde",
    "stacked_initial_values",
    "StepRows",
    "step_rows",
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
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi) and self.x_lo < self.x_hi):
            raise ValueError(f"need finite x_lo < x_hi, got {self.x_lo!r} and {self.x_hi!r}")
        check_count("nx", self.nx, 5)
        check_count("nt", self.nt, 1)


@dataclass(frozen=True)
class ObstaclePDEGrid:
    """Solved value surface v(t_k, x_j).

    `values[k]` is the slice at time t_k; the terminal slice `values[-1]` is
    the obstacle psi on the grid, and every slice respects it for the
    solve's mode ('sup': v >= psi, 'inf': v <= psi).
    """

    xs: np.ndarray  # (nx,)
    ts: np.ndarray  # (nt+1,)
    values: np.ndarray  # (nt+1, nx)

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
    """Linear interpolation of one time slice; refuses points off the grid
    and non-finite points."""
    x = np.asarray(x, dtype=float)
    # negated, so that NaN fails the test too
    if not (np.all(x >= xs[0] - 1e-12) and np.all(x <= xs[-1] + 1e-12)):
        raise ValueError("query point not finite or outside the PDE domain")
    return np.interp(x, xs, row)


def _coefficient_rows(problem: Problem, t: float, x_col: np.ndarray):
    """Drift and variance at the grid points, the column `x_col` (nx, 1)."""
    b = problem.drift(t, x_col, None)[:, 0]
    s2 = np.full(x_col.shape, problem.vol(t, x_col, None) ** 2)[:, 0]
    return b, s2


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
    norm_a = np.max(np.abs(lower) + diag + np.abs(upper))
    for row in (lower, diag, upper):
        row.setflags(write=False)  # shared by every sweep over the same steps
    return lower, diag, upper, norm_a


class StepRows:
    """The grid xs (nx,), ts (nt+1,) and the tridiagonal rows of every
    backward step of one (problem, cfg) pair; `rows[k]`, a `_tridiag`
    result, is the step from t_(k+1) to t_k.

    Built by `step_rows`. Adjacent steps whose coefficients are equal share
    one rows object, so a time-homogeneous problem holds exactly one.
    """

    # a plain class: generating a dataclass would add to every CLI start-up
    __slots__ = ("problem", "cfg", "xs", "ts", "rows")

    def __init__(self, problem: Problem, cfg: PdeConfig, xs, ts, rows: tuple):
        self.problem, self.cfg, self.xs, self.ts, self.rows = problem, cfg, xs, ts, rows


def step_rows(problem: Problem, cfg: PdeConfig) -> StepRows:
    """Evaluate the coefficients once per step and build the rows of every
    backward step, for any number of sweeps over this problem and grid."""
    if problem.d != 1:
        raise ValueError("the obstacle solver is one-dimensional")
    if problem.uses_measure:
        raise ValueError("the aggregation route needs measure-free coefficients")
    xs = np.linspace(cfg.x_lo, cfg.x_hi, cfg.nx)
    ts = np.linspace(0.0, problem.horizon, cfg.nt + 1)
    x_col = xs[:, None]
    rows = [None] * cfg.nt
    coefficients = None
    for k in range(cfg.nt - 1, -1, -1):
        b, s2 = _coefficient_rows(problem, ts[k], x_col)
        # the rows depend on t only through the coefficients: rebuild them
        # only when those change, which time-homogeneous problems never do;
        # == is np.array_equal here, as the shapes agree and a non-finite
        # value never gets past check_coefficients
        if coefficients is None or not (
            (b == coefficients[0]).all() and (s2 == coefficients[1]).all()
        ):
            check_coefficients(b, s2)
            coefficients = (b, s2)
            built = _tridiag(b, s2, ts[1] - ts[0], xs[1] - xs[0])
        rows[k] = built
    return StepRows(problem=problem, cfg=cfg, xs=xs, ts=ts, rows=tuple(rows))


def _lcp_step(
    rhs: np.ndarray,
    rows: tuple,
    psi: np.ndarray,
    psi_max: np.ndarray,
    on_obstacle: np.ndarray,
    mode: str,
    lu: list | None,
    lapack: tuple,
) -> tuple:
    """Solve one backward step of K stacked complementarity systems exactly.

    Every block (a row of `rhs`, `psi` and `on_obstacle`, shape (K, nx))
    shares the rows (lower, diag, upper, |A|_inf) of `_tridiag`.
    mode 'sup': min(Av - rhs, v - psi) = 0;  'inf': min(rhs - Av, psi - v) = 0.
    Policy iteration from the rows `on_obstacle` marks (the two boundary rows
    of each block always are, which pins them to psi), updated in place;
    `psi_max` is max|psi| per block. Each iteration solves all K blocks with
    one triangular solve, `gttrs` of `lapack = (gttrf, gttrs)`, the pair of
    `_lapack`, over the LU factors of the masked system: `lu`
    when given, which must be the factors of these rows masked by
    `on_obstacle`, else factors made by `gttrf`; an iteration that changes
    `on_obstacle` factors again. A block settles on a residual at rounding
    level, not on a repeated set of rows, which can cycle where v and psi
    coincide; a settled block keeps its rows, so the later solves return it
    unchanged, and the loop ends once every block has settled. Returns
    (values, moved, lu): `moved` is False when the first solve settled
    every block, which leaves `on_obstacle` as it found it, and `lu` is the
    factors of the rows masked by `on_obstacle` as it is on return.
    """
    lower, diag, upper, norm_a = rows
    gttrf, gttrs = lapack
    sup = mode == "sup"
    # 'inf' is 'sup' for -v: its gaps are the negated 'sup' gaps, so max
    # stands for min and the flip test turns round, with equal rounding
    project, worst = (np.maximum, np.minimum) if sup else (np.minimum, np.maximum)
    # rounding in Av - rhs grows with |A| |v|, and |v| <= max(|rhs|, |psi|)
    tol = 1e-13 * norm_a * (np.abs(rhs).max(axis=1) + psi_max)
    for iteration in range(rhs.shape[1]):
        if lu is None:
            *lu, info = gttrf(
                np.where(on_obstacle, 0.0, lower).ravel()[1:],
                np.where(on_obstacle, 1.0, diag).ravel(),
                np.where(on_obstacle, 0.0, upper).ravel()[:-1],
            )
            if info != 0:
                raise RuntimeError(f"LAPACK tridiagonal factorisation failed (info={info})")
        v, info = gttrs(*lu, np.where(on_obstacle, psi, rhs).ravel())
        if info != 0:
            raise RuntimeError(f"LAPACK tridiagonal solve failed (info={info})")
        v = v.reshape(rhs.shape)
        av = diag * v
        av[:, 1:] += lower[1:] * v[:, :-1]
        av[:, :-1] += upper[:-1] * v[:, 1:]
        equation_gap = av[:, 1:-1] - rhs[:, 1:-1]
        obstacle_gap = v[:, 1:-1] - psi[:, 1:-1]
        settled = np.abs(worst(equation_gap, obstacle_gap)).max(axis=1) <= tol
        if settled.all():
            return project(v, psi), iteration > 0, lu
        # near-ties leave the obstacle; flipping them on rounding noise stalls
        if sup:
            flips = obstacle_gap < equation_gap - tol[:, None]
        else:
            flips = obstacle_gap > equation_gap + tol[:, None]
        on_obstacle[~settled, 1:-1] = flips[~settled]
        lu = None
    raise RuntimeError(
        f"obstacle step did not settle within {rhs.shape[1]} policy iterations"
    )


@functools.cache
def _lapack() -> tuple:
    """LAPACK's tridiagonal LU pair, resolved on first use, called as
    `scipy.linalg.lapack`'s that overwrite their input: gttrf(dl, d, du)
    returns (*lu, info) and gttrs(*lu, b) returns (b, info). The routines of
    the OpenBLAS bundled with numpy when found, else scipy's."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        factor, solve = lib.scipy_dgttrf_64_, lib.scipy_dgttrs_64_
    except (OSError, AttributeError):  # numpy built against another BLAS
        from scipy.linalg.lapack import dgttrf, dgttrs

        overwrite = dict(overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        return functools.partial(dgttrf, **overwrite), functools.partial(dgttrs, overwrite_b=1)
    factor.argtypes, factor.restype = [ctypes.c_void_p] * 7, None
    solve.argtypes, solve.restype = [ctypes.c_void_p] * 11 + [ctypes.c_size_t], None
    trans, one = ctypes.c_char(b"N"), ctypes.c_int64(1)

    def gttrf(dl, d, du):
        n = d.shape[0]
        short, vector = ctypes.c_double * (n - 1), ctypes.c_double * n
        # N (ILP64), DL, D, DU, DU2, IPIV, INFO; the views keep the arrays alive
        views = (ctypes.c_int64(n), _doubles(dl, short), _doubles(d, vector), _doubles(du, short),
                 vector(), (ctypes.c_int64 * n)(), ctypes.c_int64())
        addresses = [ctypes.addressof(view) for view in views]
        factor(*addresses)
        # gttrs reads TRANS, N, NRHS, DL, D, DU, DU2, IPIV, B, LDB = N, INFO and
        # the length of TRANS: every address but B's is taken here, once
        head = (ctypes.addressof(trans), addresses[0], ctypes.addressof(one), *addresses[1:6])
        return head, vector, (addresses[0], addresses[6], 1), views, views[-1].value

    def gttrs(head, vector, tail, views, b):
        solve(*head, _doubles(b, vector), *tail)
        return b, views[-1].value

    return gttrf, gttrs


def _doubles(a: np.ndarray, vector: type):
    """`a` in place as the ctypes array type `vector` of doubles; from_buffer
    refuses a read-only, non-contiguous or short array."""
    if a.dtype != np.float64:
        raise TypeError("LAPACK needs float64 arrays")
    return vector.from_buffer(a)


def _sweep(steps: StepRows, psis, mode: str, keep_surfaces: bool) -> np.ndarray:
    """One backward obstacle solve for K payoffs over the rows of `steps`.

    Returns the surfaces (nt+1, K, nx) when `keep_surfaces`, else only the
    t = 0 slices (K, nx).
    """
    if mode not in ("sup", "inf"):
        raise ValueError("mode must be 'sup' or 'inf'")
    if len(psis) == 0:
        raise ValueError("need at least one payoff")
    problem, cfg, xs, ts = steps.problem, steps.cfg, steps.xs, steps.ts
    dt = ts[1] - ts[0]
    psi_values = np.empty((len(psis), cfg.nx))
    for row, psi in zip(psi_values, psis):
        value = np.asarray(psi(xs), dtype=float)
        if value.shape != xs.shape or not np.all(np.isfinite(value)):
            raise ValueError("psi must map the grid to finite values")
        row[:] = value
    psi_max = np.max(np.abs(psi_values), axis=1)
    lapack = _lapack()
    current = psi_values
    if keep_surfaces:
        values = np.empty((cfg.nt + 1,) + psi_values.shape)
        values[-1] = current
    on_obstacle = np.ones(psi_values.shape, dtype=bool)
    last = None  # (rows, rhs) of the last step, unless it moved its warm start
    factored = (None, None)  # rows and the LU factors of them masked by on_obstacle
    for k in range(cfg.nt - 1, -1, -1):
        rows = steps.rows[k]
        rhs = current
        if problem.f is not None:
            rhs = rhs + dt * problem.rate(ts[k], xs[:, None], None)
        repeat = (
            last is not None
            and last[0] is rows
            # the bytes compare equal exactly when the bits do, and a
            # comparison that fails stops at the first byte that differs
            and (rhs is last[1] or rhs.tobytes() == last[1].tobytes())
        )
        if not repeat:  # a repeated step keeps the output `current` already is
            lu = factored[1] if factored[0] is rows else None
            current, moved, lu = _lcp_step(
                rhs, rows, psi_values, psi_max, on_obstacle, mode, lu, lapack
            )
            factored = (rows, lu)
        # a repeated step keeps its own rhs, which is the next step's when f is None
        last = None if moved else (rows, rhs)
        if keep_surfaces:
            values[k] = current
    return values if keep_surfaces else current


def stacked_os_pde(steps: StepRows, psis, mode: str = "sup") -> list:
    """`standard_os_pde` for several payoffs at once, one surface each.

    All payoffs share the grid, the coefficients and every backward step of
    `steps`; each surface is bit-identical to its own `standard_os_pde` solve.
    """
    values = _sweep(steps, psis, mode, keep_surfaces=True)
    return [
        ObstaclePDEGrid(xs=steps.xs, ts=steps.ts, values=values[:, j])
        for j in range(len(psis))
    ]


def stacked_initial_values(steps: StepRows, psis, mode: str = "sup") -> np.ndarray:
    """The t = 0 slices of `stacked_os_pde` on the grid `steps.xs`, without
    keeping the surfaces: shape (K, nx), one row per payoff."""
    return _sweep(steps, psis, mode, keep_surfaces=False)


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
    return stacked_os_pde(step_rows(problem, cfg), [psi], mode)[0]


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
