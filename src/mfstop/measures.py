"""Weighted-atom measures on the flagged state space R^d x {0,1}.

An `EmpiricalMeasure` is a finite list of atoms (x, i, w): position, survival
flag, weight. Flag 1 means the particle is still running, flag 0 that it has
been stopped and its position frozen. The key order-theoretic operation is
`apply_stop`, which converts a fraction of surviving mass into stopped mass
at the same positions; `m' = apply_stop(m, p)` is exactly the relation
"m' arises from m by (possibly fractional) stopping".

Stopping is realized by deterministic weight splitting, never by Bernoulli
sampling, so all order-theoretic identities here are exact up to float
rounding.

Measures compare through an exact optimal-transport distance whose ground
metric treats (x, i) as a point of R^{d+1}: sqrt(|x-x'|^2 + |i-i'|^2).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "StopMap",
    "make_empirical",
    "apply_stop",
    "wasserstein",
    "measure_to_csv",
    "measure_from_csv",
]

# Atoms closer than this in every coordinate (same flag) are one atom.
MERGE_TOL = 1e-12

# Exact transport is solved as a dense LP; cap the number of atom pairs so a
# typo cannot silently request a gigabyte cost matrix. 512 x 512 pairs.
_MAX_TRANSPORT_PAIRS = 512 * 512


# ---------------------------------------------------------------------------
# measure construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Probability measure on R^d x {0,1} as merged, canonically ordered atoms.

    Attributes
    ----------
    xs : (N, d) float array of positions.
    flags : (N,) uint8 array of survival flags, each 0 or 1.
    ws : (N,) float array of strictly positive weights summing to 1.

    Instances are immutable (arrays are set read-only) and canonical: atoms
    are sorted by (flag, position) and duplicates are merged, so two measures
    are equal as measures iff their arrays are equal elementwise.
    """

    xs: np.ndarray
    flags: np.ndarray
    ws: np.ndarray

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.xs.shape[0]

    def surviving_mass(self) -> float:
        return float(self.ws[self.flags == 1].sum())

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions and weights of the flag-1 atoms."""
        alive = self.flags == 1
        return self.xs[alive], self.ws[alive]

    def stopped(self) -> tuple[np.ndarray, np.ndarray]:
        alive = self.flags == 0
        return self.xs[alive], self.ws[alive]

    def x_marginal(self) -> tuple[np.ndarray, np.ndarray]:
        """Full spatial marginal (flags forgotten), merged at duplicate sites."""
        order = np.lexsort(tuple(self.xs[:, k] for k in reversed(range(self.d))))
        return _merge_sorted(self.xs[order], self.ws[order])

    def allclose(self, other: "EmpiricalMeasure", tol: float = 1e-12) -> bool:
        """Equality as measures, up to `tol` on weights and atom positions."""
        if self.d != other.d or self.n_atoms != other.n_atoms:
            return False
        return (
            np.array_equal(self.flags, other.flags)
            and np.allclose(self.xs, other.xs, rtol=0.0, atol=max(tol, MERGE_TOL))
            and np.allclose(self.ws, other.ws, rtol=0.0, atol=tol)
        )


def _merge_sorted(keys: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge runs of sorted rows equal within MERGE_TOL.

    Returns the first row of each run and the run's weights summed in row order.
    """
    # numpy reduces across a short row slowly, so reduce over a transposed copy
    jumps = np.ascontiguousarray(np.abs(np.diff(keys, axis=0)).T) > MERGE_TOL
    starts = np.concatenate([[True], jumps.any(axis=0)])
    return np.compress(starts, keys, axis=0), np.bincount(np.cumsum(starts) - 1, weights=ws)


def _build(xs: np.ndarray, flags: np.ndarray, ws: np.ndarray) -> EmpiricalMeasure:
    """Canonicalize raw atom arrays: prune zeros, sort, merge, freeze."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ws = np.asarray(ws, dtype=float).ravel()
    flags = np.asarray(flags).ravel().astype(np.uint8)
    if xs.shape[0] != ws.shape[0] or flags.shape[0] != ws.shape[0]:
        raise ValueError("xs, flags, ws must have matching first dimension")
    if np.any(~np.isfinite(xs)) or np.any(~np.isfinite(ws)):
        raise ValueError("non-finite atom data")
    if np.any(ws < 0):
        raise ValueError("negative atom weight")
    if np.any((flags != 0) & (flags != 1)):
        raise ValueError("flags must be 0 or 1")

    live = ws > 0.0
    xs, flags, ws = xs[live], flags[live], ws[live]
    if xs.shape[0] == 0:
        raise ValueError("measure has no mass")

    d = xs.shape[1]
    order = np.lexsort(tuple(xs[:, k] for k in reversed(range(d))) + (flags,))
    xs, flags, ws = xs[order], flags[order], ws[order]

    # the flag column breaks a run wherever the flag changes
    keys, ws = _merge_sorted(np.column_stack([flags, xs]), ws)
    xs = np.ascontiguousarray(keys[:, 1:])
    flags = keys[:, 0].astype(np.uint8)

    total = ws.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"total mass {total!r} is not 1")

    for arr in (xs, flags, ws):
        arr.setflags(write=False)
    return EmpiricalMeasure(xs=xs, flags=flags, ws=ws)


def make_empirical(
    points: Sequence, weights: Optional[Sequence[float]] = None
) -> EmpiricalMeasure:
    """Build a measure from (x, i) pairs and optional positive weights.

    Weights are normalized to sum to one; omitted weights are uniform. `x`
    entries may be scalars (d=1) or vectors.

    >>> m = make_empirical([(1.0, 1), (2.0, 0)], [2.0, 6.0])
    >>> list(m.ws)
    [0.75, 0.25]
    """
    if len(points) == 0:
        raise ValueError("empty atom list")
    xs = []
    flags = []
    for x, i in points:
        xs.append(np.atleast_1d(np.asarray(x, dtype=float)))
        flags.append(int(i))
    dims = {v.shape[0] for v in xs}
    if len(dims) != 1:
        raise ValueError("atoms have inconsistent dimension")
    xs = np.vstack(xs)
    if weights is None:
        ws = np.full(len(points), 1.0 / len(points))
    else:
        ws = np.asarray(list(weights), dtype=float)
        if ws.shape[0] != len(points):
            raise ValueError("weights length mismatch")
        if np.any(ws <= 0):
            raise ValueError("weights must be strictly positive")
        ws = ws / ws.sum()
    return _build(xs, flags, ws)


def from_arrays(xs, flags, ws) -> EmpiricalMeasure:
    """Canonicalize pre-assembled arrays without renormalizing the weights."""
    return _build(xs, flags, ws)


# ---------------------------------------------------------------------------
# stop maps and the stopping order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StopMap:
    """Conditional survival probability p: R^d -> [0,1].

    p(x) is the fraction of surviving mass at x that KEEPS running; 1 - p(x)
    is stopped. The map carries a (family, params) tag so policies can be
    serialized; `fn` is the vectorized evaluation.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    family: str = "callable"
    params: dict = field(default_factory=dict)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p = np.asarray(self.fn(x), dtype=float).ravel()
        if p.shape[0] != x.shape[0]:
            raise ValueError("stop map returned wrong shape")
        if not ((p >= -1e-9) & (p <= 1 + 1e-9)).all():
            raise ValueError("stop map value outside [0,1]")
        return np.clip(p, 0.0, 1.0)

    @cached_property
    def key(self) -> tuple:
        """(family, sorted parameter strings): maps of one family with equal
        keys have equal parameters. Computed once per map."""
        return (self.family, tuple(sorted(map(str, self.params.items()))))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: float) -> "StopMap":
        c = float(c)
        if not 0.0 <= c <= 1.0:
            raise ValueError("constant survival fraction outside [0,1]")
        return StopMap(lambda x: np.full(x.shape[0], c), "constant", {"c": c})

    @staticmethod
    def threshold(theta: float, side: str = "below") -> "StopMap":
        """Pure rule: stop iff x <= theta ('below') or x >= theta ('above'); d=1."""
        if side not in ("below", "above"):
            raise ValueError("side must be 'below' or 'above'")
        theta = float(theta)
        if not np.isfinite(theta):
            raise ValueError("threshold theta must be finite")
        if side == "below":
            fn = lambda x: (x[:, 0] > theta).astype(float)
        else:
            fn = lambda x: (x[:, 0] < theta).astype(float)
        return StopMap(fn, "threshold", {"theta": theta, "side": side})

    @staticmethod
    def logistic(a, c: float) -> "StopMap":
        a_vec = np.atleast_1d(np.asarray(a, dtype=float))
        if not (np.isfinite(a_vec).all() and np.isfinite(c)):
            raise ValueError("logistic a and c must be finite")

        def fn(x):
            s = x @ a_vec + c
            return 1.0 / (1.0 + np.exp(-s))

        return StopMap(fn, "logistic", {"a": a_vec.tolist(), "c": float(c)})

    @staticmethod
    def random(rng) -> "StopMap":
        """A constant, threshold or logistic map with parameters drawn from `rng`; d=1."""
        kind = rng.integers(0, 3)
        if kind == 0:
            return StopMap.constant(float(rng.uniform(0.0, 1.0)))
        if kind == 1:
            side = "below" if rng.uniform() < 0.5 else "above"
            return StopMap.threshold(float(rng.normal(0.0, 1.0)), side)
        return StopMap.logistic(float(rng.normal(0.0, 2.0)), float(rng.normal(0.0, 1.0)))

    @staticmethod
    def tabular(edges, values) -> "StopMap":
        """Bin lookup on x[0]: len(values) = len(edges) + 1, values in [0,1]."""
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape[0] != edges.shape[0] + 1:
            raise ValueError("tabular stop map needs len(values) == len(edges) + 1")
        if not ((values >= 0) & (values <= 1)).all():  # refuses NaN too
            raise ValueError("tabular values outside [0,1]")
        fn = lambda x: values[np.searchsorted(edges, x[:, 0], side="right")]
        return StopMap(fn, "tabular", {"edges": edges.tolist(), "values": values.tolist()})

    @staticmethod
    def site_lookup(sites: np.ndarray, values: np.ndarray, default: float = 1.0) -> "StopMap":
        """Exact-site table: p(site_k) = values[k], `default` elsewhere.

        Sites are matched within 1e-9 per coordinate; used for per-atom
        terminal maps.
        """
        sites = np.atleast_2d(np.asarray(sites, dtype=float))
        values = np.asarray(values, dtype=float).ravel()
        if not ((values >= 0) & (values <= 1)).all() or not 0 <= default <= 1:
            raise ValueError("site_lookup values or default outside [0,1]")

        def fn(x):
            out = np.full(x.shape[0], default)
            for k in range(sites.shape[0]):
                hit = np.all(np.abs(x - sites[k]) <= 1e-9, axis=1)
                out[hit] = values[k]
            return out

        return StopMap(
            fn,
            "site_lookup",
            {"sites": sites.tolist(), "values": values.tolist(), "default": default},
        )


def apply_stop(m: EmpiricalMeasure, s: StopMap) -> EmpiricalMeasure:
    """Stop a fraction 1 - p(x) of the surviving mass at each site.

    Each surviving atom (x, 1, w) becomes (x, 1, w p(x)) plus (x, 0,
    w (1 - p(x))); stopped atoms pass through; zero-weight pieces are pruned.
    Total mass and the spatial marginal are conserved exactly, and the result
    precedes `m` in the stopping order by construction.
    """
    alive = m.flags == 1
    if not alive.any():
        return m
    x_live = m.xs[alive]
    w_live = m.ws[alive]
    p = s(x_live)

    xs = [m.xs[~alive], x_live, x_live]
    flags = [
        np.zeros((~alive).sum(), dtype=np.uint8),
        np.ones(x_live.shape[0], dtype=np.uint8),
        np.zeros(x_live.shape[0], dtype=np.uint8),
    ]
    ws = [m.ws[~alive], w_live * p, w_live * (1.0 - p)]
    return _build(np.vstack(xs), np.concatenate(flags), np.concatenate(ws))


# ---------------------------------------------------------------------------
# Wasserstein distance
# ---------------------------------------------------------------------------


def _ground_cost(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> np.ndarray:
    dx = m1.xs[:, None, :] - m2.xs[None, :, :]
    di = m1.flags[:, None].astype(float) - m2.flags[None, :].astype(float)
    return np.sqrt((dx**2).sum(axis=2) + di**2)


def wasserstein(m1: EmpiricalMeasure, m2: EmpiricalMeasure, order: int = 2) -> float:
    """Exact transport distance between two atom measures.

    Ground metric sqrt(|x-x'|^2 + |i-i'|^2), the module's metric on
    R^d x {0,1}, so moving mass across flags costs 1; the returned value
    is (min plan cost)^(1/order) with order 1 or 2. Uses the classical
    sorted-pairing rule when both measures sit on one common flag class in
    d=1 with equal uniform weights, a dense LP (exact vertex solution)
    otherwise. Raises when the atom-pair count exceeds the LP budget.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if m1.d != m2.d:
        raise ValueError("dimension mismatch")
    if m1.allclose(m2):
        return 0.0

    single_class = (
        m1.d == 1
        and len(set(m1.flags.tolist())) == 1
        and len(set(m2.flags.tolist())) == 1
        and m1.flags[0] == m2.flags[0]
        and m1.n_atoms == m2.n_atoms
        and np.allclose(m1.ws, m1.ws[0], rtol=0.0, atol=1e-12)
        and np.allclose(m2.ws, m2.ws[0], rtol=0.0, atol=1e-12)
    )
    if single_class:
        a = np.sort(m1.xs[:, 0])
        b = np.sort(m2.xs[:, 0])
        cost = float(np.mean(np.abs(a - b) ** order))
        return cost ** (1.0 / order)

    n1, n2 = m1.n_atoms, m2.n_atoms
    if n1 * n2 > _MAX_TRANSPORT_PAIRS:
        raise ValueError(
            f"transport problem too large for the exact solver ({n1} x {n2} atoms)"
        )
    cost = _ground_cost(m1, m2) ** order
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    # transport LP: row sums = ws1, column sums = ws2
    rows, cols, vals = [], [], []
    for i in range(n1):
        rows.extend([i] * n2)
        cols.extend(range(i * n2, (i + 1) * n2))
        vals.extend([1.0] * n2)
    for j in range(n2):
        rows.extend([n1 + j] * n1)
        cols.extend(range(j, n1 * n2, n2))
        vals.extend([1.0] * n1)
    a_eq = coo_matrix((vals, (rows, cols)), shape=(n1 + n2, n1 * n2))
    b_eq = np.concatenate([m1.ws, m2.ws])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(max(res.fun, 0.0)) ** (1.0 / order)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def measure_to_csv(m: EmpiricalMeasure, path_or_buf) -> None:
    """Write atoms as CSV with header x0,...,x{d-1},i,w (UTF-8, LF endings)."""

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{k}" for k in range(m.d)] + ["i", "w"])
        for x, i, w in zip(m.xs, m.flags, m.ws):
            writer.writerow([repr(float(v)) for v in x] + [int(i), repr(float(w))])

    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(path_or_buf)


def measure_from_csv(path_or_buf) -> EmpiricalMeasure:
    """Read a measure written by `measure_to_csv`; malformed files raise ValueError."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "r", encoding="utf-8", newline="") as fh:
            return measure_from_csv(io.StringIO(fh.read()))
    reader = csv.reader(path_or_buf)
    header = next(reader, None)
    if header is None:
        raise ValueError("measure CSV is empty")
    if len(header) < 3 or header[-2:] != ["i", "w"]:
        raise ValueError("measure CSV must end with columns i,w")
    d = len(header) - 2
    if header[:d] != [f"x{k}" for k in range(d)]:
        raise ValueError("measure CSV must start with columns x0..x{d-1}")
    xs, flags, ws = [], [], []
    for row in reader:
        if not row:
            continue
        if len(row) != d + 2:
            raise ValueError(
                f"measure CSV line {reader.line_num} has {len(row)} fields, expected {d + 2}"
            )
        xs.append([float(v) for v in row[:d]])
        flags.append(int(row[d]))
        ws.append(float(row[d + 1]))
    return _build(np.array(xs), np.array(flags), np.array(ws))
