"""Counter-based Gaussian noise for particle simulation.

Every normal draw is addressed, not streamed: the increment used by particle
`p` at time step `k` is a pure function of (seed, p, k). Two consequences the
rest of the package leans on:

* runs are reproducible bit-for-bit regardless of how particles are batched
  or how many threads evaluate them, and
* two simulations that share a seed see identical noise wherever their
  (particle, step) indices coincide, which gives common-random-number
  comparisons (policy A vs policy B, bumped vs unbumped measure) for free.

The block cipher is Philox-4x32 with 10 rounds, implemented directly on
uint32 lanes so a whole vector of counters is evaluated in one shot. A lane
is one (particle, step) address: the cipher is the same function of every
lane, so one call may span many steps (a 1-d array `step`) and equals the
per-step calls bit for bit. The step fills one 32-bit counter word and the
id two; a step outside [0, 2^32), or an id that is negative or not an
integer, is refused rather than wrapped or truncated onto another address.
Each 4-word block is turned into two 53-bit uniforms and then two standard
normals via Box-Muller.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint32(0x9E3779B9)
_W1 = np.uint32(0xBB67AE85)
_LO = np.uint64(0xFFFFFFFF)

_INV53 = float(2.0**-53)
_TWO_PI = 2.0 * np.pi


def _philox_rounds(c0, c1, c2, c3, k0, k1):
    """Ten Philox-4x32 rounds on uint32 lanes and a uint32 key; returns four uint32 arrays."""
    for _ in range(10):
        p0 = _M0 * c0.astype(np.uint64)
        p1 = _M1 * c2.astype(np.uint64)
        lo0 = (p0 & _LO).astype(np.uint32)
        hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
        lo1 = (p1 & _LO).astype(np.uint32)
        hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = k0 + _W0
        k1 = k1 + _W1
    return c0, c1, c2, c3


def _blocks(seed: int, lanes: tuple, block: int) -> tuple:
    """Evaluate one Philox block per lane for a fixed block slot.

    `lanes` holds the uint32 counter words (step, id low, id high), one
    entry per lane. Every lane shares the key, so it stays two scalars.
    """
    c1, c2, c3 = lanes
    c0 = np.full(c1.shape[0], block, dtype=np.uint32)
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    k0, k1 = np.uint32(seed & 0xFFFFFFFF), np.uint32(seed >> 32)
    with np.errstate(over="ignore"):
        return _philox_rounds(c0, c1, c2, c3, k0, k1)


def _to_uniform_pair(x0, x1, x2, x3):
    """Map four uint32 lanes to two uniforms, the first in (0,1], the second in [0,1)."""
    a = (x0.astype(np.uint64) << np.uint64(32)) | x1.astype(np.uint64)
    b = (x2.astype(np.uint64) << np.uint64(32)) | x3.astype(np.uint64)
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
    u2 = (b >> np.uint64(11)).astype(np.float64) * _INV53
    return u1, u2


def normals(seed: int, particles: np.ndarray, step, d: int) -> np.ndarray:
    """Standard normal increments, shape (len(particles), d), or
    (len(step), len(particles), d) when `step` is a 1-d array of steps.

    `particles` are integer particle ids in [0, 2^64); `step` is the global
    time-step index, in [0, 2^32). The output is a deterministic function
    of (seed, id, step, slot), so any subset of particles and steps
    evaluated in any order or grouping sees the same numbers: row s of a
    vector call equals the call at step[s] bit for bit.
    """
    particles = np.asarray(particles)
    if particles.dtype.kind not in "iu" or (particles.size and particles.min() < 0):
        raise ValueError("particle ids must be nonnegative integers")
    particles = particles.astype(np.uint64, copy=False)
    steps = np.asarray(step)
    if steps.ndim > 1 or steps.dtype.kind not in "iuO":
        raise ValueError("step must be an integer or a 1-d array of integers")
    if steps.size and not (0 <= steps.min() and steps.max() <= 0xFFFFFFFF):
        raise ValueError("noise steps must lie in [0, 2^32)")
    shape = steps.shape + (particles.shape[0], d)
    # the counter words (step, id low, id high) of every lane, steps outer
    ids = np.tile(particles, steps.size)
    c1 = np.repeat(steps.reshape(-1).astype(np.uint32), particles.shape[0])
    lanes = c1, (ids & _LO).astype(np.uint32), (ids >> np.uint64(32)).astype(np.uint32)
    n = ids.shape[0]
    if n == 0:
        return np.zeros(shape)
    nblocks = (d + 1) // 2
    out = np.empty((n, 2 * nblocks))
    for blk in range(nblocks):
        u1, u2 = _to_uniform_pair(*_blocks(seed, lanes, blk))
        r = np.sqrt(-2.0 * np.log(u1))
        theta = _TWO_PI * u2
        out[:, 2 * blk] = r * np.cos(theta)
        out[:, 2 * blk + 1] = r * np.sin(theta)
    return out[:, :d].reshape(shape)
