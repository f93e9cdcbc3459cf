"""Reference values the benchmark checks the program against.

Everything here is plain `math` on lists of atoms (x, flag, weight); nothing
calls into mfstop, so a fault in the program cannot also move its reference.
Each reference rests on a property of the problem, not on a past output:

* a convex payoff of a martingale gains nothing from early exercise, so the
  put value of a Brownian atom is the Gaussian (Bachelier) European put;
* under martingale dynamics mean minus variance and expected shortfall are
  best served by stopping at once, so their values collapse to the static
  reward of the start law.
"""

from __future__ import annotations

import math


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def bachelier_put(x: float, strike: float, sigma: float, horizon: float) -> float:
    """E[(strike - x - sigma W_horizon)^+] for a standard Brownian motion W."""
    s = sigma * math.sqrt(horizon)
    d = (strike - x) / s
    return (strike - x) * normal_cdf(d) + s * normal_pdf(d)


def aggregate_put(atoms, strike: float, sigma: float, horizon: float) -> float:
    """Mean-field put value: running atoms hold the European put, stopped ones the payoff."""
    total = 0.0
    for x, flag, w in atoms:
        if flag == 1:
            total += w * bachelier_put(x, strike, sigma, horizon)
        else:
            total += w * max(strike - x, 0.0)
    return total


def mean(atoms) -> float:
    return sum(w * x for x, _, w in atoms)


def mean_variance_reward(atoms, lam: float) -> float:
    """g_lam = z1 + (lam/2) z1^2 - (lam/2) z2 of the spatial marginal."""
    z1 = mean(atoms)
    z2 = sum(w * x * x for x, _, w in atoms)
    return z1 + 0.5 * lam * z1 * z1 - 0.5 * lam * z2


def static_shortfall(atoms, alpha: float) -> float:
    """Average of the upper 1 - alpha tail of the spatial marginal."""
    tail = 1.0 - alpha
    left = tail
    total = 0.0
    for x, _, w in sorted(atoms, key=lambda a: -a[0]):
        take = min(w, left)
        total += take * x
        left -= take
        if left <= 0.0:
            break
    return total / tail
