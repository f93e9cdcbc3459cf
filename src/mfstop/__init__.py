"""Particle-based numerical laboratory for mean-field optimal stopping.

Probability measures on the flagged state space R^d x {0,1} are represented
as weighted atom lists; the flag records whether a particle is still running
(1) or has been stopped (0). On top of that representation the package
provides stopped McKean-Vlasov simulation, value estimation by policy search
over relaxed (fractional) stopping rules, closed-form and PDE reductions for
four benchmark problems, a smoothing operator for functionals of measures,
and finite-difference checks of the dynamic-programming obstacle equation.
"""

from .measures import (
    EmpiricalMeasure,
    StopMap,
    apply_stop,
    make_empirical,
    wasserstein,
)

__version__ = "0.1.0"

__all__ = [
    "EmpiricalMeasure",
    "StopMap",
    "apply_stop",
    "make_empirical",
    "wasserstein",
    "__version__",
]
