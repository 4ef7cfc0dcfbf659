"""stochlab: a numerical laboratory for stochastic integral convergence.

Simulates left-point stochastic integrals driven by coupled Wiener sequences,
measures weak- and strong-mode convergence gaps, reproduces the analytic
counterexamples that pin the hypotheses, and runs stability experiments for
stochastic transport equations and conservation laws in kinetic form.
"""

from .wiener import (TimeGrid, WienerPath, CouplingSchedule, ReplicaDraw,
                     ReplicaBatch, sample_wiener, couple, sup_distance)
from .processes import (AdaptedProcess, DependencyTag, Ensemble, ExponentSet,
                        TestFunction, pair)
from .ito import ito_integral, batch_ito_integral
from .mollify import (MollifierKernel, mollify, adjoint_mollify,
                      mollify_derivative, adjoint_mollify_derivative)
from .translation import translation_modulus, fit_translation_rate

__all__ = [
    "TimeGrid", "WienerPath", "CouplingSchedule", "ReplicaDraw", "ReplicaBatch",
    "sample_wiener", "couple", "sup_distance",
    "AdaptedProcess", "DependencyTag", "Ensemble", "ExponentSet",
    "TestFunction", "pair",
    "ito_integral", "batch_ito_integral",
    "MollifierKernel", "mollify", "adjoint_mollify",
    "mollify_derivative", "adjoint_mollify_derivative",
    "translation_modulus", "fit_translation_rate",
]

__version__ = "0.1.0"
