"""Simulation and numerics for the reaction-diffusion equation
du/dt = kappa * Delta u + xi u with a symmetric-exclusion catalyst xi:
event-driven catalyst simulation, exact semigroup computations on small tori,
Feynman-Kac Monte Carlo, Rayleigh-Ritz spectral solvers, and the deterministic
field estimates entering the large-diffusion asymptotics.
"""

from .exact import OperatorSpec
from .exclusion import Configuration, LinkSchedule, build_schedule, sample_initial
from .harness import Report, ScenarioConfig, emit_figures_data, run_scenario
from .irw import WeightFunction, compare_se_irw, irw_exp_functional
from .lattice import Kernel, Torus, green, srw_kernel
from .montecarlo import McEstimate, estimate_moment, lambda_curve

__version__ = "0.1.0"

__all__ = [
    "Configuration", "Kernel", "LinkSchedule", "McEstimate",
    "OperatorSpec", "Report", "ScenarioConfig", "Torus",
    "WeightFunction", "build_schedule", "compare_se_irw",
    "emit_figures_data", "estimate_moment", "green",
    "irw_exp_functional", "lambda_curve", "run_scenario",
    "sample_initial", "srw_kernel",
]
