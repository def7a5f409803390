"""Spectral solver for 1-D time-fractional diffusion and identification of
the Caputo order from a single space-time measurement.

The forward problem (subdiffusion on an interval, Dirichlet walls, finite
sine-mode initial data) is evaluated through Mittag-Leffler time factors;
the inverse problem reduces to the scalar equation F(alpha) = d, which the
paper's sign hypothesis does not make monotone, and is solved by scanning
and bracketing with analytic-derivative Newton acceleration.
"""

from .errors import AccuracyError, ConfigError, DomainError, NoRootError
from .forward import (ForwardProblem, evaluate_solution, evaluate_solution_grid,
                      make_problem, sine_coefficient)
from .inverse import (InverseConfig, InversionReport, Measurement, ModeTerm,
                      ScanResult, UniquenessReport, check_uniqueness_hypothesis,
                      endpoint_values, invert_order, residual, residual_derivative,
                      scan_bracket, sensitivity_profile)
from .special import mittag_leffler, ml_alpha_derivative, sinpi

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ConfigError", "DomainError", "NoRootError",
    "ForwardProblem", "make_problem", "evaluate_solution",
    "evaluate_solution_grid", "sine_coefficient",
    "Measurement", "InverseConfig", "InversionReport", "ModeTerm", "ScanResult",
    "UniquenessReport", "residual", "residual_derivative",
    "check_uniqueness_hypothesis", "scan_bracket", "invert_order",
    "sensitivity_profile", "endpoint_values",
    "mittag_leffler", "ml_alpha_derivative", "sinpi",
    "__version__",
]
