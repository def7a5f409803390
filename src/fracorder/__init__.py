"""Spectral solver for 1-D time-fractional diffusion and identification of
the Caputo order from a single space-time measurement.

The forward problem (subdiffusion on an interval, Dirichlet walls, finite
sine-mode initial data) is evaluated through Mittag-Leffler time factors;
the inverse problem reduces to the scalar equation F(alpha) = d, which the
paper's sign hypothesis does not make monotone, and is solved by bracketing
on a Chebyshev interpolant of F cut into certified monotone pieces and a
safeguarded Newton iteration that starts at the interpolant's root and
steps with its slope.
"""

from .errors import AccuracyError, ConfigError, DomainError, NoRootError
from .forward import (ForwardProblem, evaluate_solution, evaluate_solution_grid,
                      make_problem, sine_coefficient)
from .inverse import (InverseConfig, InversionReport, Measurement, ScanResult,
                      endpoint_values, invert_order, residual, residual_derivative,
                      scan_bracket)
from .special import mittag_leffler, ml_alpha_derivative, sinpi

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ConfigError", "DomainError", "NoRootError",
    "ForwardProblem", "make_problem", "evaluate_solution",
    "evaluate_solution_grid", "sine_coefficient",
    "Measurement", "InverseConfig", "InversionReport", "ScanResult",
    "residual", "residual_derivative", "scan_bracket", "invert_order",
    "endpoint_values",
    "mittag_leffler", "ml_alpha_derivative", "sinpi",
    "__version__",
]
