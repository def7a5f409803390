"""Built-in verification suite behind the `selfcheck` command.

Each check compares an implementation path against an independent target
(the plain exponential, the erfcx identity E_1/2(-x) = exp(x^2) erfc(x),
central finite differences, closed-form endpoint limits, forward/inverse
round trips) and reports one machine-readable line.
"""

import math

from .forward import evaluate_solution, make_problem
from .inverse import Measurement, endpoint_values, invert_order
from .special import mittag_leffler, ml_alpha_derivative


def _single_mode_problem():
    # quarter-point measurement of one decaying sine mode
    return (make_problem(0.1, math.pi, [(2, 0.5)], 4.0),
            Measurement(math.pi / 4, 2.0, 0.25818))


def _two_mode_problem():
    return (make_problem(0.05, math.pi, [(1, 2.0), (3, 0.5)], 20.0),
            Measurement(math.pi / 6, 10.0, 1.0112))


def _check_ml_exponential():
    worst = 0.0
    step = 20.0 / 49
    for x in [i * step for i in range(49)] + [20.0]:  # numpy.linspace(0, 20, 50)
        expected = math.exp(-x)
        worst = max(worst, abs(mittag_leffler(1.0, -x) - expected) / expected)
    return worst, 1e-10


def _check_ml_erfc_identity():
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        expected = math.exp(x * x) * math.erfc(x)  # erfcx(x), accurate at these x
        worst = max(worst, abs(mittag_leffler(0.5, -x, rel_tol=1e-8) - expected) / expected)
    return worst, 1e-8


def _check_ml_derivative_fd():
    h = 1e-6
    worst = 0.0
    for c, t in ((0.4, 2.0), (0.05, 10.0), (0.45, 10.0)):
        for k in range(1, 10):
            alpha = k / 10
            analytic = ml_alpha_derivative(alpha, c, t)
            fd = (mittag_leffler(alpha + h, -c * t ** (alpha + h), rel_tol=2e-12)
                  - mittag_leffler(alpha - h, -c * t ** (alpha - h), rel_tol=2e-12)) / (2 * h)
            worst = max(worst, abs(analytic - fd) / abs(fd))
    return worst, 1e-5


def _check_endpoint_closed_forms():
    problem, measurement = _single_mode_problem()
    f0, f1 = endpoint_values(problem, measurement)
    worst = max(abs(f0 - 5.0 / 14.0), abs(f1 - 0.5 * math.exp(-0.8)))
    return worst, 1e-10


def _roundtrip(problem, measurement, alpha):
    d = evaluate_solution(problem, alpha, measurement.position, measurement.time)
    report = invert_order(problem, Measurement(measurement.position, measurement.time, d))
    return abs(report.alpha_hat - alpha)


def _check_roundtrip_single_mode():
    problem, measurement = _single_mode_problem()
    return _roundtrip(problem, measurement, 0.6), 1e-8


def _check_roundtrip_two_mode():
    problem, measurement = _two_mode_problem()
    return _roundtrip(problem, measurement, 0.4), 1e-8


def _check_invert_single_mode_reference():
    problem, measurement = _single_mode_problem()
    report = invert_order(problem, measurement)
    return abs(report.alpha_hat - 0.75), 2e-3


def _check_invert_two_mode_reference():
    problem, measurement = _two_mode_problem()
    report = invert_order(problem, measurement)
    return abs(report.alpha_hat - 0.5), 2e-3


CHECKS = (
    ("ml_exponential", _check_ml_exponential),
    ("ml_erfc_identity", _check_ml_erfc_identity),
    ("ml_derivative_fd", _check_ml_derivative_fd),
    ("endpoint_closed_forms", _check_endpoint_closed_forms),
    ("roundtrip_single_mode", _check_roundtrip_single_mode),
    ("roundtrip_two_mode", _check_roundtrip_two_mode),
    ("invert_single_mode_reference", _check_invert_single_mode_reference),
    ("invert_two_mode_reference", _check_invert_two_mode_reference),
)


def run_selfcheck():
    """Run every check; returns (lines, all_passed)."""
    lines = []
    all_passed = True
    for name, check in CHECKS:
        metric, tol = check()
        passed = metric <= tol
        all_passed = all_passed and passed
        status = "PASS" if passed else "FAIL"
        lines.append(f"{status} {name} metric={metric:.3e} tol={tol:.3e}")
    lines.append(f"{'PASS' if all_passed else 'FAIL'} overall "
                 f"{sum(1 for line in lines if line.startswith('PASS'))}/{len(CHECKS)} checks")
    return lines, all_passed
