"""Identification of the fractional order from one space-time measurement.

With finite-mode initial data the measured value d = u(x0, t1) turns the
identification into the scalar equation F(alpha) = d on (0, 1), where F is
the forward solution at the measurement point as a function of the order.
F is evaluated here together with its analytic derivative in alpha.  A
uniform scan, evaluated as one batch over its orders, finds the sign-change
brackets and reports whether the sampled curve is monotone (a verdict on the
samples, not a proof); a bisection iteration (optionally accelerated by
safeguarded Newton steps) refines each bracket to a root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, ConvergenceError, DomainError,
                     MaxIterationsError, NoRootError)
from .forward import _mode_terms, _solution_at_orders, evaluate_solution
from .special import ml_alpha_derivative

MONOTONE_VERIFIED = "verified"
MONOTONE_VIOLATED = "violated"

# |F'| below this counts as a vanishing derivative: the local-solvability
# hypothesis fails and the sensitivity is reported as infinite.
DERIVATIVE_FLOOR = 1e-14


@dataclass(frozen=True)
class Measurement:
    """One observation u(position, time) = value strictly inside the rod.

    `value` may be None while a configuration is only used for forward
    evaluation; every inverse operation requires it.
    """

    position: float
    time: float
    value: float | None = None


def _not_int(value):
    return isinstance(value, bool) or not isinstance(value, int)


@dataclass(frozen=True)
class InverseConfig:
    """Knobs of the order search; defaults match the documented contract."""

    alpha_lo: float = 1e-3
    alpha_hi: float = 1.0 - 1e-3
    root_tol: float = 1e-10
    scan_points: int = 99
    max_iters: int = 200
    use_newton: bool = True
    f_rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.alpha_lo < self.alpha_hi < 1.0):
            raise DomainError(
                f"InverseConfig: need 0 < alpha_lo < alpha_hi < 1, got "
                f"[{self.alpha_lo!r}, {self.alpha_hi!r}]")
        if _not_int(self.scan_points) or self.scan_points < 9:
            raise DomainError(f"InverseConfig: scan_points must be an integer >= 9, "
                              f"got {self.scan_points!r}")
        if not (self.root_tol > 0.0 and math.isfinite(self.root_tol)):
            raise DomainError(f"InverseConfig: root_tol must be positive, got {self.root_tol!r}")
        if _not_int(self.max_iters) or self.max_iters < 1:
            raise DomainError(f"InverseConfig: max_iters must be a positive integer, "
                              f"got {self.max_iters!r}")
        if not (1e-15 <= self.f_rel_tol <= 1e-3):
            raise DomainError(f"InverseConfig: f_rel_tol must lie in [1e-15, 1e-3], "
                              f"got {self.f_rel_tol!r}")


@dataclass(frozen=True)
class ModeTerm:
    """Sign data of one mode's contribution at the measurement point."""

    index: int
    amplitude: float
    basis_value: float

    @property
    def product(self):
        return self.amplitude * self.basis_value


@dataclass(frozen=True)
class UniquenessReport:
    holds: bool
    terms: tuple[ModeTerm, ...]


@dataclass(frozen=True)
class ScanResult:
    alphas: np.ndarray
    values: np.ndarray
    monotone: bool
    brackets: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class InversionReport:
    """Outcome of `invert_order`; `alpha_hat` is the first of `roots`.

    `derivative_at_root` and `sensitivity` (|1/F'|) are nan when F'(alpha_hat)
    cannot be certified (AccuracyError or ConvergenceError); the root stands.
    """

    alpha_hat: float
    residual: float
    derivative_at_root: float
    monotone: str
    uniqueness_hypothesis: bool
    sensitivity: float
    trace: tuple[tuple[int, float, float], ...]
    roots: tuple[float, ...]
    iterations: int

    @property
    def unique(self):
        return len(self.roots) == 1


def _check_measurement(problem, measurement, need_value=True):
    x0 = float(measurement.position)
    t1 = float(measurement.time)
    if not (math.isfinite(x0) and 0.0 < x0 < problem.length):
        raise DomainError(f"measurement position {x0!r} not inside (0, {problem.length})")
    if not (math.isfinite(t1) and 0.0 < t1 <= problem.time_horizon):
        raise DomainError(f"measurement time {t1!r} not inside (0, {problem.time_horizon}]")
    if need_value and measurement.value is None:
        raise DomainError("measurement carries no value; required for inverse operations")


def residual(problem, measurement, alpha, rel_tol=1e-10):
    """F(alpha) - d at the measurement point."""
    _check_measurement(problem, measurement)
    return (evaluate_solution(problem, alpha, measurement.position, measurement.time,
                              rel_tol=rel_tol)
            - float(measurement.value))


def residual_derivative(problem, measurement, alpha, rel_tol=1e-10):
    """dF/dalpha, summed mode-wise from the analytic order-derivative series."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"residual_derivative: need 0 < alpha < 1, got {alpha!r}")
    _check_measurement(problem, measurement, need_value=False)
    mode_tol = max(rel_tol / problem.n_modes, 1e-15)
    total = 0.0
    for amplitude, basis, rate in _mode_terms(problem, measurement.position):
        if basis == 0.0:
            continue
        total += amplitude * basis * ml_alpha_derivative(alpha, rate, measurement.time,
                                                         rel_tol=mode_tol)
    return total


def check_uniqueness_hypothesis(problem, measurement):
    """Strict positivity of every mode contribution at the measurement point.

    True when amplitude * sin(n*pi*x0/length) > 0 for every mode: the
    paper's sign hypothesis.  It does not make F monotone; at t1 = 1,
    1/Gamma(1 + alpha) peaks near alpha = 0.46 and F can meet d twice.  The
    scan's `monotone` verdict reports what was actually seen.
    """
    _check_measurement(problem, measurement, need_value=False)
    terms = tuple(ModeTerm(n, amplitude, basis) for (n, amplitude), (_, basis, _)
                  in zip(problem.modes, _mode_terms(problem, measurement.position)))
    return UniquenessReport(all(term.product > 0.0 for term in terms), terms)


def endpoint_values(problem, measurement):
    """Closed-form limits (F(0), F(1)) of the measurement curve.

    At alpha -> 0 each Mittag-Leffler factor tends to the geometric-series
    value 1/(1 + D*lambda_n); at alpha = 1 it is the plain exponential
    exp(-D*lambda_n*t1).
    """
    _check_measurement(problem, measurement, need_value=False)
    f0 = 0.0
    f1 = 0.0
    for amplitude, basis, rate in _mode_terms(problem, measurement.position):
        f0 += amplitude * basis / (1.0 + rate)
        f1 += amplitude * basis * math.exp(-rate * measurement.time)
    return f0, f1


def scan_bracket(problem, measurement, config=InverseConfig()):
    """Uniform residual scan: monotonicity verdict plus sign-change cells.

    The values equal `residual` at each scan order to the bit, refusals
    included, but all orders are evaluated in one batch.  An empty bracket
    tuple is a legal outcome meaning no root in range.
    """
    _check_measurement(problem, measurement)
    alphas = np.linspace(config.alpha_lo, config.alpha_hi, config.scan_points)
    values = (_solution_at_orders(problem, alphas, measurement.position, measurement.time,
                                  rel_tol=config.f_rel_tol)
              - float(measurement.value))
    diffs = np.diff(values)
    monotone = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))
    brackets = []
    for i in range(len(alphas) - 1):
        if values[i] == 0.0:
            brackets.append((float(alphas[i]), float(alphas[i])))
        elif values[i] * values[i + 1] < 0.0:
            brackets.append((float(alphas[i]), float(alphas[i + 1])))
    if values[-1] == 0.0:
        brackets.append((float(alphas[-1]), float(alphas[-1])))
    return ScanResult(alphas, values, monotone, tuple(brackets))


def _refine_root(f, fprime, lo, hi, f_lo, root_tol, max_iters, use_newton):
    """Bisection with optional safeguarded Newton steps on a sign bracket.

    Newton candidates are taken only strictly inside the current bracket,
    only while the step keeps shrinking, and at most twice in a row before
    a bisection is forced, so the bracket width decays geometrically and
    convergence to width root_tol is unconditional.
    Returns (root, trace, iterations).
    """
    if lo == hi:
        return lo, ((1, lo, f(lo)),), 1
    a, b = lo, hi
    positive_left = f_lo > 0.0
    x = 0.5 * (a + b)
    prev_step = b - a
    newton_streak = 0
    trace = []
    k = 0
    while b - a > root_tol:
        if k >= max_iters:
            raise MaxIterationsError(
                f"root refinement exceeded {max_iters} iterations "
                f"(bracket width {b - a:.3e})")
        k += 1
        fx = f(x)
        trace.append((k, x, fx))
        if fx == 0.0:
            return x, tuple(trace), k
        if (fx > 0.0) == positive_left:
            a = x
        else:
            b = x
        if b - a <= root_tol:
            break
        nxt = 0.5 * (a + b)
        took_newton = False
        if use_newton and newton_streak < 2:
            slope = 0.0
            try:
                slope = fprime(x)
            except (AccuracyError, ConvergenceError):
                pass
            if abs(slope) > DERIVATIVE_FLOOR:
                candidate = x - fx / slope
                if a < candidate < b and abs(candidate - x) <= 0.5 * prev_step:
                    nxt = candidate
                    took_newton = True
        newton_streak = newton_streak + 1 if took_newton else 0
        prev_step = abs(nxt - x) if nxt != x else 0.5 * (b - a)
        x = nxt
    return 0.5 * (a + b), tuple(trace), k


def invert_order(problem, measurement, config=InverseConfig()):
    """Recover the order from the measurement; see InversionReport.

    Raises NoRootError when the scan finds no sign change and
    MaxIterationsError when a bracket fails to shrink within the budget.
    Multiple brackets are all refined and reported, with `unique` False.
    """
    scan = scan_bracket(problem, measurement, config)
    if not scan.brackets:
        raise NoRootError(
            f"no root in range: F(alpha)-d has no sign change on "
            f"[{config.alpha_lo:g}, {config.alpha_hi:g}]")

    def f(a):
        return residual(problem, measurement, a, rel_tol=config.f_rel_tol)

    def fp(a):
        return residual_derivative(problem, measurement, a, rel_tol=config.f_rel_tol)

    roots = []
    first_trace = None
    iterations = 0
    for lo, hi in scan.brackets:
        root, trace, used = _refine_root(f, fp, lo, hi, f(lo), config.root_tol,
                                         config.max_iters, config.use_newton)
        roots.append(root)
        iterations += used
        if first_trace is None:
            first_trace = trace

    alpha_hat = roots[0]
    res = f(alpha_hat)
    try:
        slope = fp(alpha_hat)
    except (AccuracyError, ConvergenceError):
        slope = math.nan
    sensitivity = math.inf if abs(slope) < DERIVATIVE_FLOOR else 1.0 / abs(slope)
    return InversionReport(
        alpha_hat=alpha_hat,
        residual=res,
        derivative_at_root=slope,
        monotone=MONOTONE_VERIFIED if scan.monotone else MONOTONE_VIOLATED,
        uniqueness_hypothesis=check_uniqueness_hypothesis(problem, measurement).holds,
        sensitivity=sensitivity,
        trace=first_trace if first_trace is not None else (),
        roots=tuple(roots),
        iterations=iterations,
    )


def sensitivity_profile(problem, measurement, alphas, rel_tol=1e-10):
    """Rows (alpha, F(alpha), F'(alpha), |1/F'(alpha)|) for diagnostics."""
    _check_measurement(problem, measurement, need_value=False)
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        value = evaluate_solution(problem, alpha, measurement.position, measurement.time,
                                  rel_tol=rel_tol)
        slope = residual_derivative(problem, measurement, alpha, rel_tol=rel_tol)
        conditioning = math.inf if abs(slope) < DERIVATIVE_FLOOR else 1.0 / abs(slope)
        rows.append((alpha, value, slope, conditioning))
    return rows
