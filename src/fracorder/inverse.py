"""Identification of the fractional order from one space-time measurement.

With finite-mode initial data the measured value d = u(x0, t1) turns the
identification into the scalar equation F(alpha) = d on (0, 1), where F is
the forward solution at the measurement point as a function of the order.
F is evaluated here together with its analytic derivative in alpha.  A
uniform scan, evaluated as one batch over its orders, finds the sign-change
brackets and reports whether the sampled curve is monotone (a verdict on the
samples, not a proof).  A bracketed, safeguarded Newton iteration refines
each bracket to a root, starting from the scan's value at its left end: it
bisects instead when a Newton step leaves the bracket, stops shrinking or
would overrun the iteration budget set by root_tol, and ends when a step
falls below root_tol/2 or the bracket narrows to root_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, NoRootError
from .forward import (_finite_float, _mode_terms, _not_real, _solution_at_orders,
                      evaluate_solution)
from .special import REL_TOL_MAX, REL_TOL_MIN, ml_alpha_derivative

MONOTONE_VERIFIED = "verified"
MONOTONE_VIOLATED = "violated"

# |F'| below this counts as a vanishing derivative: the local-solvability
# hypothesis fails and the sensitivity is reported as infinite.
DERIVATIVE_FLOOR = 1e-14

# Neighbouring doubles in (0, 1) lie at most 2**-53 apart, so a bracket wider
# than this holds at least 9 of them and its midpoint lies strictly inside.
ROOT_TOL_MIN = 1e-15


@dataclass(frozen=True, slots=True)
class Measurement:
    """One observation u(position, time) = value strictly inside the rod.

    `value` may be None while a configuration is only used for forward
    evaluation; every inverse operation requires it.
    """

    position: float
    time: float
    value: float | None = None


@dataclass(frozen=True)
class InverseConfig:
    """Knobs of the order search; defaults match the documented contract.

    `f_rel_tol` is the relative accuracy asked of F(alpha); each mode's
    Mittag-Leffler factor is asked for `f_rel_tol / n_modes`.  A request
    below the power series' round-off floor, `6*EPS*sum|term|` relative to
    the factor, at any scanned or refined order raises `AccuracyError`.  The
    floor grows with |z| = D lambda_n t1**alpha, so it is highest at
    `alpha_hi`: the bundled two-mode config is refused at 2e-11 and accepted
    at 3e-11.  `root_tol` ends the refinement of a bracket once a Newton step
    is below root_tol/2 or the bracket is at most root_tol wide, within
    3*ceil(log2(cell / root_tol)) iterations for a scan cell of width `cell`
    (rounded midpoints can add one); it may not go below ROOT_TOL_MIN = 1e-15.
    """

    alpha_lo: float = 1e-3
    alpha_hi: float = 1.0 - 1e-3
    root_tol: float = 1e-10
    scan_points: int = 99
    f_rel_tol: float = 1e-10

    def __post_init__(self):
        for name in ("alpha_lo", "alpha_hi", "root_tol", "f_rel_tol"):
            value = getattr(self, name)
            if _not_real(value):
                raise DomainError(f"InverseConfig: {name} must be a real number, got {value!r}")
        if not (0.0 < self.alpha_lo < self.alpha_hi < 1.0):
            raise DomainError(
                f"InverseConfig: need 0 < alpha_lo < alpha_hi < 1, got "
                f"[{self.alpha_lo!r}, {self.alpha_hi!r}]")
        if (isinstance(self.scan_points, bool) or not isinstance(self.scan_points, int)
                or self.scan_points < 9):
            raise DomainError(f"InverseConfig: scan_points must be an integer >= 9, "
                              f"got {self.scan_points!r}")
        if not ROOT_TOL_MIN <= self.root_tol < math.inf:
            raise DomainError(f"InverseConfig: root_tol must be finite and at least "
                              f"{ROOT_TOL_MIN}, got {self.root_tol!r}")
        if not REL_TOL_MIN <= self.f_rel_tol <= REL_TOL_MAX:
            raise DomainError(f"InverseConfig: f_rel_tol must lie in "
                              f"[{REL_TOL_MIN}, {REL_TOL_MAX}], got {self.f_rel_tol!r}")


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
    cannot be certified (AccuracyError); the root stands.
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


def _field_error(name, raw, reason):
    """DomainError for measurement field `name`: a type refusal for a bool or
    non-real `raw`, else `reason`."""
    if _not_real(raw):
        return DomainError(f"measurement {name} must be a real number, got {raw!r}")
    return DomainError(f"measurement {name} {raw!r} {reason}")


def _check_measurement(problem, measurement, need_value=True):
    x0 = _finite_float(measurement.position)
    if x0 is None or not 0.0 < x0 < problem.length:
        raise _field_error("position", measurement.position, f"not inside (0, {problem.length})")
    t1 = _finite_float(measurement.time)
    if t1 is None or not 0.0 < t1 <= problem.time_horizon:
        raise _field_error("time", measurement.time, f"not inside (0, {problem.time_horizon}]")
    value = measurement.value
    if value is None:
        if need_value:
            raise DomainError("measurement carries no value; required for inverse operations")
    elif _finite_float(value) is None and (need_value or _not_real(value)):
        raise _field_error("value", value, "is not finite")


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
    mode_tol = max(rel_tol / problem.n_modes, REL_TOL_MIN)
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


def _refine_root(f, fprime, lo, hi, f_lo, root_tol):
    """Bracketed, safeguarded Newton iteration on a sign bracket [lo, hi],
    f(lo) = f_lo (rtsafe, Press et al., Numerical Recipes, section 9.4).

    Each iteration evaluates f at the iterate, keeps the side of the bracket
    that holds the sign change, and forms the Newton candidate from fprime
    there.  The search stops when the candidate lies in the bracket and its
    step is below root_tol/2, returning the candidate, or when the bracket is
    at most root_tol wide, returning its midpoint.  Otherwise the candidate
    becomes the next iterate when it lies strictly inside the bracket, its
    step is at most half the step before last, and enough of the budget of
    3*ceil(log2((hi - lo) / root_tol)) iterations remains to bisect the
    bracket down to root_tol afterwards; else the bracket midpoint does.  So
    the search takes at most that many iterations; rounded midpoints can add
    one.  `InverseConfig` keeps root_tol >= ROOT_TOL_MIN, where a midpoint
    still lies strictly inside the bracket, so the loop always ends.
    Returns (root, trace, iterations).
    """
    if lo == hi:
        return lo, ((1, lo, f_lo),), 1
    a, b = lo, hi
    positive_left = f_lo > 0.0
    budget = 3 * math.ceil(math.log2((b - a) / root_tol))
    x = 0.5 * (a + b)
    step_before_last = step = b - a
    trace = []
    k = 0
    while b - a > root_tol:
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
        slope = 0.0
        try:
            slope = fprime(x)
        except AccuracyError:
            pass
        if abs(slope) > DERIVATIVE_FLOOR:
            candidate = x - fx / slope
            newton_step = abs(candidate - x)
            if newton_step < 0.5 * root_tol and a <= candidate <= b:
                return candidate, tuple(trace), k
            if (a < candidate < b and newton_step <= 0.5 * step_before_last
                    and k + 1 + math.ceil(math.log2((b - a) / root_tol)) <= budget):
                nxt = candidate
        step_before_last, step = step, abs(nxt - x)
        x = nxt
    return 0.5 * (a + b), tuple(trace), k


def _slope_and_sensitivity(problem, measurement, alpha, rel_tol):
    """(F'(alpha), |1/F'(alpha)|), both nan when F'(alpha) cannot be
    certified (AccuracyError)."""
    try:
        slope = residual_derivative(problem, measurement, alpha, rel_tol=rel_tol)
    except AccuracyError:
        return math.nan, math.nan
    return slope, math.inf if abs(slope) < DERIVATIVE_FLOOR else 1.0 / abs(slope)


def invert_order(problem, measurement, config=InverseConfig()):
    """Recover the order from the measurement; see InversionReport.

    Raises NoRootError when the scan finds no sign change.  Multiple
    brackets are all refined and reported, with `unique` False.
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

    # the scan's values are f's bits at its orders: each bracket's left end
    # needs no new evaluation
    scanned = dict(zip(scan.alphas.tolist(), scan.values.tolist()))
    refined = [_refine_root(f, fp, lo, hi, scanned[lo], config.root_tol)
               for lo, hi in scan.brackets]
    alpha_hat = refined[0][0]
    res = f(alpha_hat)
    slope, sensitivity = _slope_and_sensitivity(problem, measurement, alpha_hat,
                                                config.f_rel_tol)
    return InversionReport(
        alpha_hat=alpha_hat,
        residual=res,
        derivative_at_root=slope,
        monotone=MONOTONE_VERIFIED if scan.monotone else MONOTONE_VIOLATED,
        uniqueness_hypothesis=check_uniqueness_hypothesis(problem, measurement).holds,
        sensitivity=sensitivity,
        trace=refined[0][1],
        roots=tuple(root for root, _, _ in refined),
        iterations=sum(used for _, _, used in refined),
    )


def sensitivity_profile(problem, measurement, alphas, rel_tol=1e-10):
    """Rows (alpha, F(alpha), F'(alpha), |1/F'(alpha)|) for diagnostics.

    As in `InversionReport`, the last two are nan at an order where F'
    cannot be certified; the row and the rest of the profile stand.
    """
    _check_measurement(problem, measurement, need_value=False)
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        value = evaluate_solution(problem, alpha, measurement.position, measurement.time,
                                  rel_tol=rel_tol)
        rows.append((alpha, value,
                     *_slope_and_sensitivity(problem, measurement, alpha, rel_tol)))
    return rows
