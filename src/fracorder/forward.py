"""Forward problem: 1-D subdiffusion on an interval with Dirichlet walls.

The state is represented spectrally.  Initial data carries finitely many
sine modes, and each mode n decays in time through the Mittag-Leffler
factor E_alpha(-D * lambda_n * t**alpha) with lambda_n = (n*pi/length)**2,
so evaluation at a point is a short weighted sum of special-function calls.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import REL_TOL_MIN, _mittag_leffler_lanes, mittag_leffler, sinpi


@dataclass(frozen=True, slots=True)
class ForwardProblem:
    """Validated, canonical description of one initial-boundary value problem.

    `modes` holds (index, amplitude) pairs, strictly ascending in index,
    with every amplitude nonzero.  Construct through `make_problem`, which
    canonicalizes raw input.
    """

    diffusivity: float
    length: float
    modes: tuple[tuple[int, float], ...]
    time_horizon: float

    @property
    def n_modes(self):
        return len(self.modes)


def make_problem(diffusivity, length, modes, time_horizon):
    """Build a ForwardProblem from raw inputs.

    Zero-amplitude modes are stripped; the rest are sorted by index.
    Raises DomainError for a diffusivity, length or horizon that is not a
    positive real, `modes` that is not a list or tuple, a repeated mode
    index, an index that is not a positive integer, an amplitude that is not
    a finite real, a nonzero mode whose rate D*(n*pi/length)**2 is not a
    finite double, or no nonzero mode.
    """
    scalars = []
    for name, value in (("diffusivity", diffusivity), ("length", length),
                        ("time_horizon", time_horizon)):
        number = _finite_float(value)
        if number is None or number <= 0.0:
            raise DomainError(f"make_problem: {name} must be a positive real number, "
                              f"got {value!r}")
        scalars.append(number)
    diffusivity, length, time_horizon = scalars
    if not isinstance(modes, (list, tuple)):
        raise DomainError(f"make_problem: modes must be a list or tuple of "
                          f"(index, amplitude) pairs, got {modes!r}")

    cleaned = []
    for entry in modes:
        try:
            n, amplitude = entry
        except (TypeError, ValueError):
            raise DomainError(f"make_problem: mode entries must be (index, amplitude) pairs, got {entry!r}")
        n = _mode_index(n, f"make_problem: mode entry {entry!r}")
        amplitude = _finite_float(amplitude)
        if amplitude is None:
            raise DomainError(f"make_problem: mode entry {entry!r} needs a finite real amplitude")
        if amplitude != 0.0:
            try:
                rate = _mode_rate(diffusivity, length, n)
            except OverflowError:  # n*pi or its square past the double range
                rate = math.inf
            if not math.isfinite(rate):
                raise DomainError(f"make_problem: mode entry {entry!r}: the rate "
                                  f"D*(n*pi/length)**2 lies past the double range")
            # an entry that already is the canonical pair is shared, not copied
            cleaned.append(entry if type(entry) is tuple and entry[0] is n
                           and entry[1] is amplitude else (n, amplitude))

    if not cleaned:
        raise DomainError("make_problem: no nonzero modes remain")
    cleaned.sort(key=lambda pair: pair[0])
    for (n1, _), (n2, _) in zip(cleaned, cleaned[1:]):
        if n1 == n2:
            raise DomainError(f"make_problem: duplicate mode index {n1}")
    pairs = tuple(cleaned)
    if type(modes) is tuple and len(modes) == len(pairs) and all(map(operator.is_, modes, pairs)):
        pairs = modes
    return ForwardProblem(diffusivity, length, pairs, time_horizon)


def _not_real(value):
    return isinstance(value, bool) or not isinstance(value, numbers.Real)


def _finite_float(value):
    """`value` as a float, or None for a bool, a non-real, a number past the
    double range, nan or inf."""
    if type(value) is not float:  # a plain float skips the slow abstract-class check
        if _not_real(value):
            return None
        try:
            value = float(value)
        except OverflowError:
            return None
    return value if math.isfinite(value) else None


def _mode_index(n, where):
    """`n` as an int; DomainError naming `where` unless `n` is a positive
    integer (2.0 and numpy integers are; a bool, nan or inf is not)."""
    try:
        if not isinstance(n, bool) and n >= 1 and n == int(n):
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{where}: need a positive integer index, got {n!r}")


def _mode_rate(diffusivity, length, n):
    """D*lambda_n, with the Dirichlet eigenvalue lambda_n = (n*pi/length)**2."""
    return diffusivity * (n * math.pi / length) ** 2


def _mode_terms(problem, x):
    """(a_n, sin(n*pi*x/length), D*lambda_n) for every mode at position x: the
    terms read by the forward sum, F', the endpoints and the sign hypothesis."""
    return [(amplitude, sinpi(n * (x / problem.length)),
             _mode_rate(problem.diffusivity, problem.length, n))
            for n, amplitude in problem.modes]


def _check_point(problem, x, t):
    x = float(x)
    t = float(t)
    if not (math.isfinite(x) and 0.0 <= x <= problem.length):
        raise DomainError(f"x={x!r} outside [0, {problem.length}]")
    if not (math.isfinite(t) and 0.0 < t <= problem.time_horizon):
        raise DomainError(f"t={t!r} outside (0, {problem.time_horizon}]")
    return x, t


def evaluate_solution(problem, alpha, x, t, rel_tol=1e-10):
    """Solution value u(x, t) for order alpha in (0, 1].

    Sums amplitude * E_alpha(-D*lambda_n*t**alpha) * sin(n*pi*x/length)
    over the problem's modes, each Mittag-Leffler factor evaluated at
    rel_tol / n_modes.  Exactly zero on the boundary x in {0, length}.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise DomainError(f"evaluate_solution: need 0 < alpha <= 1, got {alpha!r}")
    x, t = _check_point(problem, x, t)
    mode_tol = max(rel_tol / problem.n_modes, REL_TOL_MIN)
    ta = t**alpha
    total = 0.0
    for amplitude, basis, rate in _mode_terms(problem, x):
        if basis == 0.0:
            continue
        decay = mittag_leffler(alpha, -rate * ta, rel_tol=mode_tol)
        total += amplitude * decay * basis
    return total


def _solution_at_orders(problem, alphas, x, t, rel_tol=1e-10):
    """u(x, t) for every order in `alphas`, equal to the `evaluate_solution`
    calls to the bit, with all Mittag-Leffler factors in one batch; the
    orders come unchecked from a validated `InverseConfig`."""
    alphas = [float(alpha) for alpha in alphas]
    x, t = _check_point(problem, x, t)
    mode_tol = max(rel_tol / problem.n_modes, REL_TOL_MIN)
    terms = [term for term in _mode_terms(problem, x) if term[1] != 0.0]
    ta = np.array([t**alpha for alpha in alphas])
    rates = np.array([rate for _, _, rate in terms])
    # lanes run order-major, mode-minor: the pointwise calls' order
    decays = _mittag_leffler_lanes(np.repeat(alphas, len(terms)),
                                   np.multiply.outer(ta, -rates).ravel(),
                                   mode_tol).reshape(len(alphas), len(terms))
    total = np.zeros(len(alphas))
    for m, (amplitude, basis, _) in enumerate(terms):
        total += amplitude * decays[:, m] * basis
    return total


def evaluate_solution_grid(problem, alpha, xs, ts, rel_tol=1e-10):
    """Matrix of u(xs[i], ts[j]); identical to the pointwise calls."""
    xs = [float(x) for x in xs]
    ts = [float(t) for t in ts]
    if not xs:
        raise DomainError("evaluate_solution_grid: empty x grid")
    if not ts:
        raise DomainError("evaluate_solution_grid: empty t grid")
    out = np.empty((len(xs), len(ts)))
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            out[i, j] = evaluate_solution(problem, alpha, x, t, rel_tol=rel_tol)
    return out


def sine_coefficient(xs, fs, n):
    """Sine-mode coefficient of sampled initial data by composite trapezoid.

    `xs` must be a uniform grid from 0 to the interval length with at least
    64 samples including both endpoints; `fs` are the matching samples.
    Returns (2/length) * trapz(f(x) * sin(n*pi*x/length)).  Accuracy is the
    usual O(h^2) of the trapezoid rule, better for smooth periodic data.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or fs.ndim != 1 or xs.size != fs.size:
        raise DomainError("sine_coefficient: xs and fs must be 1-D arrays of equal length")
    if xs.size < 64:
        raise DomainError(f"sine_coefficient: need at least 64 samples, got {xs.size}")
    _mode_index(n, "sine_coefficient")
    length = float(xs[-1])
    if not (xs[0] == 0.0 and length > 0.0):
        raise DomainError("sine_coefficient: grid must start at 0 and end at the interval length")
    steps = np.diff(xs)
    h = length / (xs.size - 1)
    if steps.min() <= 0.0 or abs(steps - h).max() > 1e-9 * h:
        raise DomainError("sine_coefficient: grid must be uniformly spaced and increasing")
    integrand = fs * np.sin(n * np.pi * xs / length)
    return float(2.0 / length * np.trapezoid(integrand, dx=h))
