"""Forward problem: 1-D subdiffusion on an interval with Dirichlet walls.

The state is represented spectrally.  Initial data carries finitely many
sine modes, and each mode n decays in time through the Mittag-Leffler
factor E_alpha(-D * lambda_n * t**alpha) with lambda_n = (n*pi/length)**2,
so evaluation at a point is a short weighted sum of special-function calls.
That sum, F, and its order derivative F' are written once, as `_solution`
and `_slope` over the terms `_mode_terms` of one point; the public functions
here and in `inverse` check their inputs once, then call them.  Only
`evaluate_solution_grid` and `sine_coefficient` import numpy, when called.
"""

import math
import operator
from collections import namedtuple

from .errors import DomainError, _shown
from .special import (REL_TOL_MIN, _check_rel_tol, _finite_float, _mittag_leffler,
                      _ml_alpha_derivative, _real, sinpi)


class ForwardProblem(namedtuple("ForwardProblem", "diffusivity length modes time_horizon")):
    """Validated, canonical description of one initial-boundary value problem.

    `diffusivity`, `length` and `time_horizon` are positive floats; `modes`
    holds (index, amplitude) pairs, strictly ascending in index, with every
    amplitude nonzero.  Construct through `make_problem`, which canonicalizes
    raw input.
    """

    __slots__ = ()

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
    finite double, amplitudes whose absolute sum is not a finite double, or
    no nonzero mode.
    """
    scalars = []
    for name, value in (("diffusivity", diffusivity), ("length", length),
                        ("time_horizon", time_horizon)):
        number = _finite_float(value)
        if number is None or number <= 0.0:
            raise DomainError(f"make_problem: {name} must be a positive real number, "
                              f"got {_shown(value)}")
        scalars.append(number)
    diffusivity, length, time_horizon = scalars
    if not isinstance(modes, (list, tuple)):
        raise DomainError(f"make_problem: modes must be a list or tuple of "
                          f"(index, amplitude) pairs, got {_shown(modes)}")

    cleaned = []
    for entry in modes:
        try:
            n, amplitude = entry
        except (TypeError, ValueError):
            raise DomainError(f"make_problem: mode entries must be (index, amplitude) pairs, got {_shown(entry)}")
        n = _mode_index(n, f"make_problem: mode entry {_shown(entry)}")
        amplitude = _finite_float(amplitude)
        if amplitude is None:
            raise DomainError(f"make_problem: mode entry {_shown(entry)} needs a finite real amplitude")
        if amplitude != 0.0:
            try:
                rate = _mode_rate(diffusivity, length, n)
            except OverflowError:  # n*pi or its square past the double range
                rate = math.inf
            if not math.isfinite(rate):
                raise DomainError(f"make_problem: mode entry {_shown(entry)}: the rate "
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
    # |E| <= 1 and |sin| <= 1, so a finite sum of |a_n| keeps every F finite
    if not math.isfinite(sum(abs(amplitude) for _, amplitude in cleaned)):
        raise DomainError(f"make_problem: the amplitudes of modes "
                          f"{', '.join(str(n) for n, _ in cleaned)} sum past the double range")
    pairs = tuple(cleaned)
    if type(modes) is tuple and len(modes) == len(pairs) and all(map(operator.is_, modes, pairs)):
        pairs = modes
    return ForwardProblem(diffusivity, length, pairs, time_horizon)


def _mode_index(n, where):
    """`n` as an int; DomainError naming `where` unless `n` is a positive
    integer (2.0 and numpy integers are; a bool, nan or inf is not)."""
    try:
        if not isinstance(n, bool) and n >= 1 and n == int(n):
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{where}: need a positive integer index, got {_shown(n)}")


def _mode_rate(diffusivity, length, n):
    """D*lambda_n, with the Dirichlet eigenvalue lambda_n = (n*pi/length)**2."""
    return diffusivity * (n * math.pi / length) ** 2


def _mode_terms(problem, x):
    """(a_n, sin(n*pi*x/length), D*lambda_n) for every mode at position x: the
    terms read by `_solution`, `_slope`, the endpoints and the sign hypothesis."""
    return [(amplitude, sinpi(n * (x / problem.length)),
             _mode_rate(problem.diffusivity, problem.length, n))
            for n, amplitude in problem.modes]


def _mode_tol(problem, rel_tol, name):
    """max(rel_tol / n_modes, REL_TOL_MIN) for each mode's factor; DomainError
    naming `name` unless rel_tol is a real in [REL_TOL_MIN, REL_TOL_MAX]."""
    rel_tol = _real(rel_tol, name)
    _check_rel_tol(rel_tol, name)
    return max(rel_tol / problem.n_modes, REL_TOL_MIN)


def _solution(terms, alpha, t, mode_tol):
    """F: u(x, t) from the `_mode_terms` of x, summing amplitude * E * basis
    in mode order through the unchecked core; callers check the inputs."""
    ta = t**alpha
    total = 0.0
    for amplitude, basis, rate in terms:
        if basis != 0.0:
            total += amplitude * _mittag_leffler(alpha, -rate * ta, mode_tol) * basis
    return total


def _slope(terms, alpha, t, mode_tol):
    """F': d/dalpha of `_solution` for 0 < alpha < 1, summing amplitude *
    basis * d/dalpha E in mode order through the unchecked core."""
    total = 0.0
    for amplitude, basis, rate in terms:
        if basis != 0.0:
            total += amplitude * basis * _ml_alpha_derivative(alpha, rate, t, mode_tol)
    return total


def _order(alpha, name, below_one=False):
    """`alpha` as a float; DomainError naming `name` outside (0, 1], or (0, 1) if `below_one`."""
    alpha = _real(alpha, f"{name}: alpha")
    if not (0.0 < alpha < 1.0 or alpha == 1.0 and not below_one):
        raise DomainError(f"{name}: need 0 < alpha {'<' if below_one else '<='} 1, got {alpha!r}")
    return alpha


def _check_point(problem, x, t):
    if not (math.isfinite(x) and 0.0 <= x <= problem.length):
        raise DomainError(f"x={x!r} outside [0, {problem.length}]")
    if not (math.isfinite(t) and 0.0 < t <= problem.time_horizon):
        raise DomainError(f"t={t!r} outside (0, {problem.time_horizon}]")


def evaluate_solution(problem, alpha, x, t, rel_tol=1e-10):
    """Solution value u(x, t) for order alpha in (0, 1].

    Sums amplitude * E_alpha(-D*lambda_n*t**alpha) * sin(n*pi*x/length)
    over the problem's modes, each Mittag-Leffler factor evaluated at
    rel_tol / n_modes (at least REL_TOL_MIN); rel_tol must lie in
    [REL_TOL_MIN, REL_TOL_MAX].  Exactly zero on the boundary x in {0, length}.
    """
    alpha = _order(alpha, "evaluate_solution")
    x, t = _real(x, "evaluate_solution: x"), _real(t, "evaluate_solution: t")
    _check_point(problem, x, t)
    mode_tol = _mode_tol(problem, rel_tol, "evaluate_solution: rel_tol")
    return _solution(_mode_terms(problem, x), alpha, t, mode_tol)


def evaluate_solution_grid(problem, alpha, xs, ts, rel_tol=1e-10):
    """numpy matrix of u(xs[i], ts[j]); identical to the pointwise calls."""
    import numpy as np

    xs = [_real(x, "evaluate_solution_grid: x") for x in xs]
    ts = [_real(t, "evaluate_solution_grid: t") for t in ts]
    if not xs:
        raise DomainError("evaluate_solution_grid: empty x grid")
    if not ts:
        raise DomainError("evaluate_solution_grid: empty t grid")
    # refused in the pointwise calls' order: alpha, x0, t0, rel_tol, the ts, the xs
    alpha = _order(alpha, "evaluate_solution")
    _check_point(problem, xs[0], ts[0])
    mode_tol = _mode_tol(problem, rel_tol, "evaluate_solution: rel_tol")
    for x, t in [(xs[0], t) for t in ts] + [(x, ts[0]) for x in xs]:
        _check_point(problem, x, t)
    rows = [_mode_terms(problem, x) for x in xs]
    return np.array([[_solution(terms, alpha, t, mode_tol) for t in ts] for terms in rows])


def sine_coefficient(xs, fs, n):
    """Sine-mode coefficient of sampled initial data by composite trapezoid.

    `xs` must be a uniform grid from 0 to the interval length with at least
    64 samples including both endpoints; `fs` are the matching samples.
    Returns (2/length) * trapz(f(x) * sin(n*pi*x/length)).  Accuracy is the
    usual O(h^2) of the trapezoid rule, better for smooth periodic data.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or fs.ndim != 1 or xs.size != fs.size:
        raise DomainError("sine_coefficient: xs and fs must be 1-D arrays of equal length")
    if xs.size < 64:
        raise DomainError(f"sine_coefficient: need at least 64 samples, got {xs.size}")
    n = _mode_index(n, "sine_coefficient")
    try:
        frequency = n * math.pi
    except OverflowError:  # an int index past the double range
        frequency = math.inf
    if not math.isfinite(frequency):
        raise DomainError(f"sine_coefficient: index {_shown(n)}: n*pi lies past the double range")
    length = float(xs[-1])
    if not (xs[0] == 0.0 and length > 0.0):
        raise DomainError("sine_coefficient: grid must start at 0 and end at the interval length")
    steps = np.diff(xs)
    h = length / (xs.size - 1)
    if steps.min() <= 0.0 or abs(steps - h).max() > 1e-9 * h:
        raise DomainError("sine_coefficient: grid must be uniformly spaced and increasing")
    integrand = fs * np.sin(n * np.pi * xs / length)
    return float(2.0 / length * np.trapezoid(integrand, dx=h))
