"""Forward problem: 1-D subdiffusion on an interval with Dirichlet walls.

The state is represented spectrally.  Initial data carries finitely many
sine modes, and each mode n decays in time through the Mittag-Leffler
factor E_alpha(-D * lambda_n * t**alpha) with lambda_n = (n*pi/length)**2,
so evaluation at a point is a short weighted sum of special-function calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import _mittag_leffler_lanes, mittag_leffler, sinpi


@dataclass(frozen=True)
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
    Raises DomainError for nonpositive diffusivity/length/horizon, a
    repeated mode index, a nonpositive or non-integer index, or an empty
    mode list after stripping zeros.
    """
    diffusivity = float(diffusivity)
    length = float(length)
    time_horizon = float(time_horizon)
    if not (math.isfinite(diffusivity) and diffusivity > 0.0):
        raise DomainError(f"make_problem: diffusivity must be positive, got {diffusivity!r}")
    if not (math.isfinite(length) and length > 0.0):
        raise DomainError(f"make_problem: length must be positive, got {length!r}")
    if not (math.isfinite(time_horizon) and time_horizon > 0.0):
        raise DomainError(f"make_problem: time_horizon must be positive, got {time_horizon!r}")

    cleaned = []
    for entry in modes:
        try:
            n, amplitude = entry
        except (TypeError, ValueError):
            raise DomainError(f"make_problem: mode entries must be (index, amplitude) pairs, got {entry!r}")
        if int(n) != n or int(n) < 1:
            raise DomainError(f"make_problem: mode index must be a positive integer, got {n!r}")
        amplitude = float(amplitude)
        if not math.isfinite(amplitude):
            raise DomainError(f"make_problem: mode amplitude must be finite, got {amplitude!r}")
        if amplitude != 0.0:
            cleaned.append((int(n), amplitude))

    if not cleaned:
        raise DomainError("make_problem: no nonzero modes remain")
    cleaned.sort(key=lambda pair: pair[0])
    for (n1, _), (n2, _) in zip(cleaned, cleaned[1:]):
        if n1 == n2:
            raise DomainError(f"make_problem: duplicate mode index {n1}")
    return ForwardProblem(diffusivity, length, tuple(cleaned), time_horizon)


def eigenvalue(problem, n):
    """n-th Dirichlet eigenvalue of -d2/dx2 on (0, length): (n*pi/length)**2."""
    if int(n) != n or int(n) < 1:
        raise DomainError(f"eigenvalue: need a positive integer index, got {n!r}")
    return (n * math.pi / problem.length) ** 2


def _mode_terms(problem, x):
    """(a_n, sin(n*pi*x/length), D*lambda_n) for every mode at position x: the
    terms read by the forward sum, F', the endpoints and the sign hypothesis."""
    return [(amplitude, sinpi(n * (x / problem.length)),
             problem.diffusivity * eigenvalue(problem, n))
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
    mode_tol = max(rel_tol / problem.n_modes, 1e-15)
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
    calls to the bit, with all Mittag-Leffler factors in one batch."""
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
            raise DomainError(f"_solution_at_orders: need 0 < alpha <= 1, got {alpha!r}")
    x, t = _check_point(problem, x, t)
    mode_tol = max(rel_tol / problem.n_modes, 1e-15)
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
    if int(n) != n or int(n) < 1:
        raise DomainError(f"sine_coefficient: need a positive integer index, got {n!r}")
    length = float(xs[-1])
    if not (xs[0] == 0.0 and length > 0.0):
        raise DomainError("sine_coefficient: grid must start at 0 and end at the interval length")
    steps = np.diff(xs)
    h = length / (xs.size - 1)
    if steps.min() <= 0.0 or abs(steps - h).max() > 1e-9 * h:
        raise DomainError("sine_coefficient: grid must be uniformly spaced and increasing")
    integrand = fs * np.sin(n * np.pi * xs / length)
    return float(2.0 / length * np.trapezoid(integrand, dx=h))
