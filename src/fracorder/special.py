"""Real-axis special functions used by the diffusion solver.

Gamma, digamma and log-Gamma ratios are thin validated wrappers around
scipy.special.  The one-parameter Mittag-Leffler function E_a(z) and the
derivative of a -> E_a(-c t^a) are evaluated by adaptively truncated series
with certified error estimates; on the negative real axis the power series
and the algebraic tail expansion are combined, switching on the size of
|z|**(1/a), which controls both the power-series cancellation (grows like
exp(|z|**(1/a))) and the tail-expansion accuracy (shrinks like the same
exponential).
"""

from __future__ import annotations

import math

from scipy.special import gamma as _sc_gamma
from scipy.special import gammaln as _sc_gammaln
from scipy.special import psi as _sc_psi

from .errors import AccuracyError, ConvergenceError, DomainError

_EPS = 2.220446049250313e-16
_LOG_PI = math.log(math.pi)

REL_TOL_MIN = 1e-15
REL_TOL_MAX = 1e-3
Z_MAX_DEFAULT = 5.0

TAYLOR_MAX_TERMS = 500
ASYM_MAX_TERMS = 400
DERIV_MAX_TERMS = 1000

# Branch thresholds on s = |z|**(1/alpha).  Below _S_TAYLOR_ONLY the power
# series alone is reliable; above _S_ASYM_ONLY it is hopeless in doubles and
# the tail expansion is excellent; in between, both are evaluated and the
# certified error estimates pick the winner (and cross-check each other).
_S_TAYLOR_ONLY = 14.0
_S_ASYM_ONLY = 30.0


def _require(cond, message):
    if not cond:
        raise DomainError(message)


def sinpi(u):
    """sin(pi*u), exact 0.0 at integer u and exactly +-1 at half-integers."""
    u = float(u)
    _require(math.isfinite(u), f"sinpi: argument must be finite, got {u!r}")
    n = math.floor(u)
    r = u - n  # exact, in [0, 1)
    if r == 0.0:
        return 0.0
    if r == 0.5:
        s = 1.0
    elif r < 0.5:
        s = math.sin(math.pi * r)
    else:
        s = math.sin(math.pi * (1.0 - r))  # 1-r is exact for r in (0.5, 1)
    return -s if (n & 1) else s


def gamma_fn(x):
    """Gamma(x) for real x > 0."""
    x = float(x)
    _require(math.isfinite(x) and x > 0.0, f"gamma_fn: need x > 0, got {x!r}")
    value = float(_sc_gamma(x))
    if math.isinf(value):
        raise OverflowError(f"gamma_fn: Gamma({x}) exceeds the double range")
    return value


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for real x > 0."""
    x = float(x)
    _require(math.isfinite(x) and x > 0.0, f"digamma: need x > 0, got {x!r}")
    return float(_sc_psi(x))


def gamma_ratio(alpha, j):
    """Gamma(alpha*j) / Gamma(alpha*j + alpha), via log-Gamma differences.

    Stable for j up to 10^4 and beyond, where direct Gamma quotients would
    overflow.  Decays to zero like (alpha*j + alpha)**(-alpha) as j grows.
    """
    alpha = float(alpha)
    j = int(j)
    _require(j >= 1, f"gamma_ratio: need a positive integer index, got {j!r}")
    _require(math.isfinite(alpha) and alpha * j > 0.0,
             f"gamma_ratio: need alpha*j > 0, got alpha={alpha!r}, j={j}")
    return math.exp(float(_sc_gammaln(alpha * j)) - float(_sc_gammaln(alpha * j + alpha)))


def _reciprocal_gamma_log(s):
    """(sign, log magnitude) of 1/Gamma(1 - s) for s > 0, by reflection."""
    sp = sinpi(s)
    if sp == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, sp), float(_sc_gammaln(s)) + math.log(abs(sp)) - _LOG_PI


def _ml_power_series(alpha, z, rel_tol):
    """Taylor sum of E_alpha(z) with compensated summation.

    Returns (value, abs_error_estimate, converged).  The error estimate
    covers truncation plus round-off amplified by cancellation, measured a
    posteriori via the running sum of |term|.  Truncation stops at an
    internal threshold of rel_tol/8 so the certified total stays below the
    requested rel_tol with headroom.
    """
    threshold = 0.125 * rel_tol
    total = 1.0  # j = 0 term; Gamma(1) = 1
    comp = 0.0
    abs_sum = 1.0
    zpow = 1.0
    small_run = 0
    tail = 0.0
    log_abs_z = math.log(abs(z))
    for j in range(1, TAYLOR_MAX_TERMS + 1):
        g = alpha * j + 1.0
        zpow *= z
        if g <= 170.0 and math.isfinite(zpow):
            term = zpow / float(_sc_gamma(g))
        else:
            magnitude = math.exp(j * log_abs_z - float(_sc_gammaln(g)))
            term = -magnitude if (z < 0.0 and j & 1) else magnitude
        # Kahan step
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        if abs(term) <= threshold * max(abs(total), 1e-300):
            small_run += 1
            tail = max(tail, abs(term))
            if small_run == 3:
                err = 2.0 * tail + 6.0 * _EPS * abs_sum
                return total + comp, err, True
        else:
            small_run = 0
            tail = 0.0
    return total + comp, math.inf, False


def _ml_algebraic_tail(alpha, x, rel_tol):
    """Algebraic tail expansion of E_alpha(-x) for x > 0, 0 < alpha < 1:

        E_alpha(-x) ~ sum_{k>=1} (-1)**(k+1) x**(-k) / Gamma(1 - alpha*k)

    truncated at the smallest-envelope term.  Returns the same triple as
    the power series; `converged` is False when no useful truncation point
    exists (envelope grows from the start, i.e. x too small).
    """
    threshold = 0.125 * rel_tol
    log_x = math.log(x)
    total = 0.0
    comp = 0.0
    abs_sum = 0.0
    env_min = math.inf
    small_run = 0
    n_used = 0
    for k in range(1, ASYM_MAX_TERMS + 1):
        s = alpha * k
        sign, log_mag = _reciprocal_gamma_log(s)
        log_env = float(_sc_gammaln(s)) - k * log_x - _LOG_PI  # >= log |term|
        if log_env >= env_min:
            # envelope passed its minimum: optimal truncation reached
            err = 2.0 * math.exp(env_min) + 6.0 * _EPS * abs_sum
            return total + comp, err, n_used > 0
        env_min = log_env
        term = 0.0 if sign == 0.0 else math.copysign(math.exp(log_mag - k * log_x), sign)
        if k & 1 == 0:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        n_used = k
        if math.exp(log_env) <= threshold * max(abs(total), 1e-300):
            small_run += 1
            if small_run == 3:
                err = 2.0 * math.exp(log_env) + 6.0 * _EPS * abs_sum
                return total + comp, err, True
        else:
            small_run = 0
    return total + comp, math.inf, False


def mittag_leffler(alpha, z, rel_tol=1e-12, z_max=Z_MAX_DEFAULT):
    """One-parameter Mittag-Leffler function E_alpha(z) on the real axis.

    Parameters
    ----------
    alpha : float
        Order, 0 < alpha <= 1.  alpha = 1 reduces exactly to exp(z).
    z : float
        Real argument.  Any z <= 0 is supported; positive z only up to
        `z_max` (the function grows like exp(z**(1/alpha)) there).
    rel_tol : float
        Requested relative accuracy, within [1e-15, 1e-3].  The evaluation
        certifies its own error estimate against this target and raises
        `AccuracyError` if the target cannot be met in double precision.
    z_max : float
        Positive-argument cutoff, default 5.

    Returns
    -------
    float
        E_alpha(z).  For z <= 0 the value lies in (0, 1] and decreases as
        z decreases; for z >= 0 it increases with z.

    Raises
    ------
    DomainError
        For alpha outside (0, 1], non-finite z, z > z_max, or rel_tol
        outside its legal range.
    AccuracyError
        When no evaluation strategy certifies `rel_tol`, or the two
        strategies disagree beyond their combined error estimates.
    OverflowError
        When the result exceeds the double range (large positive z with
        small alpha).
    """
    alpha = float(alpha)
    z = float(z)
    rel_tol = float(rel_tol)
    _require(math.isfinite(alpha) and 0.0 < alpha <= 1.0,
             f"mittag_leffler: need 0 < alpha <= 1, got {alpha!r}")
    _require(math.isfinite(z), f"mittag_leffler: need finite z, got {z!r}")
    _require(REL_TOL_MIN <= rel_tol <= REL_TOL_MAX,
             f"mittag_leffler: rel_tol must lie in [{REL_TOL_MIN}, {REL_TOL_MAX}], got {rel_tol!r}")
    _require(z <= z_max, f"mittag_leffler: z={z!r} exceeds the positive cutoff z_max={z_max!r}")

    if alpha == 1.0:
        return math.exp(z)
    if z == 0.0:
        return 1.0

    if z > 0.0:
        if z > 1.0 and math.log(z) / alpha > math.log(709.0):
            # the value grows like exp(z**(1/alpha)); past this it overflows
            raise OverflowError(
                f"mittag_leffler: E_{alpha}({z}) exceeds the double range")
        value, err, ok = _ml_power_series(alpha, z, rel_tol)
        if not math.isfinite(value):
            raise OverflowError(
                f"mittag_leffler: E_{alpha}({z}) exceeds the double range")
        if not ok or err > rel_tol * abs(value):
            raise AccuracyError(
                f"mittag_leffler: cannot certify rel_tol={rel_tol:g} at "
                f"alpha={alpha:g}, z={z:g}")
        return value

    x = -z
    try:
        shape = x ** (1.0 / alpha)  # cancellation/decay exponent
    except OverflowError:
        shape = math.inf

    candidates = []
    if shape <= _S_ASYM_ONLY:
        candidates.append(_ml_power_series(alpha, z, rel_tol))
    if shape >= _S_TAYLOR_ONLY:
        candidates.append(_ml_algebraic_tail(alpha, x, rel_tol))

    usable = [(v, e) for v, e, ok in candidates if ok and math.isfinite(v)]
    if not usable:
        raise AccuracyError(
            f"mittag_leffler: no strategy converged at alpha={alpha:g}, z={z:g}")

    if len(usable) == 2:
        (v1, e1), (v2, e2) = usable
        slack = 10.0 * (e1 + e2 + rel_tol * max(abs(v1), abs(v2)))
        if abs(v1 - v2) > slack:
            raise AccuracyError(
                f"mittag_leffler: power series and tail expansion disagree "
                f"({v1:.6e} vs {v2:.6e}) at alpha={alpha:g}, z={z:g}")

    value, err = min(usable, key=lambda ve: ve[1])
    if err > rel_tol * abs(value):
        raise AccuracyError(
            f"mittag_leffler: achievable relative accuracy ~{err / max(abs(value), 1e-300):.1e} "
            f"at alpha={alpha:g}, z={z:g} misses rel_tol={rel_tol:g}")
    return value


def ml_alpha_derivative(alpha, c, t, rel_tol=1e-10):
    """Derivative in the order of G(alpha) = E_alpha(-c * t**alpha).

    Summed as

        G'(alpha) = sum_{j>=1} (-c)**j * j * t**(alpha j)
                    * (ln t - psi(alpha j + 1)) / Gamma(alpha j + 1)

    with the same consecutive-small-term truncation as the power series,
    applied to the weight |w_j| * (|ln t| + |psi|).  Convergence is
    guaranteed for 0 < alpha < 1 since the term ratio tends to zero with
    the Gamma ratio Gamma(alpha j)/Gamma(alpha j + alpha).

    Raises `DomainError` for invalid arguments, `ConvergenceError` when the
    truncation rule is not met within the term budget, and `AccuracyError`
    when a series term exceeds the double range or cancellation leaves the
    certified error above target.
    """
    alpha = float(alpha)
    c = float(c)
    t = float(t)
    rel_tol = float(rel_tol)
    _require(math.isfinite(alpha) and 0.0 < alpha < 1.0,
             f"ml_alpha_derivative: need 0 < alpha < 1, got {alpha!r}")
    _require(math.isfinite(c) and c > 0.0, f"ml_alpha_derivative: need c > 0, got {c!r}")
    _require(math.isfinite(t) and t > 0.0, f"ml_alpha_derivative: need t > 0, got {t!r}")
    _require(REL_TOL_MIN <= rel_tol <= REL_TOL_MAX,
             f"ml_alpha_derivative: rel_tol must lie in [{REL_TOL_MIN}, {REL_TOL_MAX}], "
             f"got {rel_tol!r}")

    x = c * t**alpha
    log_x = math.log(x)
    ln_t = math.log(t)
    threshold = 0.125 * rel_tol

    total = 0.0
    comp = 0.0
    abs_sum = 0.0
    xpow = 1.0
    small_run = 0
    tail = 0.0
    for j in range(1, DERIV_MAX_TERMS + 1):
        g = alpha * j + 1.0
        xpow *= x
        if g <= 170.0 and math.isfinite(xpow):
            w = j * xpow / float(_sc_gamma(g))
        else:
            try:
                w = j * math.exp(j * log_x - float(_sc_gammaln(g)))
            except OverflowError:
                w = math.inf
        if j & 1:
            w = -w
        psi_g = float(_sc_psi(g))
        term = w * (ln_t - psi_g)
        weight = abs(w) * (abs(ln_t) + abs(psi_g))
        if not math.isfinite(weight):
            raise AccuracyError(f"ml_alpha_derivative: series terms exceed the double range "
                                f"at alpha={alpha:g}, c={c:g}, t={t:g}")
        y = term - comp
        tt = total + y
        comp = (tt - total) - y
        total = tt
        abs_sum += weight
        if weight <= threshold * max(abs(total), 1e-300):
            small_run += 1
            tail = max(tail, weight)
            if small_run == 3:
                value = total + comp
                err = 2.0 * tail + 6.0 * _EPS * abs_sum
                if err > max(rel_tol * abs(value), 1e-13 * abs_sum):
                    raise AccuracyError(
                        f"ml_alpha_derivative: cancellation leaves error ~{err:.1e} at "
                        f"alpha={alpha:g}, c={c:g}, t={t:g}")
                return value
        else:
            small_run = 0
            tail = 0.0
    raise ConvergenceError(
        f"ml_alpha_derivative: series not converged within {DERIV_MAX_TERMS} terms "
        f"at alpha={alpha:g}, c={c:g}, t={t:g}")
