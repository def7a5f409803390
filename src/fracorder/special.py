"""Decay-axis special functions used by the diffusion solver.

The one-parameter Mittag-Leffler function E_a(z) for z <= 0, which holds
every time factor E_a(-D lambda_n t**a) of the forward solution, and the
derivative of a -> E_a(-c t^a) are evaluated by adaptively truncated series
with certified error estimates; for E_a the power series and the algebraic
tail expansion are combined, switching on the size of |z|**(1/a), which
controls both the power-series cancellation (grows like exp(|z|**(1/a)))
and the tail-expansion accuracy (shrinks like the same exponential).

The two power series, for E_a(z) and for its order derivative, each sum in
one loop over the cached Gamma blocks, with the same Kahan step and stop
rule, and certify alike: a value is returned only when its error estimate
is at most rel_tol times its magnitude.  Both read Gamma(alpha*j + 1) from
per-order blocks of 32 terms kept in a bounded cache: all modes at one
order and every cell of a fixed-order grid share them.  The derivative
computes psi(alpha*j + 1) for each term it sums.  The E_a series is summed
only where |z|**(1/a) <= 30, and there every term it reaches stays in the
double range, so it sums the blocks with no range test; the derivative
refuses a term past the double range, which no certified value reaches.

`mittag_leffler` and `ml_alpha_derivative` check their arguments and hand
them to the unchecked cores `_mittag_leffler` and `_ml_alpha_derivative`,
which the forward kernel calls once its public callers have checked theirs.

Gamma, psi and log Gamma are pure-Python ports of the Cephes routines
`gamma`, `psi` and `lgam` (S. L. Moshier, Methods and Programs for
Mathematical Functions, 1989), the kernels behind scipy.special's ufuncs of
the same names.  On the arguments the series reach they return scipy's bits
(a test compares them), so this module needs the standard library alone.
"""

import functools
import math
import numbers

from .errors import AccuracyError, DomainError, _shown

_EPS = 2.220446049250313e-16
_LOG_PI = math.log(math.pi)

REL_TOL_MIN = 1e-15
REL_TOL_MAX = 1e-3

TAYLOR_MAX_TERMS = 500
ASYM_MAX_TERMS = 400
DERIV_MAX_TERMS = 1000

# Branch thresholds on s = |z|**(1/alpha).  Below _S_TAYLOR_ONLY the power
# series alone is reliable; above _S_ASYM_ONLY it is hopeless in doubles and
# the tail expansion is excellent; in between, both are evaluated and the
# certified error estimates pick the winner (and cross-check each other).
_S_TAYLOR_ONLY = 14.0
_S_ASYM_ONLY = 30.0

# The series coefficients Gamma(alpha*j + 1) come in per-order blocks of
# _BLOCK terms; the cache keeps its most recently used blocks, so its memory
# stays fixed however many orders are evaluated.  Every inversion re-reads
# the blocks of its 17 or 33 proxy nodes, and a grid those of its order;
# an inversion's search orders, about 2.3 blocks per `invert` operation,
# are never read again.  512 blocks hold the nodes' blocks and the curve's
# orders of `scan_bracket`, 99 by default, between calls.
_BLOCK = 32
_BLOCKS_KEPT = 512


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


def _real(value, name):
    """`value` as a float; DomainError naming the argument `name` (as
    "function: argument") for a bool, a non-real or a number past the double
    range.  nan and inf pass, for the caller's own domain check."""
    if type(value) is float:
        return value
    if _not_real(value):
        raise DomainError(f"{name} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} lies past the double range") from None


def _check_rel_tol(rel_tol, name):
    """DomainError naming the argument `name` unless the real `rel_tol` lies
    in [REL_TOL_MIN, REL_TOL_MAX]; nan does not."""
    if not REL_TOL_MIN <= rel_tol <= REL_TOL_MAX:
        raise DomainError(f"{name} must lie in [{REL_TOL_MIN}, {REL_TOL_MAX}], "
                          f"got {_shown(rel_tol)}")


def sinpi(u):
    """sin(pi*u), exact 0.0 at integer u and exactly +-1 at half-integers."""
    if type(u) is not float:  # the tail expansion calls this once per term
        u = _real(u, "sinpi: argument")
    if not math.isfinite(u):
        raise DomainError(f"sinpi: argument must be finite, got {u!r}")
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


# Ports of Cephes gamma, psi and lgam.  Each polynomial is written out in the
# Horner order of Cephes `polevl`, so every rounding happens as in the C code;
# the branches cover the arguments the series reach: x >= 1 for `_gamma` and
# `_psi`, x > 0 for `_gammaln`.  The Cephes cut-offs for huge x (psi's 1e17,
# lgam's 1e8) are left out: past them the dropped terms are below half an ulp.
_MAXGAM = 171.6243769563027  # Gamma(x) exceeds the double range from here on
_EULER = 0.57721566490153286061
# the positive root of psi, split into three parts, and the float32 constant
# of the rational approximation on [1, 2]
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19
_PSI_Y = 0.99558162689208984375


def _gamma(x):
    """Gamma(x) for x >= 1, inf from _MAXGAM on: Stirling's formula above 33,
    else the recurrence into [2, 3) and a rational approximation there."""
    if x > 33.0:
        if x >= _MAXGAM:
            return math.inf
        w = 1.0 / x
        w = 1.0 + w * ((((7.87311395793093628397e-4 * w - 2.29549961613378126380e-4) * w
                         - 2.68132617805781232825e-3) * w + 3.47222221605458667310e-3) * w
                       + 8.33333333333482257126e-2)
        y = math.exp(x)
        if x > 143.01608:  # split the power so that it does not overflow
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return 2.50662827463100050242 * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    p = ((((((1.60119522476751861407e-4 * x + 1.19135147006586384913e-3) * x
             + 1.04213797561761569935e-2) * x + 4.76367800457137231464e-2) * x
           + 2.07448227648435975150e-1) * x + 4.94214826801497100753e-1) * x
         + 9.99999999999999996796e-1)
    q = (((((((-2.31581873324120129819e-5 * x + 5.39605580493303397842e-4) * x
              - 4.45641913851797240494e-3) * x + 1.18139785222060435552e-2) * x
            + 3.58236398605498653373e-2) * x - 2.34591795718243348568e-1) * x
          + 7.14304917030273074085e-2) * x + 1.00000000000000000320e0)
    return z * p / q


def _psi(x):
    """psi(x) for x >= 1: a harmonic sum at the integers up to 10, else the
    recurrence into [1, 2] and a rational approximation there below 10, and
    the asymptotic series from 10 on."""
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if x <= 2.0:
        g = x - _PSI_ROOT1
        g -= _PSI_ROOT2
        g -= _PSI_ROOT3
        x -= 1.0
        p = (((((-0.0020713321167745952 * x - 0.045251321448739056) * x
                - 0.28919126444774784) * x - 0.65031853770896507) * x
              - 0.32555031186804491) * x + 0.25479851061131551)
        q = ((((((-0.55789841321675513e-6 * x + 0.0021284987017821144) * x
                 + 0.054151797245674225) * x + 0.43593529692665969) * x
               + 1.4606242909763515) * x + 2.0767117023730469) * x + 1.0)
        return y + (g * _PSI_Y + g * (p / q))
    z = 1.0 / (x * x)
    tail = z * ((((((8.33333333333333333333e-2 * z - 2.10927960927960927961e-2) * z
                    + 7.57575757575757575758e-3) * z - 4.16666666666666666667e-3) * z
                  + 3.96825396825396825397e-3) * z - 8.33333333333333333333e-3) * z
                + 8.33333333333333333333e-2)
    return y + (math.log(x) - (0.5 / x) - tail)


def _gammaln(x):
    """log Gamma(x) for x > 0: the recurrence into [2, 3) and a rational
    approximation below 13, Stirling's series from 13 on."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        b = (((((-1.37825152569120859100e3 * x - 3.88016315134637840924e4) * x
                - 3.31612992738871184744e5) * x - 1.16237097492762307383e6) * x
              - 1.72173700820839662146e6) * x - 8.53555664245765465627e5)
        c = ((((((x - 3.51815701436523470549e2) * x - 1.70642106651881159223e4) * x
                - 2.20528590553854454839e5) * x - 1.13933444367982507207e6) * x
              - 2.53252307177582951285e6) * x - 2.01889141433532773231e6)
        return math.log(z) + x * b / c
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
                  + 7.93650340457716943945e-4) * p - 2.77777777730099687205e-3) * p
                + 8.33333333333331927722e-2) / x


@functools.lru_cache(maxsize=_BLOCKS_KEPT)
def _gamma_block(alpha, start):
    """Gamma(alpha*j + 1) for j = start .. start + _BLOCK - 1."""
    return tuple([_gamma(alpha * j + 1.0) for j in range(start, start + _BLOCK)])


def _ml_power_series(alpha, z, rel_tol):
    """Taylor sum of E_alpha(z), z < 0 with |z|**(1/alpha) <= _S_ASYM_ONLY:
    the Kahan-compensated sum of the terms z**j / Gamma(alpha*j + 1),
    j = 1 .. TAYLOR_MAX_TERMS, after the j = 0 term 1.  Returns
    (value, abs_error_estimate, converged).  The sum stops after three
    consecutive terms of size at most the threshold times the running |sum|;
    the error estimate is twice the largest of those sizes (truncation) plus
    6*EPS*sum(|term|) (round-off amplified by cancellation).  `converged` is
    False, with an infinite error, when the budget runs out first.  A grid
    spends about nine tenths of its time here and an inversion two fifths,
    so each term's work is written out in a while over whole blocks, with
    no function call: a term generator or a shared summation core was
    slower.  The term's size is a sign test,
    `term if term >= 0.0 else -term`; the stop test compares it with
    threshold * max(1e-300, |t|) by sign tests on the new Kahan sum t; and
    a run of small terms is reset only when one is open, since `tail` is
    0.0 whenever `small_run` is 0.  On finite terms and sums each gives
    abs()'s bits.  The one difference is a term that underflows to -0.0,
    as z**j does for tiny |z|: its size is -0.0, not 0.0, which leaves the
    sum of sizes unchanged, counts as small and never raises `tail`, so
    the value, the error and `converged` keep their bits.

    Gamma comes from the cached blocks, evaluated at the same float
    `alpha * j + 1.0`, and each term is `z**j / Gamma` with no range test.
    The precondition, which `_mittag_leffler` keeps, is why none is needed:
    with s = |z|**(1/alpha) <= 30 the j-th term has size
    s**(alpha*j) / Gamma(alpha*j + 1), below 1e-34 once alpha*j passes 140.
    That is far under the truncation threshold at any legal rel_tol, since
    the value there is at least about exp(-30) ~ 1e-13, so the sum stops, or
    the 500-term budget ends, while alpha*j is about 140 or less.  Up to
    there Gamma's argument stays below 170 and |z|**j = s**(alpha*j) below
    30**141 < 1e209: no term leaves the double range, which a test checks
    on a sweep of orders, shapes and tolerances.  Truncation stops at an
    internal threshold of rel_tol/8 so the certified total stays below the
    requested rel_tol with headroom.
    """
    threshold = 0.125 * rel_tol
    total = 1.0  # j = 0: 1/Gamma(1)
    abs_sum = 1.0
    comp = 0.0
    small_run = 0
    tail = 0.0
    zpow = 1.0
    j = 0
    while j < TAYLOR_MAX_TERMS:
        gammas = _gamma_block(alpha, j + 1)
        j += _BLOCK
        if j > TAYLOR_MAX_TERMS:  # the budget's last block
            gammas = gammas[:TAYLOR_MAX_TERMS + _BLOCK - j]
        for gamma_g in gammas:
            zpow *= z
            term = zpow / gamma_g
            size = term if term >= 0.0 else -term
            # Kahan step
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            abs_sum += size
            if size <= threshold * (t if t > 1e-300 else -t if t < -1e-300 else 1e-300):
                small_run += 1
                if size > tail:
                    tail = size
                if small_run == 3:
                    return total + comp, 2.0 * tail + 6.0 * _EPS * abs_sum, True
            elif small_run:
                small_run = 0
                tail = 0.0
    return total + comp, math.inf, False


def _ml_algebraic_tail(alpha, x, rel_tol):
    """Algebraic tail expansion of E_alpha(-x) for x > 0, 0 < alpha < 1:

        E_alpha(-x) ~ sum_{k>=1} (-1)**(k+1) x**(-k) / Gamma(1 - alpha*k)

    truncated at the smallest-envelope term.  Returns the same triple as
    the power series; `converged` is False when no useful truncation point
    exists (envelope grows from the start, i.e. x too small).  Unlike the
    power series it also stops where the envelope passes its minimum, and
    certifies with the latest envelope instead of the largest small term.
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
        log_gamma_s = _gammaln(s)
        log_env = log_gamma_s - k * log_x - _LOG_PI  # >= log |term|
        if log_env >= env_min:
            # envelope passed its minimum: optimal truncation reached
            err = 2.0 * math.exp(env_min) + 6.0 * _EPS * abs_sum
            return total + comp, err, n_used > 0
        env_min = log_env
        # 1/Gamma(1 - s) = sin(pi s) Gamma(s) / pi, by reflection
        sp = sinpi(s)
        if sp == 0.0:
            term = 0.0
        else:
            log_mag = log_gamma_s + math.log(abs(sp)) - _LOG_PI
            term = math.copysign(math.exp(log_mag - k * log_x), sp)
        if k & 1 == 0:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        n_used = k
        scale = abs(total)
        if math.exp(log_env) <= threshold * (1e-300 if 1e-300 > scale else scale):
            small_run += 1
            if small_run == 3:
                err = 2.0 * math.exp(log_env) + 6.0 * _EPS * abs_sum
                return total + comp, err, True
        else:
            small_run = 0
    return total + comp, math.inf, False


def _shape(alpha, x):
    """x**(1/alpha) for x > 0, inf past the double range: the exponent that
    sets the power-series cancellation and the tail-expansion accuracy."""
    try:
        return x ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def mittag_leffler(alpha, z, rel_tol=1e-12):
    """One-parameter Mittag-Leffler function E_alpha(z) on the decay axis z <= 0.

    Parameters
    ----------
    alpha : float
        Order, 0 < alpha <= 1.  alpha = 1 reduces exactly to exp(z).
    z : float
        Real argument, z <= 0: the axis of the solver's time factors
        E_alpha(-D lambda_n t**alpha).  Positive z is refused.
    rel_tol : float
        Requested relative accuracy, within [1e-15, 1e-3].  The evaluation
        certifies its own error estimate against this target and raises
        `AccuracyError` if the target cannot be met in double precision.

    Returns
    -------
    float
        E_alpha(z), which lies in (0, 1] and decreases as z decreases.

    Raises
    ------
    DomainError
        For an argument that is a bool, not a real number or past the double
        range, alpha outside (0, 1], non-finite z, z > 0, or rel_tol outside
        its legal range.
    AccuracyError
        When no evaluation strategy certifies `rel_tol`, or the two
        strategies disagree beyond their combined error estimates.
    """
    alpha = _real(alpha, "mittag_leffler: alpha")
    z = _real(z, "mittag_leffler: z")
    rel_tol = _real(rel_tol, "mittag_leffler: rel_tol")
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler: need 0 < alpha <= 1, got {alpha!r}")
    if not math.isfinite(z):
        raise DomainError(f"mittag_leffler: need finite z, got {z!r}")
    _check_rel_tol(rel_tol, "mittag_leffler: rel_tol")
    if z > 0.0:
        raise DomainError(f"mittag_leffler: z must be <= 0, got {z!r}")
    return _mittag_leffler(alpha, z, rel_tol)


def _mittag_leffler(alpha, z, rel_tol):
    """E_alpha(z) unchecked for z <= 0, for `mittag_leffler` and the forward
    kernel's `_solution`, whose argument -D*lambda_n*t**alpha can still
    overflow to -inf; that is refused here as `mittag_leffler` refuses it.
    The power series is summed only where |z|**(1/alpha) <= _S_ASYM_ONLY,
    the precondition of `_ml_power_series`."""
    if alpha == 1.0:
        return math.exp(z)
    if z == 0.0:
        return 1.0

    x = -z
    shape = _shape(alpha, x)
    if shape < _S_TAYLOR_ONLY:
        # the power series alone; a refused sum falls through to the refusal below
        value, err, ok = _ml_power_series(alpha, z, rel_tol)
        if ok and math.isfinite(value) and err <= rel_tol * abs(value):
            return value
        candidates = [(value, err, ok)]
    else:
        if x == math.inf:
            raise DomainError(f"mittag_leffler: need finite z, got {z!r}")
        candidates = []
        if shape <= _S_ASYM_ONLY:
            candidates.append(_ml_power_series(alpha, z, rel_tol))
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

    by the power series' Kahan step and truncation rule, applied to the
    weight |w_j| * (|ln t| + |psi|), and certified as `mittag_leffler`
    certifies: the value is returned only when its error estimate is at most
    rel_tol * |value|.  Convergence is guaranteed for 0 < alpha < 1 since
    the term ratio tends to zero with the Gamma ratio
    Gamma(alpha j)/Gamma(alpha j + alpha).

    Raises `DomainError` for invalid arguments, and `AccuracyError` when the
    truncation rule is not met within the term budget, a series term exceeds
    the double range or cancellation leaves the certified error above target.
    """
    alpha = _real(alpha, "ml_alpha_derivative: alpha")
    c = _real(c, "ml_alpha_derivative: c")
    t = _real(t, "ml_alpha_derivative: t")
    rel_tol = _real(rel_tol, "ml_alpha_derivative: rel_tol")
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"ml_alpha_derivative: need 0 < alpha < 1, got {alpha!r}")
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"ml_alpha_derivative: need c > 0, got {c!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"ml_alpha_derivative: need t > 0, got {t!r}")
    _check_rel_tol(rel_tol, "ml_alpha_derivative: rel_tol")
    return _ml_alpha_derivative(alpha, c, t, rel_tol)


def _ml_alpha_derivative(alpha, c, t, rel_tol):
    """G'(alpha) unchecked, for `ml_alpha_derivative` and the kernel's `_slope`;
    an x = c * t**alpha of 0 (c = 0, or an underflow) gives zero terms and 0.

    The loop is `_ml_power_series`'s, over the terms w_j * (ln t - psi_j) with
    w_j = j * (-x)**j / Gamma(alpha*j + 1), Gamma from the cached blocks, and
    psi_j = psi(alpha*j + 1), computed for each term summed, j = 1 ..
    DERIV_MAX_TERMS; the size |w_j| * (|ln t| + |psi_j|) feeds the stop rule
    and the round-off estimate.  psi is not cached: the inversions take
    their slopes from the interpolant, so the derivative runs at orders that
    are seldom evaluated again.
    A term past the double range, or one whose Gamma argument alpha*j + 1
    passes 170, is refused as past the double range.  The sum is still
    running there only when x**(1/alpha) is above about 45, and then its
    terms, as large as about exp(x**(1/alpha)), leave a round-off estimate
    far above any legal rel_tol: no value that such a term reaches would
    be accepted, which a test checks against a form that takes those terms
    in log space.
    """
    threshold = 0.125 * rel_tol
    z = -(c * t**alpha)
    ln_t = math.log(t)
    abs_ln_t = abs(ln_t)
    total = 0.0
    abs_sum = 0.0
    comp = 0.0
    small_run = 0
    tail = 0.0
    zpow = 1.0
    j = 0
    while j < DERIV_MAX_TERMS:
        gammas = _gamma_block(alpha, j + 1)
        if j + _BLOCK > DERIV_MAX_TERMS:  # the budget's last block
            gammas = gammas[:DERIV_MAX_TERMS - j]
        for gamma_g in gammas:
            j += 1
            zpow *= z
            w = j * zpow / gamma_g
            psi_g = _psi(alpha * j + 1.0)
            size = abs(w) * (abs_ln_t + abs(psi_g))
            if not math.isfinite(size) or alpha * j + 1.0 > 170.0:
                raise AccuracyError(f"ml_alpha_derivative: series terms exceed the double range "
                                    f"at alpha={alpha:g}, c={c:g}, t={t:g}")
            term = w * (ln_t - psi_g)
            # Kahan step
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
            abs_sum += size
            scale = abs(total)
            if size <= threshold * (1e-300 if 1e-300 > scale else scale):
                small_run += 1
                if size > tail:
                    tail = size
                if small_run == 3:
                    value = total + comp
                    err = 2.0 * tail + 6.0 * _EPS * abs_sum
                    if err > rel_tol * abs(value):
                        raise AccuracyError(
                            f"ml_alpha_derivative: cancellation leaves error ~{err:.1e} at "
                            f"alpha={alpha:g}, c={c:g}, t={t:g}")
                    return value
            else:
                small_run = 0
                tail = 0.0
    raise AccuracyError(
        f"ml_alpha_derivative: series not converged within {DERIV_MAX_TERMS} terms "
        f"at alpha={alpha:g}, c={c:g}, t={t:g}")
