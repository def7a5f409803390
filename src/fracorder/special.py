"""Real-axis special functions used by the diffusion solver.

The one-parameter Mittag-Leffler function E_a(z) and the derivative of
a -> E_a(-c t^a) are evaluated by adaptively truncated series with certified
error estimates; on the negative real axis the power series and the
algebraic tail expansion are combined, switching on the size of
|z|**(1/a), which controls both the power-series cancellation (grows like
exp(|z|**(1/a))) and the tail-expansion accuracy (shrinks like the same
exponential).

The two power series, for E_a(z) and for its order derivative, hand their
terms to one compensated-summation core, `_sum_terms`, and certify alike: a
value is returned only when its error estimate is at most rel_tol times its
magnitude.  Both read Gamma(alpha*j + 1), and the derivative also
psi(alpha*j + 1), from per-order blocks of 32 terms kept in a small bounded
cache: all modes at one order, F and F' at one refinement iterate, every
cell of a fixed-order grid and the batched scan's orders share them.

Gamma, psi and log Gamma are pure-Python ports of the Cephes routines
`gamma`, `psi` and `lgam` (S. L. Moshier, Methods and Programs for
Mathematical Functions, 1989), the kernels behind scipy.special's ufuncs of
the same names.  On the arguments the series reach they return scipy's bits
(a test compares them), so the package needs numpy alone at run time.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import AccuracyError, DomainError

_EPS = 2.220446049250313e-16
_LOG_PI = math.log(math.pi)

REL_TOL_MIN = 1e-15
REL_TOL_MAX = 1e-3
Z_MAX = 5.0

TAYLOR_MAX_TERMS = 500
ASYM_MAX_TERMS = 400
DERIV_MAX_TERMS = 1000

# Branch thresholds on s = |z|**(1/alpha).  Below _S_TAYLOR_ONLY the power
# series alone is reliable; above _S_ASYM_ONLY it is hopeless in doubles and
# the tail expansion is excellent; in between, both are evaluated and the
# certified error estimates pick the winner (and cross-check each other).
_S_TAYLOR_ONLY = 14.0
_S_ASYM_ONLY = 30.0

# Series coefficients Gamma(alpha*j + 1) and psi(alpha*j + 1) come in
# per-order blocks of _BLOCK terms; each cache keeps its most recently used
# blocks, so its memory stays fixed however many orders are evaluated.  512
# Gamma blocks hold the default 99-order scan's between inversions; the scan
# reads no psi, so the psi cache only serves refinement iterates, whose
# orders no later inversion reads again.
_BLOCK = 32
_BLOCKS_KEPT = 512
_PSI_BLOCKS_KEPT = 128


def sinpi(u):
    """sin(pi*u), exact 0.0 at integer u and exactly +-1 at half-integers."""
    u = float(u)
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


def _port_block(port, alpha, start):
    """port(alpha*j + 1) for j = start .. start + _BLOCK - 1."""
    return tuple([port(alpha * j + 1.0) for j in range(start, start + _BLOCK)])


@functools.lru_cache(maxsize=_BLOCKS_KEPT)
def _gamma_block(alpha, start):
    """Gamma(alpha*j + 1) for j = start .. start + _BLOCK - 1."""
    return _port_block(_gamma, alpha, start)


@functools.lru_cache(maxsize=_PSI_BLOCKS_KEPT)
def _psi_block(alpha, start):
    """psi(alpha*j + 1) for j = start .. start + _BLOCK - 1."""
    return _port_block(_psi, alpha, start)


def _sum_terms(terms, total, abs_sum, threshold):
    """Compensated sum of `total` and the terms of the (term, size) pairs in
    `terms`, where size bounds |term| and feeds the round-off estimate.

    Returns (value, abs_error_estimate, converged).  The sum stops after three
    consecutive sizes at most `threshold` times the running |sum|; the error
    estimate is twice the largest of those sizes (truncation) plus
    6*EPS*sum(size) (round-off amplified by cancellation).  `converged` is
    False, with an infinite error, when `terms` runs out first.
    """
    comp = 0.0
    small_run = 0
    tail = 0.0
    for term, size in terms:
        # Kahan step
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += size
        scale = abs(total)
        # max(scale, 1e-300) inlined; a NaN scale stays NaN, as max keeps it
        if size <= threshold * (1e-300 if 1e-300 > scale else scale):
            small_run += 1
            if size > tail:  # max(tail, size) inlined
                tail = size
            if small_run == 3:
                return total + comp, 2.0 * tail + 6.0 * _EPS * abs_sum, True
        else:
            small_run = 0
            tail = 0.0
    return total + comp, math.inf, False


def _ml_power_terms(alpha, z):
    """(z**j / Gamma(alpha*j + 1), its size) for j = 1 .. TAYLOR_MAX_TERMS.

    Gamma comes from the cached blocks, evaluated at the same float
    `alpha * j + 1.0`.  Past Gamma's or z**j's double range the term is
    taken in log space.
    """
    log_abs_z = math.log(abs(z))
    zpow = 1.0
    j = 0
    while j < TAYLOR_MAX_TERMS:
        for gamma_g in _gamma_block(alpha, j + 1)[:TAYLOR_MAX_TERMS - j]:
            j += 1
            g = alpha * j + 1.0
            zpow *= z
            if g <= 170.0 and math.isfinite(zpow):
                term = zpow / gamma_g
            else:
                magnitude = math.exp(j * log_abs_z - _gammaln(g))
                term = -magnitude if (z < 0.0 and j & 1) else magnitude
            yield term, abs(term)


def _ml_power_series(alpha, z, rel_tol):
    """Taylor sum of E_alpha(z), as `_sum_terms` returns it.

    Truncation stops at an internal threshold of rel_tol/8 so the certified
    total stays below the requested rel_tol with headroom.
    """
    return _sum_terms(_ml_power_terms(alpha, z), 1.0, 1.0, 0.125 * rel_tol)  # j = 0: 1/Gamma(1)


def _ml_algebraic_tail(alpha, x, rel_tol):
    """Algebraic tail expansion of E_alpha(-x) for x > 0, 0 < alpha < 1:

        E_alpha(-x) ~ sum_{k>=1} (-1)**(k+1) x**(-k) / Gamma(1 - alpha*k)

    truncated at the smallest-envelope term.  Returns the same triple as
    the power series; `converged` is False when no useful truncation point
    exists (envelope grows from the start, i.e. x too small).  It keeps its
    own loop rather than `_sum_terms`: it also stops where the envelope
    passes its minimum, and certifies with the latest envelope instead of
    the largest small term, so sharing the core would make it branch on its
    caller.
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
    """One-parameter Mittag-Leffler function E_alpha(z) on the real axis.

    Parameters
    ----------
    alpha : float
        Order, 0 < alpha <= 1.  alpha = 1 reduces exactly to exp(z).
    z : float
        Real argument.  Any z <= 0 is supported; positive z only up to
        `Z_MAX` = 5 (the function grows like exp(z**(1/alpha)) there).
    rel_tol : float
        Requested relative accuracy, within [1e-15, 1e-3].  The evaluation
        certifies its own error estimate against this target and raises
        `AccuracyError` if the target cannot be met in double precision.

    Returns
    -------
    float
        E_alpha(z).  For z <= 0 the value lies in (0, 1] and decreases as
        z decreases; for z >= 0 it increases with z.

    Raises
    ------
    DomainError
        For alpha outside (0, 1], non-finite z, z > Z_MAX, or rel_tol
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
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise DomainError(f"mittag_leffler: need 0 < alpha <= 1, got {alpha!r}")
    if not math.isfinite(z):
        raise DomainError(f"mittag_leffler: need finite z, got {z!r}")
    if not REL_TOL_MIN <= rel_tol <= REL_TOL_MAX:
        raise DomainError(f"mittag_leffler: rel_tol must lie in [{REL_TOL_MIN}, {REL_TOL_MAX}], "
                          f"got {rel_tol!r}")
    if not z <= Z_MAX:
        raise DomainError(f"mittag_leffler: z={z!r} exceeds the positive cutoff Z_MAX={Z_MAX!r}")

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
    shape = _shape(alpha, x)

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


def _mittag_leffler_lanes(alphas, zs, rel_tol):
    """E_alpha(z) for every (alpha, z) lane of two 1-D arrays at one rel_tol.

    Returns the same floats as `mittag_leffler` called lane by lane, and
    raises the exception the first refusing lane raises there.  Lanes with
    0 < alpha < 1, z < 0 and |z|**(1/alpha) below _S_TAYLOR_ONLY, where
    `mittag_leffler` runs the power series alone, run it here together,
    term by term, each with the scalar recurrence's operations in its order
    and each lane's Gamma values from its order's cached blocks.
    A lane leaves the batch for `mittag_leffler`, in lane order, when it is
    outside that region, when a term passes Gamma's double range or makes
    z**j non-finite, or when the series does not certify rel_tol.
    """
    alphas = np.asarray(alphas, dtype=float)
    zs = np.asarray(zs, dtype=float)
    rel_tol = float(rel_tol)
    alpha_list = alphas.tolist()
    z_list = zs.tolist()
    values = np.empty(len(alpha_list))
    done = np.zeros(len(alpha_list), dtype=bool)
    if REL_TOL_MIN <= rel_tol <= REL_TOL_MAX:
        lanes = np.array([k for k, (alpha, z) in enumerate(zip(alpha_list, z_list))
                          if 0.0 < alpha < 1.0 and z < 0.0
                          and _shape(alpha, -z) < _S_TAYLOR_ONLY], dtype=np.intp)
    else:
        lanes = np.empty(0, dtype=np.intp)

    threshold = 0.125 * rel_tol
    a = alphas[lanes]
    z = zs[lanes]
    total = np.ones(lanes.size)  # j = 0 term; Gamma(1) = 1
    comp = np.zeros(lanes.size)
    abs_sum = np.ones(lanes.size)
    zpow = np.ones(lanes.size)
    small_run = np.zeros(lanes.size, dtype=np.intp)
    tail = np.zeros(lanes.size)
    with np.errstate(over="ignore"):  # a non-finite z**j leaves the batch below
        for j in range(1, TAYLOR_MAX_TERMS + 1):
            if not lanes.size:
                break
            g = a * j + 1.0
            zpow *= z
            column = (j - 1) % _BLOCK
            if column == 0:  # the next block of Gamma(alpha*j + 1), one row per order
                orders, row = np.unique(a, return_inverse=True)
                blocks = [_gamma_block(alpha, j) for alpha in orders.tolist()]
                gammas = np.fromiter(itertools.chain.from_iterable(blocks), float,
                                     orders.size * _BLOCK).reshape(orders.size, _BLOCK)
            keep = (g <= 170.0) & np.isfinite(zpow)
            if not keep.all():
                lanes, a, z, g, total, comp, abs_sum, zpow, small_run, tail, row = (
                    v[keep] for v in (lanes, a, z, g, total, comp, abs_sum, zpow,
                                      small_run, tail, row))
            term = zpow / gammas[row, column]
            # Kahan step
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            magnitude = np.abs(term)
            abs_sum += magnitude
            small = magnitude <= threshold * np.maximum(np.abs(total), 1e-300)
            small_run = np.where(small, small_run + 1, 0)
            tail = np.where(small, np.maximum(tail, magnitude), 0.0)
            stop = small_run == 3
            if stop.any():
                value = total[stop] + comp[stop]
                err = 2.0 * tail[stop] + 6.0 * _EPS * abs_sum[stop]
                certified = np.isfinite(value) & (err <= rel_tol * np.abs(value))
                values[lanes[stop][certified]] = value[certified]
                done[lanes[stop][certified]] = True
                keep = ~stop
                lanes, a, z, total, comp, abs_sum, zpow, small_run, tail, row = (
                    v[keep] for v in (lanes, a, z, total, comp, abs_sum, zpow, small_run,
                                      tail, row))

    for k in np.flatnonzero(~done).tolist():
        values[k] = mittag_leffler(alpha_list[k], z_list[k], rel_tol=rel_tol)
    return values


def _derivative_terms(alpha, c, t):
    """(w_j * (ln t - psi_j), |w_j| * (|ln t| + |psi_j|)) for j = 1 ..
    DERIV_MAX_TERMS, with w_j = (-x)**j * j / Gamma(alpha j + 1),
    x = c * t**alpha and psi_j = psi(alpha j + 1), both from the cached
    blocks.  Raises `AccuracyError` at the first term past the double range.
    """
    x = c * t**alpha
    log_x = math.log(x)
    ln_t = math.log(t)
    abs_ln_t = abs(ln_t)
    xpow = 1.0
    j = 0
    while j < DERIV_MAX_TERMS:
        end = DERIV_MAX_TERMS - j
        gammas = _gamma_block(alpha, j + 1)[:end]
        for gamma_g, psi_g in zip(gammas, _psi_block(alpha, j + 1)[:end]):
            j += 1
            g = alpha * j + 1.0
            xpow *= x
            if g <= 170.0 and math.isfinite(xpow):
                w = j * xpow / gamma_g
            else:
                try:
                    w = j * math.exp(j * log_x - _gammaln(g))
                except OverflowError:
                    w = math.inf
            if j & 1:
                w = -w
            weight = abs(w) * (abs_ln_t + abs(psi_g))
            if not math.isfinite(weight):
                raise AccuracyError(f"ml_alpha_derivative: series terms exceed the double range "
                                    f"at alpha={alpha:g}, c={c:g}, t={t:g}")
            yield w * (ln_t - psi_g), weight


def ml_alpha_derivative(alpha, c, t, rel_tol=1e-10):
    """Derivative in the order of G(alpha) = E_alpha(-c * t**alpha).

    Summed as

        G'(alpha) = sum_{j>=1} (-c)**j * j * t**(alpha j)
                    * (ln t - psi(alpha j + 1)) / Gamma(alpha j + 1)

    by the same summation core and truncation as the power series, applied
    to the weight |w_j| * (|ln t| + |psi|), and certified as `mittag_leffler`
    certifies: the value is returned only when its error estimate is at most
    rel_tol * |value|.  Convergence is guaranteed for 0 < alpha < 1 since
    the term ratio tends to zero with the Gamma ratio
    Gamma(alpha j)/Gamma(alpha j + alpha).

    Raises `DomainError` for invalid arguments, and `AccuracyError` when the
    truncation rule is not met within the term budget, a series term exceeds
    the double range or cancellation leaves the certified error above target.
    """
    alpha = float(alpha)
    c = float(c)
    t = float(t)
    rel_tol = float(rel_tol)
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"ml_alpha_derivative: need 0 < alpha < 1, got {alpha!r}")
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"ml_alpha_derivative: need c > 0, got {c!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"ml_alpha_derivative: need t > 0, got {t!r}")
    if not REL_TOL_MIN <= rel_tol <= REL_TOL_MAX:
        raise DomainError(f"ml_alpha_derivative: rel_tol must lie in "
                          f"[{REL_TOL_MIN}, {REL_TOL_MAX}], got {rel_tol!r}")

    value, err, converged = _sum_terms(_derivative_terms(alpha, c, t), 0.0, 0.0, 0.125 * rel_tol)
    if not converged:
        raise AccuracyError(
            f"ml_alpha_derivative: series not converged within {DERIV_MAX_TERMS} terms "
            f"at alpha={alpha:g}, c={c:g}, t={t:g}")
    if err > rel_tol * abs(value):
        raise AccuracyError(
            f"ml_alpha_derivative: cancellation leaves error ~{err:.1e} at "
            f"alpha={alpha:g}, c={c:g}, t={t:g}")
    return value
