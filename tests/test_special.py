import itertools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.special import erfcx

import fracorder.special
from fracorder import (AccuracyError, DomainError, mittag_leffler,
                       ml_alpha_derivative, sinpi)
from fracorder.special import _BLOCK, _gamma_block, _mittag_leffler_lanes, _psi_block

EULER_GAMMA = 0.5772156649015329

# Frozen references computed independently in high-precision arithmetic
# (a 120-digit direct series for the Mittag-Leffler values, mpmath digamma
# and Gamma for the rest).
ML_REFERENCE = {
    (0.5, -1.0): 0.4275835761558070044108,
    (0.75, -0.6727171322029716): 0.5163592440765259439716,
    (0.25, -2.0202020202020203): 0.2959501243783031083098,
    (0.5, -4.545454545454546): 0.1213133434074289076188,
    (0.75, -9.595959595959597): 0.03207721860855651734243,
    (0.5, -5.0): 0.1107046377330686263702,
    (0.5, -10.0): 0.05614099274382258585752,
    (0.25, -2.525252525252525): 0.2506274212042323865464,
    (0.75, -5.05050505050505): 0.06711576331203110300145,
    (0.9, -3.5740076294668047): 0.06152305718218722093549,
    (0.999, -4.489690430557375): 0.01155660100175074636994,
}
DIGAMMA_10_5 = 2.3030010342976863753
GAMMA_RATIO_075_200 = 0.02322933498174656160199  # Gamma(151) / Gamma(151.75)


# ------------------------------------------------ series coefficients
#
# Both power series read Gamma(alpha*j + 1) and psi(alpha*j + 1), j >= 1,
# from the cached blocks that start at j = 1, 33, 65, ...; these tests check
# the classical identities on exactly those values.

def _coefficient(alpha, j, block=_gamma_block):
    """Gamma(alpha*j + 1), or psi with block=_psi_block, as the series reads it."""
    start = 1 + (j - 1) // _BLOCK * _BLOCK
    return block(alpha, start)[j - start]


def _coefficient_ratio(alpha, j):
    """Gamma(alpha*j + 1) / Gamma(alpha*(j + 1) + 1): the factor by which the
    coefficient of z**j shrinks from one term to the next."""
    return _coefficient(alpha, j) / _coefficient(alpha, j + 1)


def _last_finite_ratio(alpha):
    """Largest j whose ratio needs no Gamma above 170 (the blocks' range)."""
    return math.floor(169.0 / alpha) - 1


# ---------------------------------------------------------------- gamma

def test_gamma_classical_values():
    assert _coefficient(1.0, 1) == 1.0  # Gamma(2)
    expected = math.sqrt(math.pi) / 2.0  # Gamma(1.5)
    assert abs(_coefficient(0.5, 1) - expected) <= 1e-13 * expected
    assert abs(_coefficient(1.0, 4) - 24.0) <= 1e-13 * 24.0  # Gamma(5)


def test_gamma_functional_equation():
    # Gamma(x + 1) = x Gamma(x) with x = alpha*j + 1, for x from 1.25 to 99
    for alpha in (0.25, 0.5):
        step = round(1.0 / alpha)
        for j in range(1, round(98.0 / alpha) + 1):
            x = alpha * j + 1.0
            lhs = _coefficient(alpha, j + step)
            assert abs(lhs - x * _coefficient(alpha, j)) <= 1e-12 * lhs, (alpha, j)


def test_gamma_domain_and_overflow():
    # the coefficients are formed only for 0 < alpha, where alpha*j + 1 >= 1
    with pytest.raises(DomainError):
        mittag_leffler(0.0, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(-2.5, -1.0)
    # Gamma(201) overflows its block; the series takes that term in log space
    assert _coefficient(1.0, 200) == math.inf
    term, size = next(itertools.islice(fracorder.special._ml_power_terms(1.0, 2.0), 199, None))
    expected = math.exp(200 * math.log(2.0) - math.lgamma(201.0))  # 2**200 / 200!
    assert term == size
    assert abs(term - expected) <= 1e-11 * expected


# -------------------------------------------------------------- digamma

def test_digamma_classical_values():
    psi_1_5 = 2.0 - EULER_GAMMA - 2.0 * math.log(2.0)
    assert abs(_coefficient(0.5, 1, _psi_block) - psi_1_5) <= 1e-12
    assert abs(_coefficient(0.5, 2, _psi_block) - (1.0 - EULER_GAMMA)) <= 1e-12


def _digamma_series(x, terms=1_000_000):
    # literal slowly-converging series with an integral tail correction
    n = np.arange(1, terms + 1, dtype=float)
    partial = np.sum(1.0 / n - 1.0 / (n + x))
    tail = math.log1p(x / (terms + 0.5))
    return -EULER_GAMMA - 1.0 / x + partial + tail


@pytest.mark.parametrize("x", [3.25, 10.5, 42.0])
def test_digamma_matches_literal_series(x):
    psi = _coefficient(0.25, round((x - 1.0) / 0.25), _psi_block)  # x = 0.25*j + 1
    assert abs(psi - _digamma_series(x)) <= 1e-11 * max(1.0, abs(psi))


def test_digamma_frozen_value():
    psi = _coefficient(0.5, 19, _psi_block)  # psi(10.5)
    assert abs(psi - DIGAMMA_10_5) <= 1e-13 * DIGAMMA_10_5


def test_digamma_domain():
    # the derivative forms psi(alpha*j + 1) only for 0 < alpha < 1
    with pytest.raises(DomainError):
        ml_alpha_derivative(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ml_alpha_derivative(-1.0, 1.0, 1.0)


# ---------------------------------------------------------- gamma_ratio

def test_gamma_ratio_closed_form():
    # Gamma(2)/Gamma(2.5) = 4/(3 sqrt(pi))
    expected = 4.0 / (3.0 * math.sqrt(math.pi))
    assert abs(_coefficient_ratio(0.5, 2) - expected) <= 1e-13 * expected


def test_gamma_ratio_alpha_one_boundary():
    # at alpha -> 1 the ratio is Gamma(j+1)/Gamma(j+2) = 1/(j+1)
    for j in (2, 5, 17):
        assert abs(_coefficient_ratio(1.0 - 1e-12, j) - 1.0 / (j + 1)) <= 1e-9 / (j + 1)


def test_gamma_ratio_frozen_value():
    ratio = _coefficient_ratio(0.75, 200)
    assert abs(ratio - GAMMA_RATIO_075_200) <= 5e-12 * GAMMA_RATIO_075_200


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_gamma_ratio_decay(alpha):
    last = _last_finite_ratio(alpha)
    values = [_coefficient_ratio(alpha, j) for j in range(10, last + 1)]
    assert all(b < a for a, b in zip(values, values[1:]))
    # within 5% of the limiting power law at the last j
    asym = (alpha * (last + 1)) ** -alpha
    assert abs(values[-1] - asym) <= 0.05 * asym
    # Wendel's bounds with y = alpha*j + 1:
    # y**-alpha <= Gamma(y)/Gamma(y + alpha) <= y**-alpha * (1 + alpha/y)**(1 - alpha)
    for j, ratio in zip(range(10, last + 1), values):
        y = alpha * j + 1.0
        assert y ** -alpha <= ratio <= y ** -alpha * (1.0 + alpha / y) ** (1.0 - alpha), j


def test_gamma_ratio_domain():
    # the ratios decay, and the series converges, only for 0 < alpha
    with pytest.raises(DomainError):
        mittag_leffler(-0.5, 3.0)
    with pytest.raises(DomainError):
        ml_alpha_derivative(-0.5, 3.0, 1.0)


# -------------------------------------------------------------- sinpi

def test_sinpi_lattice_exactness():
    for k in range(-5, 6):
        assert sinpi(float(k)) == 0.0
    assert sinpi(0.5) == 1.0
    assert sinpi(1.5) == -1.0
    assert abs(sinpi(0.25) - math.sin(math.pi / 4)) <= 1e-15


# ------------------------------------------------------- mittag_leffler

def test_ml_at_zero_is_one():
    assert mittag_leffler(0.6, 0.0) == 1.0


def test_ml_alpha_one_is_exp():
    assert abs(mittag_leffler(1.0, -0.8) - math.exp(-0.8)) <= 1e-14


def test_ml_half_alpha_erfc_point():
    value = mittag_leffler(0.5, -1.0, rel_tol=1e-12)
    assert abs(value - ML_REFERENCE[(0.5, -1.0)]) <= 1e-11


def test_ml_reference_decay_factor():
    # 0.5 * E_0.75(-0.4 * 2^0.75) is the measured value 0.25818 (5 digits)
    value = mittag_leffler(0.75, -0.4 * 2.0**0.75, rel_tol=1e-12)
    assert abs(value - 0.51636) <= 5e-6
    assert abs(value - ML_REFERENCE[(0.75, -0.6727171322029716)]) <= 1e-12


@pytest.mark.parametrize("alpha,z,rel_tol", [
    (0.5, -1.0, 1e-12),
    (0.75, -0.6727171322029716, 1e-12),
    (0.25, -2.0202020202020203, 1e-6),
    (0.5, -4.545454545454546, 1e-8),
    (0.75, -9.595959595959597, 1e-6),
    (0.5, -5.0, 1e-8),
    (0.5, -10.0, 1e-10),
    (0.25, -2.525252525252525, 1e-10),
    (0.75, -5.05050505050505, 1e-8),
    (0.9, -3.5740076294668047, 1e-10),
    (0.999, -4.489690430557375, 1e-10),
])
def test_ml_certified_accuracy(alpha, z, rel_tol):
    # every certified return must actually meet the requested tolerance
    expected = ML_REFERENCE[(alpha, z)]
    value = mittag_leffler(alpha, z, rel_tol=rel_tol)
    assert abs(value - expected) <= rel_tol * abs(expected)


def test_ml_exponential_consistency():
    for x in np.linspace(0.0, 20.0, 50):
        expected = math.exp(-x)
        assert abs(mittag_leffler(1.0, -x) - expected) <= 1e-10 * expected


def test_ml_erfc_identity():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        expected = float(erfcx(x))
        value = mittag_leffler(0.5, -x, rel_tol=1e-8)
        assert abs(value - expected) <= 1e-8 * expected


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_ml_negative_axis_decreasing_and_bounded(alpha):
    xs = np.linspace(0.0, 50.0, 100)
    values = [mittag_leffler(alpha, -float(x), rel_tol=1e-5) for x in xs]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


# recorded empirical bounds on sup (1+x) E_alpha(-x); the sup sits at x=0
_DECAY_ENVELOPE_BOUND = {0.25: 1.0 + 1e-9, 0.5: 1.0 + 1e-9, 0.75: 1.0 + 1e-9}


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_ml_uniform_decay_envelope(alpha):
    xs = np.linspace(0.0, 100.0, 201)
    sup = max((1.0 + x) * mittag_leffler(alpha, -float(x), rel_tol=1e-5) for x in xs)
    assert math.isfinite(sup)
    assert sup <= _DECAY_ENVELOPE_BOUND[alpha]


def test_ml_positive_axis_increasing():
    zs = np.linspace(0.0, 2.0, 40)
    values = [mittag_leffler(0.5, float(z), rel_tol=1e-12) for z in zs]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ml_domain_errors():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.2, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 6.0)  # above the positive cutoff
    with pytest.raises(DomainError):
        mittag_leffler(0.5, math.nan)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, -1.0, rel_tol=1e-16)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, -1.0, rel_tol=1e-2)


def test_ml_accuracy_refusal_in_crossover():
    # between series and tail expansion only modest accuracy is attainable
    with pytest.raises(AccuracyError):
        mittag_leffler(0.25, -2.0202020202020203, rel_tol=1e-10)


def test_ml_overflow_for_large_positive():
    with pytest.raises(OverflowError):
        mittag_leffler(0.2, 5.0)


# ------------------------------------------------- _mittag_leffler_lanes

def _outcome(fn, *args):
    """Float bytes of a result (a list for an array), or (type, message)."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return [v.hex() for v in value.tolist()]
    return value.hex()


def _clear_coefficient_caches():
    fracorder.special._gamma_block.cache_clear()
    fracorder.special._psi_block.cache_clear()


def _outcomes_in_every_cache_state(fn, args, interleaved):
    """`_outcome(fn, *a)` for each `a` in `args`, asserting that the cached
    coefficient blocks change no bit and no refusal: cold (caches cleared
    before each call), warm in order, and warm in the order `interleaved`,
    in which neighbouring calls have different orders."""
    cold = []
    for a in args:
        _clear_coefficient_caches()
        cold.append(_outcome(fn, *a))
    assert [_outcome(fn, *a) for a in args] == cold
    mixed = {k: _outcome(fn, *args[k]) for k in interleaved}
    assert [mixed[k] for k in range(len(args))] == cold
    return cold


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_ml_lanes_match_scalar_on_map(rel_tol):
    grid_alpha, grid_x = np.meshgrid(np.linspace(0.05, 0.95, 19), np.logspace(-3, 4, 200),
                                     indexing="ij")
    alphas = grid_alpha.ravel()
    zs = -grid_x.ravel()
    # the series, the hand-over band and the tail, whatever the caches hold
    z_major = np.arange(alphas.size).reshape(grid_x.shape).T.ravel().tolist()
    scalar = _outcomes_in_every_cache_state(
        mittag_leffler, [(a, z, rel_tol) for a, z in zip(alphas, zs)], z_major)
    refused = [k for k, out in enumerate(scalar) if isinstance(out, tuple)]
    shapes = grid_x.ravel() ** (1.0 / alphas)
    # the map reaches the series/tail hand-over band, where the scalar path refuses
    assert any(10.0 <= shapes[k] <= 30.0 for k in refused)
    # and refusals the batch must reach itself, below the tail's cutoff of 14
    assert any(shapes[k] < 14.0 for k in refused)
    certified = np.array([isinstance(out, str) for out in scalar])

    assert _outcome(_mittag_leffler_lanes, alphas[certified], zs[certified], rel_tol) == \
        [out for out in scalar if isinstance(out, str)]
    for k in refused:
        assert _outcome(_mittag_leffler_lanes, alphas[k:k + 1], zs[k:k + 1], rel_tol) == scalar[k]
    # the whole map refuses as the lane-by-lane loop does: at its first refusal
    assert _outcome(_mittag_leffler_lanes, alphas, zs, rel_tol) == scalar[refused[0]]


def test_ml_lanes_off_the_series_region():
    # alpha = 1, z = 0, z > 0 and the tail expansion, around two series lanes
    alphas = np.array([1.0, 0.5, 0.99, 0.5, 0.9, 0.3, 0.7])
    zs = np.array([-2.0, 0.0, -4.0, 1.5, 3.0, -1e3, -0.5])
    assert _outcome(_mittag_leffler_lanes, alphas, zs, 1e-10) == \
        [_outcome(mittag_leffler, a, z, 1e-10) for a, z in zip(alphas, zs)]
    assert _outcome(_mittag_leffler_lanes, np.array([]), np.array([]), 1e-10) == []


def test_ml_lanes_domain_errors_match_scalar():
    bad = [([0.5, 1.5], [-1.0, -1.0], 1e-10),
           ([0.5, 0.5], [-1.0, math.nan], 1e-10),
           ([0.5, 0.5], [-1.0, 6.0], 1e-10),
           ([0.5], [-1.0], 1e-2)]
    for alphas, zs, rel_tol in bad:
        first = next(out for out in (_outcome(mittag_leffler, a, z, rel_tol)
                                     for a, z in zip(alphas, zs)) if isinstance(out, tuple))
        assert first[0] is DomainError
        assert _outcome(_mittag_leffler_lanes, np.array(alphas), np.array(zs), rel_tol) == first


# --------------------------------------------------- ml_alpha_derivative

ML_DERIVATIVE_REFERENCE = {
    (0.5, 0.4, 1.0): -0.051558177564882101,
    (0.75, 0.4, 2.0): -0.27018758082389074,
    (0.5, 0.05, 10.0): -0.32301583870530915,
}


def test_derivative_log_time_zero():
    # at t = 1 only the digamma part contributes; finite and frozen
    value = ml_alpha_derivative(0.5, 0.4, 1.0)
    assert math.isfinite(value)
    assert abs(value - ML_DERIVATIVE_REFERENCE[(0.5, 0.4, 1.0)]) <= 1e-12


@pytest.mark.parametrize("key", sorted(ML_DERIVATIVE_REFERENCE))
def test_derivative_frozen_values(key):
    expected = ML_DERIVATIVE_REFERENCE[key]
    assert abs(ml_alpha_derivative(*key) - expected) <= 1e-12 * abs(expected)


def _central_difference(alpha, c, t, h=1e-6):
    upper = mittag_leffler(alpha + h, -c * t ** (alpha + h), rel_tol=2e-12)
    lower = mittag_leffler(alpha - h, -c * t ** (alpha - h), rel_tol=2e-12)
    return (upper - lower) / (2.0 * h)


@pytest.mark.parametrize("c,t", [(0.4, 2.0), (0.05, 10.0), (0.45, 10.0)])
def test_derivative_matches_central_difference(c, t):
    for k in range(1, 10):
        alpha = k / 10
        analytic = ml_alpha_derivative(alpha, c, t)
        numeric = _central_difference(alpha, c, t)
        assert abs(analytic - numeric) <= 1e-5 * abs(numeric)


def test_derivative_domain_errors():
    with pytest.raises(DomainError):
        ml_alpha_derivative(1.0, 0.4, 2.0)
    with pytest.raises(DomainError):
        ml_alpha_derivative(0.0, 0.4, 2.0)
    with pytest.raises(DomainError):
        ml_alpha_derivative(0.5, 0.0, 2.0)
    with pytest.raises(DomainError):
        ml_alpha_derivative(0.5, 0.4, 0.0)


def test_derivative_overflow_is_accuracy_error():
    # the series terms pass the double range; the refusal names the inputs
    with pytest.raises(AccuracyError) as exc_info:
        ml_alpha_derivative(0.3, 20.0, 1.0)
    message = str(exc_info.value)
    assert "alpha=0.3" in message and "c=20" in message and "t=1" in message


def test_derivative_sweep_refuses_only_by_documented_errors():
    args = [(alpha, c, t) for t in (1.0, 3.0) for alpha in np.linspace(0.1, 0.9, 9).tolist()
            for c in np.logspace(-2, 3, 20).tolist()]
    c_major = np.arange(len(args)).reshape(2 * 9, 20).T.ravel().tolist()
    outcomes = _outcomes_in_every_cache_state(ml_alpha_derivative, args, c_major)
    for a, out in zip(args, outcomes):
        if isinstance(out, tuple):
            assert out[0] is AccuracyError, (a, out)
        else:
            assert math.isfinite(float.fromhex(out)), (a, out)


def _order_derivative_oracle(alpha, points):
    """d/dalpha E_alpha(-c t**alpha) at each (c, t) in `points`, as floats.

    The order derivative of the power series, sum_j (-x)**j j
    (ln t - psi(alpha j + 1)) / Gamma(alpha j + 1) with x = c t**alpha, is
    summed in mpmath at x**(1/alpha) / ln 10 + 30 digits, which covers the
    cancellation of terms as large as exp(x**(1/alpha)).  All points share one
    set of coefficients j/Gamma(alpha j + 1) and j psi(alpha j + 1)/Gamma(alpha j + 1).
    """
    x_max = max(c * t ** alpha for c, t in points)
    shape = x_max ** (1.0 / alpha)
    log_t_max = max(abs(math.log(t)) for _, t in points)
    dps = int(shape / math.log(10.0)) + 30
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        eps = mpmath.mpf(10) ** (-dps)
        plain, digamma_weighted = [mpmath.mpf(0)], [mpmath.mpf(0)]
        j = 0
        while True:
            j += 1
            weight = j / mpmath.gamma(a * j + 1)
            psi = mpmath.digamma(a * j + 1)
            plain.append(weight)
            digamma_weighted.append(weight * psi)
            # terms shrink once alpha*j passes x**(1/alpha)
            if (alpha * j > shape + 1.0
                    and weight * (log_t_max + abs(psi)) * mpmath.mpf(x_max) ** j < eps):
                break
        out = []
        for c, t in points:
            y = -mpmath.mpf(c) * mpmath.mpf(t) ** a
            p = q = mpmath.mpf(0)
            for u, v in zip(reversed(plain), reversed(digamma_weighted)):  # Horner in -x
                p = p * y + u
                q = q * y + v
            out.append(float(mpmath.log(t) * p - q))
        return out


def test_derivative_accepted_values_match_oracle():
    # every value the series certifies is within rel_tol of a high-precision sum
    rel_tol = 1e-10
    accepted = 0
    for alpha in np.linspace(0.05, 0.95, 19).tolist():
        points, values = [], []
        for t in (1.0, 3.0):
            for c in np.logspace(-2, 3, 40).tolist():
                try:
                    values.append(ml_alpha_derivative(alpha, c, t, rel_tol))
                except AccuracyError:
                    continue
                points.append((c, t))
        if not points:
            continue
        accepted += len(points)
        for (c, t), value, exact in zip(points, values, _order_derivative_oracle(alpha, points)):
            assert abs(value - exact) <= rel_tol * abs(exact), (alpha, c, t, value, exact)
    # 690 of the 1,520 points are certified; a lower count is lost coverage
    assert accepted >= 690


def test_derivative_refuses_cancelled_values():
    # each was once returned as certified, far from the true slope
    for alpha, c, t, true_slope in ((0.25, 2.030917620904735, 3.0, -0.35056),
                                    (0.3, 2.7283333764867668, 1.0, -0.15186),
                                    (0.6, 4.923882631706737, 3.0, -0.15933)):
        with pytest.raises(AccuracyError, match="cancellation leaves error"):
            ml_alpha_derivative(alpha, c, t)
        assert abs(_order_derivative_oracle(alpha, [(c, t)])[0] - true_slope) <= 1e-4


# ------------------------------------------------ coefficient blocks

def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _port_mismatches(port, reference, xs):
    """(count, first few arguments) where the port's bits differ from scipy's."""
    xs = np.asarray(xs, dtype=float)
    bad = xs[_bits([port(x) for x in xs.tolist()]) != _bits(reference(xs))]
    return bad.size, bad[:5].tolist()


def test_ports_return_scipy_bits():
    # every Gamma/psi argument alpha*j + 1 of the series, j <= 700, at the
    # default scan orders and a map of 19 orders, plus every log Gamma
    # argument: alpha*k of the tail (orders down to 1e-9) and alpha*j + 1
    # past Gamma's range, and seeded points in [1e-3, 2e4]
    orders = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 99), np.linspace(0.05, 0.95, 19)])
    series = (orders[:, None] * np.arange(1, 701) + 1.0).ravel()
    tail_orders = np.concatenate([orders, np.logspace(-9, -3, 13)])
    tail = (tail_orders[:, None] * np.arange(1, fracorder.special.ASYM_MAX_TERMS + 1)).ravel()
    log_series = (orders[:, None] * np.arange(1, fracorder.special.DERIV_MAX_TERMS + 1)
                  + 1.0).ravel()
    seeded = np.random.default_rng(9).uniform(1e-3, 2e4, 20000)
    assert tail.min() <= 1e-9
    for port, reference, xs in (
            (fracorder.special._gamma, scipy.special.gamma, series),
            (fracorder.special._psi, scipy.special.psi, series),
            (fracorder.special._gammaln, scipy.special.gammaln,
             np.concatenate([tail, log_series[log_series > 170.0], seeded]))):
        assert _port_mismatches(port, reference, xs) == (0, []), port.__name__
    # Gamma overflows where scipy's does, integers and half-integers included
    edge = [170.0, 171.0, 171.5, 171.6243769563027, 171.62437695630274, 172.0, 500.5,
            1.0, 2.0, 3.0, 10.0, 33.0, 33.5, 1.5, 2.5]
    assert _port_mismatches(fracorder.special._gamma, scipy.special.gamma, edge) == (0, [])
    assert _port_mismatches(fracorder.special._psi, scipy.special.psi,
                            [1.0, 2.0, 9.0, 10.0, 10.5, 11.0, 1.4616321449683622]) == (0, [])
    # far past the series, where Cephes drops terms below half an ulp
    huge = np.logspace(8, 300, 200)
    assert _port_mismatches(fracorder.special._psi, scipy.special.psi, huge) == (0, [])
    assert _port_mismatches(fracorder.special._gammaln, scipy.special.gammaln, huge) == (0, [])


def test_series_read_gamma_and_psi_blocks_once(port_calls):
    value = ml_alpha_derivative(0.3, 1.0, 3.0)  # 65-96 terms: three blocks of each
    for name, args in port_calls.items():
        assert all(np.ndim(x) == 1 for x in args), name  # no per-term scalar call
        starts = [x[0] for x in args]
        assert len(starts) == len(set(starts)) == 3, name
        args.clear()
    # warm: the same order reads its blocks again, and E_alpha never pays for psi
    assert ml_alpha_derivative(0.3, 1.0, 3.0) == value
    mittag_leffler(0.3, -3.0 ** 0.3)
    assert port_calls == {"_gamma": [], "_psi": []}
    _clear_coefficient_caches()
    mittag_leffler(0.3, -3.0 ** 0.3)
    assert [x[0] for x in port_calls["_gamma"]] == [0.3 * j + 1.0 for j in (1, 33, 65)]
    assert port_calls["_psi"] == []


def test_concurrent_orders_reproduce_serial_bits():
    # each thread sweeps its own 120 orders: more blocks than a cache keeps, so
    # builds, hits and evictions of both caches interleave across threads
    orders = np.linspace(0.05, 0.95, 4 * 120).reshape(4, 120).tolist()

    def sweep(alphas):
        return [(_outcome(mittag_leffler, a, -0.5), _outcome(mittag_leffler, a, -3.0),
                 _outcome(ml_alpha_derivative, a, 0.4, 2.0)) for a in alphas]

    _clear_coefficient_caches()
    serial = [sweep(alphas) for alphas in orders]
    _clear_coefficient_caches()
    results = [None] * len(orders)
    barrier = threading.Barrier(len(orders))

    def work(k):
        barrier.wait(timeout=60)
        results[k] = [sweep(orders[k]) for _ in range(3)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[rows] * 3 for rows in serial]
    # the caches stay bounded whatever the number of orders
    for block in (fracorder.special._gamma_block, fracorder.special._psi_block):
        info = block.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize
