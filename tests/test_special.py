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
from fracorder.special import _BLOCK, _gamma_block, _ml_power_series, _psi

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
# Both power series read Gamma(alpha*j + 1), j >= 1, from the cached blocks
# that start at j = 1, 33, 65, ..., and the order derivative computes
# psi(alpha*j + 1) at the same float; these tests check the classical
# identities on exactly those values.

def _coefficient(alpha, j):
    """Gamma(alpha*j + 1) as the series reads it."""
    start = 1 + (j - 1) // _BLOCK * _BLOCK
    return _gamma_block(alpha, start)[j - start]


def _digamma(alpha, j):
    """psi(alpha*j + 1) as the order derivative computes it."""
    return _psi(alpha * j + 1.0)


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
    # Gamma(201) overflows its block; the derivative series refuses a term
    # past Gamma argument 170, and the E series stops long before it reads them
    assert _coefficient(1.0, 200) == math.inf


# -------------------------------------------------------------- digamma

def test_digamma_classical_values():
    psi_1_5 = 2.0 - EULER_GAMMA - 2.0 * math.log(2.0)
    assert abs(_digamma(0.5, 1) - psi_1_5) <= 1e-12
    assert abs(_digamma(0.5, 2) - (1.0 - EULER_GAMMA)) <= 1e-12


def _digamma_series(x, terms=1_000_000):
    # literal slowly-converging series with an integral tail correction
    n = np.arange(1, terms + 1, dtype=float)
    partial = np.sum(1.0 / n - 1.0 / (n + x))
    tail = math.log1p(x / (terms + 0.5))
    return -EULER_GAMMA - 1.0 / x + partial + tail


@pytest.mark.parametrize("x", [3.25, 10.5, 42.0])
def test_digamma_matches_literal_series(x):
    psi = _digamma(0.25, round((x - 1.0) / 0.25))  # x = 0.25*j + 1
    assert abs(psi - _digamma_series(x)) <= 1e-11 * max(1.0, abs(psi))


def test_digamma_frozen_value():
    psi = _digamma(0.5, 19)  # psi(10.5)
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

def test_sinpi_domain_errors():
    # [10**5000] has no repr (past the 4300-digit limit); the refusal still names it
    for bad in (True, "0.5", None, 10**400, [10**5000], math.nan, math.inf):
        with pytest.raises(DomainError, match="^sinpi: argument "):
            sinpi(bad)
    assert sinpi(3) == 0.0 and sinpi(np.float64(0.5)) == 1.0


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


def test_ml_domain_errors():
    # a bool, a non-real or a number past the double range, named
    for args, name in [((True, -1.0), "alpha"), ((0.5, True), "z"), ((0.5, "-1.0"), "z"),
                       ((0.5, -1.0, "1e-10"), "rel_tol"), ((10**400, -1.0), "alpha"),
                       ((0.5, -10**400), "z"), ((0.5, -1.0, 10**400), "rel_tol"),
                       (([10**5000], -1.0), "alpha")]:
        with pytest.raises(DomainError, match=f"^mittag_leffler: {name} "):
            mittag_leffler(*args)
    with pytest.raises(DomainError):
        mittag_leffler(0.0, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.2, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 6.0)  # positive z
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


def test_ml_refuses_positive_z():
    # the decay axis z <= 0 holds every time factor of the solution
    for z in (5e-324, 1.0, 5.0):
        with pytest.raises(DomainError, match="^mittag_leffler: z "):
            mittag_leffler(0.5, z)
    for alpha in (0.5, 1.0):
        assert mittag_leffler(alpha, 0.0) == 1.0
        assert mittag_leffler(alpha, -0.0) == 1.0


# ------------------------------------- power series against its reference

def _per_term_power_series(alpha, z, rel_tol):
    """The power series of E_alpha(z) with its range tested at every term:
    the reference whose bits `_ml_power_series` must return.  Returns its
    (value, error, converged) and the number of terms it took in log space,
    past the double range of z**j or of Gamma."""
    special = fracorder.special
    threshold = 0.125 * rel_tol
    total = 1.0
    abs_sum = 1.0
    comp = 0.0
    small_run = 0
    tail = 0.0
    zpow = 1.0
    log_space = 0
    j = 0
    while j < special.TAYLOR_MAX_TERMS:
        for gamma_g in _gamma_block(alpha, j + 1)[:special.TAYLOR_MAX_TERMS - j]:
            j += 1
            g = alpha * j + 1.0
            zpow *= z
            if g <= 170.0 and math.isfinite(zpow):
                term = zpow / gamma_g
            else:
                log_space += 1
                term = math.exp(j * math.log(abs(z)) - special._gammaln(g))
                if z < 0.0 and j & 1:
                    term = -term
            size = abs(term)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            abs_sum += size
            scale = abs(total)
            if size <= threshold * (1e-300 if 1e-300 > scale else scale):
                small_run += 1
                if size > tail:
                    tail = size
                if small_run == 3:
                    return (total + comp, 2.0 * tail + 6.0 * special._EPS * abs_sum, True), log_space
            else:
                small_run = 0
                tail = 0.0
    return (total + comp, math.inf, False), log_space


def _series_mismatches(args):
    """The arguments where `_ml_power_series` and its reference differ in a
    bit of the value or the error, or in `converged`, or where the reference
    takes a term in log space."""
    mismatches = []
    for a in args:
        value, err, converged = _ml_power_series(*a)
        (ref_value, ref_err, ref_converged), log_space = _per_term_power_series(*a)
        if (log_space or converged is not ref_converged
                or (value.hex(), err.hex()) != (ref_value.hex(), ref_err.hex())):
            mismatches.append(a)
    return mismatches


def _in_series_region(alpha, z):
    """Where `_mittag_leffler` hands z to the power series."""
    return alpha < 1.0 and z < 0.0 and (-z) ** (1.0 / alpha) <= fracorder.special._S_ASYM_ONLY


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12, 1e-15])
def test_power_series_matches_per_term_reference_on_map(rel_tol):
    # the map's points that the dispatcher hands to the series
    alphas = np.linspace(0.05, 0.95, 19).tolist()
    args = [(a, -x, rel_tol) for a in alphas for x in np.logspace(-3, 4, 200).tolist()
            if _in_series_region(a, -x)]
    assert len(args) > 1000
    assert _series_mismatches(args) == []


@pytest.mark.parametrize("rel_tol", [1e-15, 1e-12, 1e-8, 1e-3])
def test_power_series_stays_in_double_range(rel_tol):
    # |z|**(1/alpha) up to 30 from the smallest orders to the edge of 1: the
    # series stops, or its budget ends, before a term leaves the double range
    alphas = (np.logspace(-3, -1, 8).tolist() + np.linspace(0.12, 0.96, 22).tolist()
              + [0.99, 0.999, 1.0 - 1e-5, 1.0 - 1e-6, 1.0 - 1e-7])
    args = [(a, -(s ** a), rel_tol) for a in alphas for s in np.linspace(0.125, 30.0, 230).tolist()]
    args = [(a, z, tol) for a, z, tol in args if _in_series_region(a, z)]  # rounding at 30
    assert len(args) >= 8000
    assert _series_mismatches(args) == []


def test_power_series_matches_per_term_reference_on_underflowing_powers():
    # z**2 underflows to 0.0 and z**3 to -0.0: the third, deciding small
    # term is a signed zero, whose size the reference takes with abs()
    zs = (-5e-324, -1e-310, -1e-300, -1e-200)
    assert all(math.copysign(1.0, z * z * z) == -1.0 and z * z * z == 0.0 for z in zs)
    args = [(a, z, rel_tol) for z in zs for a in (0.001, 0.05, 0.5, 0.95)
            for rel_tol in (1e-15, 1e-10, 1e-3)]
    assert all(_ml_power_series(*a)[2] for a in args)
    assert _series_mismatches(args) == []


def test_power_series_matches_per_term_reference_past_block_range():
    # alpha = 0.001 runs the whole budget of 500 terms, whose last block is sliced
    assert _per_term_power_series(0.001, -1.0, 1e-12)[0][2] is False
    assert _series_mismatches([(0.001, -1.0, 1e-12)]) == []


# ------------------------------------------- coefficient cache states

def _outcome(fn, *args):
    """Float bytes of a result, or (type, message)."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _clear_gamma_blocks():
    fracorder.special._gamma_block.cache_clear()


def _outcomes_in_every_cache_state(fn, args, interleaved):
    """`_outcome(fn, *a)` for each `a` in `args`, asserting that the cached
    Gamma blocks change no bit and no refusal: cold (cache cleared before
    each call), warm in order, and warm in the order `interleaved`,
    in which neighbouring calls have different orders."""
    cold = []
    for a in args:
        _clear_gamma_blocks()
        cold.append(_outcome(fn, *a))
    assert [_outcome(fn, *a) for a in args] == cold
    mixed = {k: _outcome(fn, *args[k]) for k in interleaved}
    assert [mixed[k] for k in range(len(args))] == cold
    return cold


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_ml_same_in_every_cache_state_on_map(rel_tol):
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
    # and refusals of the power series alone, below the tail's cutoff of 14
    assert any(shapes[k] < 14.0 for k in refused)


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


def test_derivative_of_underflowed_argument_is_zero():
    # c * t**alpha underflows to 0: every term is 0 and so is the slope
    assert ml_alpha_derivative(0.5, 5e-324, 0.1) == 0.0
    assert fracorder.special._ml_alpha_derivative(0.5, 0.0, 2.0, 1e-10) == 0.0


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
    for args, name in [((True, 0.4, 2.0), "alpha"), ((0.5, True, 2.0), "c"),
                       ((0.5, 0.4, "2.0"), "t"), ((0.5, 0.4, 2.0, True), "rel_tol"),
                       ((0.5, 10**400, 2.0), "c"), ((0.5, 0.4, 10**400), "t"),
                       ((0.5, [10**5000], 1.0), "c")]:
        with pytest.raises(DomainError, match=f"^ml_alpha_derivative: {name} "):
            ml_alpha_derivative(*args)
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


# ------------------------------------------ derivative against its reference

def _sum_terms(terms, total, abs_sum, threshold):
    """Compensated sum of `total` and the terms of the (term, size) pairs in
    `terms`, by the stop rule and error estimate of the power series:
    (value, abs_error_estimate, converged)."""
    comp = 0.0
    small_run = 0
    tail = 0.0
    for term, size in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += size
        scale = abs(total)
        if size <= threshold * (1e-300 if 1e-300 > scale else scale):
            small_run += 1
            if size > tail:
                tail = size
            if small_run == 3:
                return total + comp, 2.0 * tail + 6.0 * fracorder.special._EPS * abs_sum, True
        else:
            small_run = 0
            tail = 0.0
    return total + comp, math.inf, False


def _derivative_terms(alpha, c, t, log_space):
    """(w_j * (ln t - psi_j), |w_j| * (|ln t| + |psi_j|)) for j = 1 ..
    DERIV_MAX_TERMS, w_j = (-x)**j * j / Gamma(alpha*j + 1), x = c * t**alpha.
    A term whose Gamma argument passes 170, or whose x**j leaves the double
    range, is taken in log space and its j appended to `log_space`; a weight
    past the double range raises AccuracyError."""
    special = fracorder.special
    x = c * t**alpha
    ln_t = math.log(t)
    xpow = 1.0
    j = 0
    while j < special.DERIV_MAX_TERMS:
        for gamma_g in _gamma_block(alpha, j + 1)[:special.DERIV_MAX_TERMS - j]:
            j += 1
            g = alpha * j + 1.0
            psi_g = _psi(g)
            xpow *= x
            if g <= 170.0 and math.isfinite(xpow):
                w = j * xpow / gamma_g
            else:
                log_space.append(j)
                try:
                    w = j * math.exp(j * math.log(x) - special._gammaln(g))
                except OverflowError:
                    w = math.inf
            if j & 1:
                w = -w
            weight = abs(w) * (abs(ln_t) + abs(psi_g))
            if not math.isfinite(weight):
                raise AccuracyError("series terms exceed the double range")
            yield w * (ln_t - psi_g), weight


def _log_space_reference(alpha, c, t, rel_tol):
    """The order derivative as a term generator summed by `_sum_terms`, taking
    terms past the double range in log space: the value it certifies, or None
    for a refusal, and the number of terms it took in log space."""
    log_space = []
    try:
        value, err, converged = _sum_terms(_derivative_terms(alpha, c, t, log_space),
                                           0.0, 0.0, 0.125 * rel_tol)
    except AccuracyError:
        return None, len(log_space)
    if not converged or err > rel_tol * abs(value):
        return None, len(log_space)
    return value, len(log_space)


def test_derivative_matches_log_space_reference():
    # orders, c and t across the domain and tolerances across their range;
    # where the reference takes a term in log space, its sum is refused, and
    # the loop refuses there too, without such terms
    alphas = np.linspace(0.001, 0.999, 45).tolist()[::2]
    cs = np.logspace(-3, 4, 60).tolist()[::2]
    args = [(a, c, t, tol) for a in alphas for c in cs for t in np.logspace(-2, 3, 9).tolist()
            for tol in (1e-15, 1e-10, 1e-3)]
    args += [(0.375, 4.763938010401341, 1.0, 1e-10), (0.9, 32.24590545296398, 10.0, 1e-10)]
    accepted = log_space_points = 0
    for a in args:
        reference, log_space = _log_space_reference(*a)
        outcome = _outcome(fracorder.special._ml_alpha_derivative, *a)
        if reference is None:
            assert isinstance(outcome, tuple) and outcome[0] is AccuracyError, (a, outcome)
        else:
            assert outcome == reference.hex(), (a, outcome, reference)
            accepted += 1
        if log_space:
            assert reference is None, a
            assert "series terms exceed the double range" in outcome[1], (a, outcome)
            log_space_points += 1
    # 1,974 of the 18,632 points take a log-space term and 5,896 are certified
    assert log_space_points >= 1900 and accepted >= 5800
    for a in args[-2:]:
        assert _log_space_reference(*a)[1] > 0, a


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
    # argument: alpha*k of the tail (orders down to 1e-9), and seeded points
    # in [1e-3, 2e4]
    orders = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 99), np.linspace(0.05, 0.95, 19)])
    series = (orders[:, None] * np.arange(1, 701) + 1.0).ravel()
    tail_orders = np.concatenate([orders, np.logspace(-9, -3, 13)])
    tail = (tail_orders[:, None] * np.arange(1, fracorder.special.ASYM_MAX_TERMS + 1)).ravel()
    seeded = np.random.default_rng(9).uniform(1e-3, 2e4, 20000)
    assert tail.min() <= 1e-9
    for port, reference, xs in (
            (fracorder.special._gamma, scipy.special.gamma, series),
            (fracorder.special._psi, scipy.special.psi, series),
            (fracorder.special._gammaln, scipy.special.gammaln,
             np.concatenate([tail, seeded]))):
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


def test_series_build_gamma_blocks_once_and_psi_per_term(port_calls):
    # the terms the reference sums; it fills the Gamma cache past the log, so
    # empty both before the logged call
    summed = []
    _sum_terms((summed.append(pair) or pair for pair in _derivative_terms(0.3, 1.0, 3.0, [])),
               0.0, 0.0, 0.125e-10)
    assert 65 <= len(summed) <= 96  # three Gamma blocks
    per_term = [0.3 * j + 1.0 for j in range(1, len(summed) + 1)]
    _clear_gamma_blocks()
    for args in port_calls.values():
        args.clear()
    value = ml_alpha_derivative(0.3, 1.0, 3.0)
    # whole Gamma blocks, each built once; psi once per term summed, at its argument
    assert all(np.ndim(x) == 1 for x in port_calls["_gamma"])
    assert [x[0] for x in port_calls["_gamma"]] == [0.3 * j + 1.0 for j in (1, 33, 65)]
    assert port_calls["_psi"] == per_term
    port_calls["_gamma"].clear()
    port_calls["_psi"].clear()
    # warm: the same order reads its Gamma blocks again and computes psi again
    assert ml_alpha_derivative(0.3, 1.0, 3.0) == value
    assert port_calls == {"_gamma": [], "_psi": per_term}
    port_calls["_psi"].clear()
    # E_alpha never computes psi
    mittag_leffler(0.3, -3.0 ** 0.3)
    assert port_calls == {"_gamma": [], "_psi": []}
    _clear_gamma_blocks()
    mittag_leffler(0.3, -3.0 ** 0.3)
    assert [x[0] for x in port_calls["_gamma"]] == [0.3 * j + 1.0 for j in (1, 33, 65)]
    assert port_calls["_psi"] == []


def test_concurrent_orders_reproduce_serial_bits():
    # each thread sweeps its own 120 orders: more blocks than the cache keeps,
    # so builds, hits and evictions of Gamma blocks interleave across threads
    orders = np.linspace(0.05, 0.95, 4 * 120).reshape(4, 120).tolist()

    def sweep(alphas):
        return [(_outcome(mittag_leffler, a, -0.5), _outcome(mittag_leffler, a, -3.0),
                 _outcome(ml_alpha_derivative, a, 0.4, 2.0)) for a in alphas]

    _clear_gamma_blocks()
    serial = [sweep(alphas) for alphas in orders]
    _clear_gamma_blocks()
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
    # the cache stays bounded whatever the number of orders
    info = fracorder.special._gamma_block.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize
