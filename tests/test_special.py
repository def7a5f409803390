import math

import numpy as np
import pytest
from scipy.special import erfcx

from fracorder import (AccuracyError, ConvergenceError, DomainError, digamma, gamma_fn,
                       gamma_ratio, mittag_leffler, ml_alpha_derivative, sinpi)
from fracorder.special import _mittag_leffler_lanes

EULER_GAMMA = 0.5772156649015329

# Frozen references computed independently with 120-digit arithmetic
# (direct series for the Mittag-Leffler values, high-precision digamma and
# log-Gamma for the rest).
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
GAMMA_RATIO_075_1000 = 0.006978439749440172639


# ---------------------------------------------------------------- gamma

def test_gamma_classical_values():
    assert gamma_fn(1.0) == 1.0
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-13 * math.sqrt(math.pi)
    assert abs(gamma_fn(5.0) - 24.0) <= 1e-13 * 24.0


def test_gamma_functional_equation():
    for x in np.linspace(0.5, 100.0, 399):
        lhs = gamma_fn(x + 1.0)
        assert abs(lhs - x * gamma_fn(x)) <= 1e-12 * lhs


def test_gamma_domain_and_overflow():
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(-2.5)
    with pytest.raises(OverflowError):
        gamma_fn(200.0)


# -------------------------------------------------------------- digamma

def test_digamma_classical_values():
    assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-12
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-12


def _digamma_series(x, terms=1_000_000):
    # literal slowly-converging series with an integral tail correction
    n = np.arange(1, terms + 1, dtype=float)
    partial = np.sum(1.0 / n - 1.0 / (n + x))
    tail = math.log1p(x / (terms + 0.5))
    return -EULER_GAMMA - 1.0 / x + partial + tail


@pytest.mark.parametrize("x", [3.25, 10.5, 42.0])
def test_digamma_matches_literal_series(x):
    assert abs(digamma(x) - _digamma_series(x)) <= 1e-11 * max(1.0, abs(digamma(x)))


def test_digamma_frozen_value():
    assert abs(digamma(10.5) - DIGAMMA_10_5) <= 1e-13 * DIGAMMA_10_5


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-1.0)


# ---------------------------------------------------------- gamma_ratio

def test_gamma_ratio_closed_form():
    # Gamma(1)/Gamma(1.5) = 2/sqrt(pi)
    expected = 2.0 / math.sqrt(math.pi)
    assert abs(gamma_ratio(0.5, 2) - expected) <= 1e-13 * expected


def test_gamma_ratio_alpha_one_boundary():
    # at alpha -> 1 the ratio is Gamma(j)/Gamma(j+1) = 1/j
    for j in (2, 5, 17):
        assert abs(gamma_ratio(1.0 - 1e-12, j) - 1.0 / j) <= 1e-9 / j


def test_gamma_ratio_frozen_value():
    # log-space evaluation carries ~|log Gamma| * eps relative error
    assert abs(gamma_ratio(0.75, 1000) - GAMMA_RATIO_075_1000) <= 5e-12 * GAMMA_RATIO_075_1000


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_gamma_ratio_decay(alpha):
    values = [gamma_ratio(alpha, j) for j in range(10, 1001)]
    assert all(b < a for a, b in zip(values, values[1:]))
    # within 5% of the limiting power law at j = 1000
    asym = (alpha * 1001) ** -alpha
    assert abs(values[-1] - asym) <= 0.05 * asym
    # eventually drops below 1e-2 once the power law does
    j_small = math.ceil(1.1 * 100.0 ** (1.0 / alpha) / alpha)
    assert (alpha * (j_small + 1)) ** -alpha < 1e-2
    assert gamma_ratio(alpha, j_small) < 1e-2


def test_gamma_ratio_domain():
    with pytest.raises(DomainError):
        gamma_ratio(0.5, 0)
    with pytest.raises(DomainError):
        gamma_ratio(-0.5, 3)


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


def test_ml_custom_positive_cutoff():
    value = mittag_leffler(0.9, 5.5, rel_tol=1e-10, z_max=6.0)
    assert value > 1.0


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


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_ml_lanes_match_scalar_on_map(rel_tol):
    grid_alpha, grid_x = np.meshgrid(np.linspace(0.05, 0.95, 19), np.logspace(-3, 4, 200),
                                     indexing="ij")
    alphas = grid_alpha.ravel()
    zs = -grid_x.ravel()
    scalar = [_outcome(mittag_leffler, a, z, rel_tol) for a, z in zip(alphas, zs)]
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
    for alpha in np.linspace(0.1, 0.9, 9):
        for c in np.logspace(-2, 3, 20):
            try:
                value = ml_alpha_derivative(float(alpha), float(c), 1.0)
            except (AccuracyError, ConvergenceError):
                continue
            assert isinstance(value, float) and math.isfinite(value), (alpha, c, value)
