import math

import numpy as np
import pytest

import fracorder.forward
import fracorder.special
from fracorder import (AccuracyError, DomainError, InverseConfig, MaxIterationsError, Measurement,
                       NoRootError, check_uniqueness_hypothesis, endpoint_values,
                       evaluate_solution, invert_order, make_problem, residual,
                       residual_derivative, scan_bracket, sensitivity_profile)

PI = math.pi

# frozen 40-digit derivative values of the measurement curve
F_PRIME_SINGLE_075 = -0.13509379041194537
F_PRIME_TWO_05 = -0.69889708897508149


# ------------------------------------------------------------- residual

def test_residual_vanishes_at_true_order(single_mode):
    problem, measurement = single_mode
    assert abs(residual(problem, measurement, 0.75)) <= 5e-5


def test_residual_requires_value(single_mode):
    problem, _ = single_mode
    with pytest.raises(DomainError):
        residual(problem, Measurement(PI / 4, 2.0, None), 0.5)


def test_measurement_domain_validation(single_mode):
    problem, _ = single_mode
    with pytest.raises(DomainError):
        residual(problem, Measurement(0.0, 2.0, 0.1), 0.5)
    with pytest.raises(DomainError):
        residual(problem, Measurement(PI, 2.0, 0.1), 0.5)
    with pytest.raises(DomainError):
        residual(problem, Measurement(1.0, 0.0, 0.1), 0.5)
    with pytest.raises(DomainError):
        residual(problem, Measurement(1.0, 5.0, 0.1), 0.5)  # beyond horizon


# ------------------------------------------------------ endpoint_values

def test_endpoint_closed_forms_single_mode(single_mode):
    problem, measurement = single_mode
    f0, f1 = endpoint_values(problem, measurement)
    assert abs(f0 - 5.0 / 14.0) <= 1e-10
    assert abs(f1 - 0.5 * math.exp(-0.8)) <= 1e-10


def test_endpoint_closed_forms_two_mode(two_mode):
    problem, measurement = two_mode
    f0, f1 = endpoint_values(problem, measurement)
    assert abs(f0 - (1.0 / 1.05 + 0.5 / 1.45)) <= 1e-12
    assert abs(f1 - (math.exp(-0.5) + 0.5 * math.exp(-4.5))) <= 1e-12


# -------------------------------------------------- residual_derivative

def test_derivative_negative_on_decreasing_curve(single_mode):
    problem, measurement = single_mode
    assert residual_derivative(problem, measurement, 0.5) < 0.0


def test_derivative_frozen_values(single_mode, two_mode):
    problem, measurement = single_mode
    value = residual_derivative(problem, measurement, 0.75)
    assert abs(value - F_PRIME_SINGLE_075) <= 1e-10 * abs(F_PRIME_SINGLE_075)
    problem, measurement = two_mode
    value = residual_derivative(problem, measurement, 0.5)
    assert abs(value - F_PRIME_TWO_05) <= 1e-10 * abs(F_PRIME_TWO_05)


def test_derivative_mode_annihilated_at_node():
    # sin(2 * pi/2) = 0 kills the second mode's contribution; matching
    # per-mode tolerances make the remaining paths identical
    both = make_problem(0.1, PI, [(1, 1.0), (2, 1.0)], 20.0)
    lone = make_problem(0.1, PI, [(1, 1.0)], 20.0)
    at_node = Measurement(PI / 2, 10.0, 0.0)
    for alpha in (0.3, 0.6, 0.9):
        assert (residual_derivative(both, at_node, alpha, rel_tol=2e-10)
                == residual_derivative(lone, at_node, alpha, rel_tol=1e-10))


@pytest.mark.parametrize("setup", ["single_mode", "two_mode"])
def test_derivative_matches_central_difference(setup, request):
    problem, measurement = request.getfixturevalue(setup)
    h = 1e-6
    for k in range(1, 10):
        alpha = k / 10
        analytic = residual_derivative(problem, measurement, alpha)
        numeric = (residual(problem, measurement, alpha + h, rel_tol=4e-12)
                   - residual(problem, measurement, alpha - h, rel_tol=4e-12)) / (2 * h)
        assert abs(analytic - numeric) <= 1e-5 * abs(numeric)


def test_derivative_rejects_boundary_orders(single_mode):
    problem, measurement = single_mode
    with pytest.raises(DomainError):
        residual_derivative(problem, measurement, 1.0)
    with pytest.raises(DomainError):
        residual_derivative(problem, measurement, 0.0)


# ------------------------------------------- check_uniqueness_hypothesis

def test_hypothesis_holds_on_reference_setups(single_mode, two_mode):
    for problem, measurement in (single_mode, two_mode):
        report = check_uniqueness_hypothesis(problem, measurement)
        assert report.holds
        assert all(term.product > 0 for term in report.terms)


def test_hypothesis_fails_at_basis_node(single_mode):
    problem, _ = single_mode
    report = check_uniqueness_hypothesis(problem, Measurement(PI / 2, 2.0, 0.1))
    assert not report.holds
    assert report.terms[0].basis_value == 0.0


def test_hypothesis_fails_for_mixed_signs(mixed_sign):
    problem, measurement = mixed_sign
    assert not check_uniqueness_hypothesis(problem, measurement).holds


# --------------------------------------------------------- scan_bracket

def test_scan_monotone_with_single_bracket(single_mode, two_mode):
    for (problem, measurement), root in ((single_mode, 0.75), (two_mode, 0.5)):
        scan = scan_bracket(problem, measurement)
        assert scan.monotone
        diffs = np.diff(scan.values)
        assert np.all(diffs < 0.0)
        assert len(scan.brackets) == 1
        lo, hi = scan.brackets[0]
        assert lo <= root <= hi


def test_scan_reports_no_root_for_unattainable_value(single_mode):
    problem, measurement = single_mode
    scan = scan_bracket(problem, Measurement(measurement.position, measurement.time, 10.0))
    assert scan.brackets == ()
    assert scan.monotone


def test_scan_respects_scan_points(single_mode):
    problem, measurement = single_mode
    scan = scan_bracket(problem, measurement, InverseConfig(scan_points=9))
    assert len(scan.alphas) == 9


def test_scan_finds_two_brackets_for_mixed_signs(mixed_sign):
    problem, measurement = mixed_sign
    scan = scan_bracket(problem, measurement)
    assert not scan.monotone
    assert len(scan.brackets) == 2


def _pointwise_scan(problem, measurement, config):
    alphas = np.linspace(config.alpha_lo, config.alpha_hi, config.scan_points)
    return [residual(problem, measurement, float(a), rel_tol=config.f_rel_tol).hex()
            for a in alphas]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("config", [InverseConfig(), InverseConfig(f_rel_tol=1e-8),
                                    InverseConfig(f_rel_tol=1e-13, scan_points=9)])
def test_scan_equals_pointwise_residuals(single_mode, two_mode, mixed_sign, config):
    # single_mode and two_mode are the bundled configs' problems; at 1e-13
    # the two-mode curve refuses, and the scan must refuse alike.  Amplitudes
    # that are not powers of two catch a reassociated a*E*s.
    uneven = (make_problem(0.02, PI, [(1, 0.3), (2, -0.7), (4, 1.1)], 12.0),
              Measurement(1.3, 6.0, 0.1))
    for problem, measurement in (single_mode, two_mode, mixed_sign, uneven):
        scanned = _outcome(lambda: [v.hex() for v in
                                    scan_bracket(problem, measurement, config).values.tolist()])
        assert scanned == _outcome(_pointwise_scan, problem, measurement, config)


def test_scan_refuses_as_pointwise():
    # |z| near 1 at the scan's first order: no Mittag-Leffler strategy converges
    problem = make_problem(1.0, PI, [(1, 1.0)], 20.0)
    measurement = Measurement(PI / 2, 10.0, 0.1)
    with pytest.raises(AccuracyError) as pointwise:
        _pointwise_scan(problem, measurement, InverseConfig())
    with pytest.raises(AccuracyError) as scanned:
        scan_bracket(problem, measurement)
    assert str(scanned.value) == str(pointwise.value)
    assert "no strategy converged at alpha=0.001," in str(scanned.value)


def test_scan_makes_no_scalar_mittag_leffler_calls(two_mode, monkeypatch):
    calls = []
    scalar = fracorder.special.mittag_leffler

    def counted(*args, **kwargs):
        calls.append(args)
        return scalar(*args, **kwargs)

    # the batch falls back to special's binding; the pointwise path calls forward's
    monkeypatch.setattr(fracorder.special, "mittag_leffler", counted)
    monkeypatch.setattr(fracorder.forward, "mittag_leffler", counted)
    scan_bracket(*two_mode)
    assert calls == []
    # the counter sees the batch's fallback: here the first lane refuses
    with pytest.raises(AccuracyError):
        scan_bracket(make_problem(1.0, PI, [(1, 1.0)], 20.0), Measurement(PI / 2, 10.0, 0.1))
    assert len(calls) == 1


# --------------------------------------------------------- invert_order

def test_invert_reference_single_mode(single_mode):
    problem, measurement = single_mode
    report = invert_order(problem, measurement)
    assert abs(report.alpha_hat - 0.75) <= 2e-3
    assert report.unique
    assert report.monotone == "verified"
    assert report.uniqueness_hypothesis
    assert math.isfinite(report.sensitivity)


def test_invert_reference_two_mode(two_mode):
    problem, measurement = two_mode
    report = invert_order(problem, measurement)
    assert abs(report.alpha_hat - 0.5) <= 2e-3
    assert report.unique


@pytest.mark.parametrize("setup", ["single_mode", "two_mode"])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_invert_round_trip(setup, alpha, request):
    problem, measurement = request.getfixturevalue(setup)
    d = evaluate_solution(problem, alpha, measurement.position, measurement.time)
    report = invert_order(problem, Measurement(measurement.position, measurement.time, d))
    assert abs(report.alpha_hat - alpha) <= 1e-8
    assert report.unique


def test_invert_no_root_raises(single_mode):
    problem, measurement = single_mode
    with pytest.raises(NoRootError):
        invert_order(problem, Measurement(measurement.position, measurement.time, 10.0))


def test_invert_iteration_cap(single_mode):
    problem, measurement = single_mode
    with pytest.raises(MaxIterationsError):
        invert_order(problem, measurement, InverseConfig(max_iters=2, use_newton=False))


def test_invert_reports_multiple_roots(mixed_sign):
    problem, measurement = mixed_sign
    report = invert_order(problem, measurement)
    assert not report.unique
    assert len(report.roots) == 2
    assert report.monotone == "violated"
    assert not report.uniqueness_hypothesis
    for root in report.roots:
        assert abs(residual(problem, measurement, root)) <= 1e-6


def test_sign_hypothesis_does_not_imply_monotone():
    # at t1 = 1 the curve follows 1/Gamma(1 + alpha), which peaks near
    # alpha = 0.46: the sign condition holds and F still meets d twice
    problem = make_problem(0.2, PI, [(1, 1.0)], 1.0)
    d = evaluate_solution(problem, 0.8, PI / 2, 1.0)
    report = invert_order(problem, Measurement(PI / 2, 1.0, d))
    assert report.uniqueness_hypothesis
    assert len(report.roots) == 2
    assert report.monotone == "violated"
    assert abs(report.roots[0] - 0.4177) <= 1e-4
    assert abs(report.roots[1] - 0.8) <= 1e-9


def test_root_kept_when_final_slope_refused():
    # the order-derivative series overflows at the root, so the final slope
    # is refused; the root found by refinement must still be reported
    alpha = 0.4049633901505699
    x0, t1 = 2.705805723398215, 15.504882985935527
    problem = make_problem(0.121, PI, [(1, 0.255), (5, 0.2458)], 20)
    d = evaluate_solution(problem, alpha, x0, t1)
    report = invert_order(problem, Measurement(x0, t1, d))
    assert len(report.roots) == 1
    assert abs(report.alpha_hat - alpha) <= 1e-9
    assert math.isnan(report.derivative_at_root)
    assert math.isnan(report.sensitivity)


# F, F' and the endpoint limits of a three-mode mixed-sign problem at
# t1 = 6, for (x0, alpha): exact values that fix the order in which each
# sum associates amplitude, basis and time factor
THREE_MODE_SUMS = {
    0.4: ([(0.3, 0.3066021702107186, -0.10327295745494919),
          (0.55, 0.2817569989234107, -0.0941218786611514),
          (0.8, 0.26046826814802804, -0.07363746967729903)],
          (0.3381323806769159, 0.24861059178591233)),
    1.1: ([(0.3, 0.6258465218494772, 0.08723720788021741),
          (0.55, 0.6445501484162895, 0.05998834782503842),
          (0.8, 0.6546368305008178, 0.018333255144735605)],
          (0.597079401668591, 0.6541364860805041)),
    2.3: ([(0.3, 1.4148650171257198, -0.7272140700418316),
          (0.55, 1.216270061894775, -0.8619239713530129),
          (0.8, 0.9836726169377662, -0.9994289552007478)],
          (1.6091137138624885, 0.7725316084583124)),
}


def test_measurement_sums_frozen_to_the_bit():
    problem = make_problem(0.07, PI, [(1, 1.3), (2, -0.7), (3, 0.45)], 10.0)
    for x0, (rows, ends) in THREE_MODE_SUMS.items():
        measurement = Measurement(x0, 6.0, 0.0)
        for alpha, value, slope in rows:
            assert evaluate_solution(problem, alpha, x0, 6.0) == value
            assert residual_derivative(problem, measurement, alpha) == slope
        assert endpoint_values(problem, measurement) == ends


def test_invert_bisection_only_agrees(single_mode):
    problem, measurement = single_mode
    fast = invert_order(problem, measurement)
    slow = invert_order(problem, measurement, InverseConfig(use_newton=False))
    assert abs(fast.alpha_hat - slow.alpha_hat) <= 2e-10
    assert slow.iterations > fast.iterations


def test_bisection_trace_halves_and_stays_in_bracket(single_mode):
    problem, measurement = single_mode
    config = InverseConfig(use_newton=False)
    scan = scan_bracket(problem, measurement, config)
    lo, hi = scan.brackets[0]
    report = invert_order(problem, measurement, config)
    iterates = [alpha for _, alpha, _ in report.trace]
    assert all(lo <= a <= hi for a in iterates)
    steps = [abs(b - a) for a, b in zip(iterates, iterates[1:])]
    for before, after in zip(steps, steps[1:]):
        assert after == pytest.approx(0.5 * before, rel=1e-6)


def test_newton_trace_stays_in_bracket(single_mode):
    problem, measurement = single_mode
    scan = scan_bracket(problem, measurement)
    lo, hi = scan.brackets[0]
    report = invert_order(problem, measurement)
    assert all(lo <= alpha <= hi for _, alpha, _ in report.trace)


def test_root_certificate(single_mode, two_mode):
    # F - d changes sign across [alpha_hat - tol, alpha_hat + tol]
    for problem, measurement in (single_mode, two_mode):
        report = invert_order(problem, measurement)
        tol = InverseConfig().root_tol
        below = residual(problem, measurement, report.alpha_hat - tol)
        above = residual(problem, measurement, report.alpha_hat + tol)
        assert (below > 0) != (above > 0) or min(abs(below), abs(above)) <= 1e-12


def test_residual_bound_at_root(single_mode, two_mode):
    for problem, measurement in (single_mode, two_mode):
        report = invert_order(problem, measurement)
        slope_cap = max(abs(residual_derivative(problem, measurement, a))
                        for a in np.linspace(0.05, 0.95, 10))
        assert abs(report.residual) <= InverseConfig().root_tol * slope_cap


def test_hypothesis_soundness(single_mode, two_mode):
    # positive hypothesis + verified monotone scan => exactly one root
    for problem, measurement in (single_mode, two_mode):
        assert check_uniqueness_hypothesis(problem, measurement).holds
        scan = scan_bracket(problem, measurement)
        assert scan.monotone
        report = invert_order(problem, measurement)
        assert len(report.roots) == 1


def test_alpha_hat_within_search_interval(single_mode):
    problem, measurement = single_mode
    config = InverseConfig()
    report = invert_order(problem, measurement, config)
    assert config.alpha_lo <= report.alpha_hat <= config.alpha_hi


# --------------------------------------------------- sensitivity_profile

def test_sensitivity_profile_rows(single_mode):
    problem, measurement = single_mode
    rows = sensitivity_profile(problem, measurement, [0.25, 0.5, 0.75])
    assert len(rows) == 3
    values = [value for _, value, _, _ in rows]
    assert values[0] > values[1] > values[2]
    for alpha, value, slope, conditioning in rows:
        assert math.isfinite(value) and math.isfinite(slope)
        assert conditioning == pytest.approx(1.0 / abs(slope))
        assert value == evaluate_solution(problem, alpha, measurement.position,
                                          measurement.time)
        assert slope == residual_derivative(problem, measurement, alpha)


def test_sensitivity_profile_empty(single_mode):
    problem, measurement = single_mode
    assert sensitivity_profile(problem, measurement, []) == []


# -------------------------------------------------------- InverseConfig

def test_inverse_config_validation():
    with pytest.raises(DomainError):
        InverseConfig(alpha_lo=0.5, alpha_hi=0.4)
    with pytest.raises(DomainError):
        InverseConfig(alpha_lo=0.0)
    with pytest.raises(DomainError):
        InverseConfig(alpha_hi=1.0)
    with pytest.raises(DomainError):
        InverseConfig(scan_points=5)
    with pytest.raises(DomainError):
        InverseConfig(root_tol=0.0)
    with pytest.raises(DomainError):
        InverseConfig(f_rel_tol=1.0)


@pytest.mark.parametrize("field", ["scan_points", "max_iters"])
@pytest.mark.parametrize("value", [99.0, True, "99", np.float64(99.0)])
def test_inverse_config_counts_must_be_int(field, value):
    with pytest.raises(DomainError, match=field):
        InverseConfig(**{field: value})
