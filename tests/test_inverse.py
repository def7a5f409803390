import functools
import math
import random
import re

import numpy as np
import pytest

import fracorder.forward
import fracorder.inverse
import fracorder.special
from fracorder import (AccuracyError, DomainError, InverseConfig, InversionReport, Measurement,
                       NoRootError, endpoint_values, evaluate_solution, evaluate_solution_grid,
                       invert_order, make_problem, residual, residual_derivative,
                       scan_bracket)

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
    # a bool, a non-real or a number past the double range is refused by
    # name where the measurement is used, not when it is built
    good = {"position": 1.0, "time": 2.0, "value": 0.1}
    for field, bad in [("position", "0.785"), ("position", None), ("position", True),
                       ("position", 10**400), ("time", True), ("time", "2.0"),
                       ("time", 10**400), ("value", True), ("value", "0.25"),
                       ("value", [0.25]), ("value", 10**400),
                       # reprs that raise ValueError: past str()'s 4300-digit limit
                       ("position", 10**5000), ("value", [10**5000])]:
        measurement = Measurement(**{**good, field: bad})
        with pytest.raises(DomainError, match=f"measurement {field}"):
            residual(problem, measurement, 0.5)
        with pytest.raises(DomainError, match=f"measurement {field}"):
            invert_order(problem, measurement)
    # integer and numpy fields stay valid
    assert residual(problem, Measurement(1, np.int64(2), np.float64(0.1)), 0.5) == \
        residual(problem, Measurement(**good), 0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_measured_value_refused(single_mode, value):
    # refused as input, not reported as "no sign change"
    problem, measurement = single_mode
    bad = Measurement(measurement.position, measurement.time, value)
    for call in (invert_order, scan_bracket):
        with pytest.raises(DomainError, match="measurement value .* is not finite"):
            call(problem, bad)


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


def test_orders_and_tolerances_must_be_real(single_mode):
    # a bool, a string or a number past the double range is refused by name,
    # not read as 1.0, 0.5 or an OverflowError
    problem, measurement = single_mode
    for bad in (True, "0.5", 10**400):
        with pytest.raises(DomainError, match="^residual: alpha "):
            residual(problem, measurement, bad)
        with pytest.raises(DomainError, match="^residual_derivative: alpha "):
            residual_derivative(problem, measurement, bad)
        with pytest.raises(DomainError, match="^residual: rel_tol "):
            residual(problem, measurement, 0.5, rel_tol=bad)
        with pytest.raises(DomainError, match="^residual_derivative: rel_tol "):
            residual_derivative(problem, measurement, 0.5, rel_tol=bad)
    # an order out of range too, and for the derivative 1.0 as well, where
    # F' is not defined
    for bad in (0.0, 2.0, math.nan):
        with pytest.raises(DomainError, match="^residual: need 0 < alpha <= 1"):
            residual(problem, measurement, bad)
    for bad in (0.0, 1.0, 2.0, math.nan):
        with pytest.raises(DomainError, match="^residual_derivative: need 0 < alpha < 1"):
            residual_derivative(problem, measurement, bad)


def test_rel_tol_out_of_range_refused(single_mode):
    # refused by name before the per-mode split, not raised silently to 1e-15
    # per mode, where it surfaced as an AccuracyError about cancellation
    problem, measurement = single_mode
    for bad in (-5.0, -1.0, 0.0, 1e-16, 2e-3, math.nan):
        with pytest.raises(DomainError, match="^residual: rel_tol must lie in"):
            residual(problem, measurement, 0.5, rel_tol=bad)
        with pytest.raises(DomainError, match="^residual_derivative: rel_tol must lie in"):
            residual_derivative(problem, measurement, 0.5, rel_tol=bad)
    assert math.isfinite(residual_derivative(problem, measurement, 0.5, rel_tol=1e-3))


# ------------------------------------------------------- sign hypothesis

def test_hypothesis_holds_on_reference_setups(single_mode, two_mode):
    for problem, measurement in (single_mode, two_mode):
        assert invert_order(problem, measurement).uniqueness_hypothesis
        assert all(amplitude * basis > 0.0 for amplitude, basis, _ in
                   fracorder.forward._mode_terms(problem, measurement.position))


def test_hypothesis_fails_at_basis_node():
    # mode 2 has a node at pi/2: its product a_2 * sin(pi) is 0, not positive,
    # while mode 1 still carries an order to recover
    problem = make_problem(0.1, PI, [(1, 1.0), (2, 0.5)], 4.0)
    measurement = Measurement(PI / 2, 2.0, evaluate_solution(problem, 0.5, PI / 2, 2.0))
    assert fracorder.forward._mode_terms(problem, PI / 2)[1][1] == 0.0
    report = invert_order(problem, measurement)
    assert not report.uniqueness_hypothesis
    assert abs(report.alpha_hat - 0.5) <= 1e-9


def test_hypothesis_fails_for_mixed_signs(mixed_sign):
    problem, measurement = mixed_sign
    assert not invert_order(problem, measurement).uniqueness_hypothesis


# --------------------------------------------------------- scan_bracket

def test_scan_monotone_with_single_bracket(single_mode, two_mode):
    # the samples fall; the certified verdict and root come from
    # invert_order, and the root lies in the one cell where the samples
    # change sign
    for (problem, measurement), root in ((single_mode, 0.75), (two_mode, 0.5)):
        scan = scan_bracket(problem, measurement)
        diffs = np.diff(scan.values)
        assert np.all(diffs < 0.0)
        report = invert_order(problem, measurement)
        assert report.monotone == "verified"
        assert report.unique
        assert abs(report.alpha_hat - root) <= 2e-3
        cells = fracorder.inverse._sign_changes(scan.alphas, scan.values)
        assert len(cells) == 1
        lo, hi, _ = cells[0]
        assert lo <= report.alpha_hat <= hi


def test_scan_reports_no_root_for_unattainable_value(single_mode):
    problem, measurement = single_mode
    unattainable = Measurement(measurement.position, measurement.time, 10.0)
    scan = scan_bracket(problem, unattainable)
    assert all(value < 0.0 for value in scan.values)
    assert np.all(np.diff(scan.values) < 0.0)
    with pytest.raises(NoRootError):
        invert_order(problem, unattainable)


def test_scan_respects_scan_points(single_mode):
    problem, measurement = single_mode
    scan = scan_bracket(problem, measurement, InverseConfig(scan_points=9))
    assert len(scan.alphas) == 9


def test_scan_finds_two_brackets_for_mixed_signs(mixed_sign):
    # two certified roots, each in a cell where the samples change sign
    problem, measurement = mixed_sign
    scan = scan_bracket(problem, measurement)
    report = invert_order(problem, measurement)
    assert report.monotone == "violated"
    assert len(report.roots) == 2
    cells = fracorder.inverse._sign_changes(scan.alphas, scan.values)
    assert len(cells) == 2
    assert all(lo <= root <= hi for root, (lo, hi, _) in zip(report.roots, cells))


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
def test_scan_equals_pointwise_residuals(single_mode, two_mode, mixed_sign, hidden_minimum,
                                         two_close_roots, config):
    # single_mode and two_mode are the bundled configs' problems; at 1e-13
    # the two-mode curve refuses, and the scan must refuse alike.  Amplitudes
    # that are not powers of two catch a reassociated a*E*s.  On the hidden
    # minimum and the two close roots the samples miss what invert_order
    # certifies, a turn of F and a root pair.
    uneven = (make_problem(0.02, PI, [(1, 0.3), (2, -0.7), (4, 1.1)], 12.0),
              Measurement(1.3, 6.0, 0.1))
    for problem, measurement in (single_mode, two_mode, mixed_sign, hidden_minimum,
                                 two_close_roots[1:], uneven):
        scanned = _outcome(lambda: [v.hex() for v in
                                    scan_bracket(problem, measurement, config).values])
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


def test_scan_brackets_residuals_below_product_underflow():
    # with amplitude 1e-200, F - d stays below 1e-162 on the whole scan, so
    # the product of two residuals of opposite sign underflows to -0.0; the
    # sign test of the bracket search compares signs, and finds the scan
    # cell of the amplitude-1 problem
    brackets = []
    for amplitude in (1e-200, 1.0):
        problem = make_problem(0.1, PI, [(1, amplitude)], 10.0)
        measurement = Measurement(1.0, 5.0, evaluate_solution(problem, 0.503, 1.0, 5.0))
        scan = scan_bracket(problem, measurement)
        brackets.append([(lo, hi) for lo, hi, _ in
                         fracorder.inverse._sign_changes(scan.alphas, scan.values)])
        assert abs(invert_order(problem, measurement).alpha_hat - 0.503) <= 1e-10
    assert brackets[0] == brackets[1] == [(0.5, 0.5101836734693878)]


def test_scan_equals_pointwise_off_the_series_region():
    # factors summed by the power series alone, in the series/tail hand-over
    # band and by the tail alone, and factors whose argument -D*lambda_n*t**alpha
    # underflows to -0.0, at orders from alpha_lo to alpha_hi
    config = InverseConfig(f_rel_tol=1e-6, scan_points=49)
    spread = (make_problem(0.1, PI, [(1, 1.0), (2, 0.5), (5, 0.25)], 10.0),
              Measurement(1.0, 10.0, 0.3))
    vanishing = (make_problem(5e-324, PI, [(1, 1.0)], 1.0), Measurement(PI / 2, 0.3, 0.5))
    shapes = []
    for problem, measurement in (spread, vanishing):
        scan = scan_bracket(problem, measurement, config)
        assert [v.hex() for v in scan.values] == _pointwise_scan(problem, measurement, config)
        shapes += [fracorder.special._shape(alpha, rate * measurement.time**alpha)
                   for alpha in scan.alphas
                   for _, _, rate in fracorder.forward._mode_terms(problem, measurement.position)]
    assert min(shapes) == 0.0
    assert any(0.0 < s < 14.0 for s in shapes) and any(s > 30.0 for s in shapes)
    assert any(14.0 <= s <= 30.0 for s in shapes)


def test_scan_domain_errors_match_pointwise():
    # an order or a tolerance out of range never reaches a scan
    for bad in ({"alpha_hi": 1.5}, {"alpha_lo": 0.0}, {"f_rel_tol": 1e-2}):
        with pytest.raises(DomainError, match="^InverseConfig: "):
            InverseConfig(**bad)
    # -D*lambda_n*t**alpha passes the double range from alpha = 0.966 on
    problem = make_problem(1e307, PI, [(1, 1.0)], 20.0)
    measurement = Measurement(PI / 2, 20.0, 0.1)
    with pytest.raises(DomainError) as pointwise:
        _pointwise_scan(problem, measurement, InverseConfig())
    with pytest.raises(DomainError) as scanned:
        scan_bracket(problem, measurement)
    assert str(scanned.value) == str(pointwise.value) == "mittag_leffler: need finite z, got -inf"
    assert residual(problem, measurement, 0.95) < 0.0


def test_scan_makes_no_scalar_mittag_leffler_calls(two_mode, monkeypatch):
    # the scan calls the unchecked core once per order and mode, order-major
    # and mode-minor as `evaluate_solution` would, and never the checked
    # `mittag_leffler`, which the forward module does not even import
    public, core = [], []
    checked = fracorder.special.mittag_leffler
    unchecked = fracorder.forward._mittag_leffler
    monkeypatch.setattr(fracorder.special, "mittag_leffler",
                        lambda *args, **kwargs: public.append(args) or checked(*args, **kwargs))
    assert "mittag_leffler" not in vars(fracorder.forward)
    monkeypatch.setattr(fracorder.forward, "_mittag_leffler",
                        lambda *args: core.append(args) or unchecked(*args))
    problem, measurement = two_mode
    scan = scan_bracket(problem, measurement)
    rates = [rate for _, _, rate in fracorder.forward._mode_terms(problem, measurement.position)]
    assert len(core) == InverseConfig().scan_points * problem.n_modes
    assert core == [(alpha, -rate * measurement.time**alpha, 0.5e-10)
                    for alpha in scan.alphas for rate in rates]
    assert public == []
    # a refusal ends the scan: here the first call refuses
    core.clear()
    with pytest.raises(AccuracyError):
        scan_bracket(make_problem(1.0, PI, [(1, 1.0)], 20.0), Measurement(PI / 2, 10.0, 0.1))
    assert len(core) == 1 and public == []


@pytest.mark.parametrize("bounds", [(1e-3, 1.0 - 1e-3), (0.0123, 0.9871)])
def test_scan_orders_equal_linspace(single_mode, bounds):
    problem, measurement = single_mode
    lo, hi = bounds
    for points in (9, 10, 99, 1000, 4097):
        scan = scan_bracket(problem, measurement,
                            InverseConfig(alpha_lo=lo, alpha_hi=hi, scan_points=points))
        assert type(scan.alphas) is tuple and type(scan.values) is tuple
        assert all(type(a) is float for a in scan.alphas + scan.values)
        assert [a.hex() for a in scan.alphas] == \
            [a.hex() for a in np.linspace(lo, hi, points).tolist()]


def test_scan_blocks_stay_cached_between_inversions(two_mode, port_calls):
    # the series read whole Gamma blocks, each built once, and the cache
    # keeps them: a second identical inversion builds none, and neither does
    # a second scan
    problem, measurement = two_mode
    invert_order(problem, measurement)
    builds = port_calls["_gamma"]
    assert builds and all(np.ndim(args) == 1 for args in builds)
    assert len({tuple(args) for args in builds}) == len(builds)
    builds.clear()
    invert_order(problem, measurement)
    assert builds == []
    scan_bracket(problem, measurement)
    assert len({tuple(args) for args in builds}) == len(builds)
    builds.clear()
    scan_bracket(problem, measurement)
    assert builds == []


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


def test_invert_at_root_tol_floor():
    # at root_tol=1e-16 this bracket stalls one ulp (1.1e-16) wide; at the
    # floor the search ends
    problem = make_problem(0.45, PI, [(1, 1.0)], 10.0)
    d = evaluate_solution(problem, 0.7, PI / 2, 10.0) * (1 + 0.37e-13)
    config = InverseConfig(root_tol=1e-15)
    report = invert_order(problem, Measurement(PI / 2, 10.0, d), config)
    assert report.unique
    assert abs(report.alpha_hat - 0.7) <= 1e-12
    cell = (config.alpha_hi - config.alpha_lo) / (config.scan_points - 1)
    assert report.iterations <= 3 * math.ceil(math.log2(cell / config.root_tol))


def test_refinement_bound_holds_for_adversarial_slopes():
    # slopes whose Newton steps crawl towards the root, a hundredth of the way
    # at most and shrinking only as fast as the step rule demands, and that
    # send the candidate out of the bracket just before a step could end the
    # search: without the budget, crawls and bisections alternate for 293
    # iterations, against a bound of 102
    root, root_tol = 0.9, 1e-10
    iterates = []

    def slope(x):
        iterates.append(x)
        fx = x - root
        toward = 1.0 if fx < 0.0 else -1.0  # the bracket lies on the root's side
        before_last = 1.0 if len(iterates) < 3 else abs(iterates[-2] - iterates[-3])
        step = min(0.49 * before_last, 0.01 * abs(fx))
        if step < 4.0 * root_tol:
            return fx / (toward * step)  # a candidate behind x, outside the bracket
        return -fx / (toward * step)

    alpha, trace, iterations = fracorder.inverse._refine_root(
        lambda x: x - root, slope, 0.0, 1.0, -root, root_tol)
    assert iterations <= 3 * math.ceil(math.log2(1.0 / root_tol))
    assert abs(alpha - root) <= root_tol
    assert len(trace) == iterations


def test_refinement_from_a_start_keeps_the_better_end():
    # from a start just above the root a slightly long Newton step lands an
    # ulp below it and leaves a bracket narrower than root_tol: f is taken
    # at the midpoint too, and the iterate at the root, not the midpoint
    # 3.5e-11 away, is returned
    root = 0.3
    alpha, trace, iterations = fracorder.inverse._refine_root(
        lambda x: x - root, lambda x: 1.0 - 1e-6, 0.0, 1.0, -root, 1e-10, root + 7e-11)
    assert iterations == len(trace) == 3
    assert trace[2][1] == 0.5 * (trace[0][1] + trace[1][1])
    assert alpha == trace[1][1] and abs(alpha - root) <= 1e-16


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


def _refused_slope_case():
    """An inversion whose order-derivative series overflows at the root."""
    alpha = 0.4049633901505699
    x0, t1 = 2.705805723398215, 15.504882985935527
    problem = make_problem(0.121, PI, [(1, 0.255), (5, 0.2458)], 20)
    return alpha, problem, Measurement(x0, t1, evaluate_solution(problem, alpha, x0, t1))


def test_root_kept_when_final_slope_refused(monkeypatch):
    # the order-derivative series overflows at the root, where the report
    # used to read nan; the interpolant's slope there is certified instead,
    # and the analytic one is never asked for
    alpha, problem, measurement = _refused_slope_case()
    with pytest.raises(AccuracyError):
        residual_derivative(problem, measurement, alpha)
    monkeypatch.setattr(fracorder.inverse, "_slope", lambda *args: pytest.fail("F' ran"))
    report = invert_order(problem, measurement)
    assert len(report.roots) == 1
    assert abs(report.alpha_hat - alpha) <= 1e-9
    assert math.isfinite(report.derivative_at_root) and report.derivative_at_root < 0.0
    assert report.sensitivity == 1.0 / abs(report.derivative_at_root)


def test_root_kept_when_the_slope_bound_fails_and_f_prime_is_refused(monkeypatch):
    # with the bound failing, the analytic F' runs once, at alpha_hat; its
    # refusal makes the slope and the sensitivity nan, and the root stands
    alpha, problem, measurement = _refused_slope_case()
    slopes = []
    real = fracorder.inverse._slope
    monkeypatch.setattr(fracorder.inverse, "_slope",
                        lambda *args: slopes.append(args[1]) or real(*args))
    monkeypatch.setattr(fracorder.inverse, "_SLOPE_REL_TOL", -1.0)
    report = invert_order(problem, measurement)
    assert slopes == [report.alpha_hat]
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


def test_newton_trace_stays_in_bracket(single_mode):
    problem, measurement = single_mode
    scan = scan_bracket(problem, measurement)
    [(lo, hi, _)] = fracorder.inverse._sign_changes(scan.alphas, scan.values)
    report = invert_order(problem, measurement)
    assert all(lo <= alpha <= hi for _, alpha, _ in report.trace)


@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
def test_newton_refinement_takes_few_iterations(setup, request, monkeypatch):
    # each search on F starts at the interpolant's root and ends once a
    # Newton step is below root_tol/2: one or two iterations of one
    # evaluation of F each, none at a bracket's left end, whose value the
    # bracket search holds, and alpha_hat's residual at F's rounding level
    problem, measurement = request.getfixturevalue(setup)
    calls, searched = [], []
    real, real_brackets = fracorder.inverse._solution, fracorder.inverse._brackets
    monkeypatch.setattr(fracorder.inverse, "_solution",
                        lambda *args: calls.append(args[1]) or real(*args))

    def brackets(*args):
        found = real_brackets(*args)
        searched.append(len(calls))
        return found

    monkeypatch.setattr(fracorder.inverse, "_brackets", brackets)
    report = invert_order(problem, measurement)
    orders = calls[searched[0]:]  # the bracket search's orders come first
    assert report.iterations <= 2 * len(report.roots)
    assert len(orders) == report.iterations + 1  # the iterates, then alpha_hat
    assert orders[-1] == report.alpha_hat
    scale = sum(abs(amplitude * basis) for amplitude, basis, _ in
                fracorder.forward._mode_terms(problem, measurement.position))
    assert abs(report.residual) <= 1e-14 * scale


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
    # positive hypothesis + certified monotone proxy => exactly one root
    for problem, measurement in (single_mode, two_mode):
        report = invert_order(problem, measurement)
        assert report.monotone == "verified"
        assert report.uniqueness_hypothesis
        assert len(report.roots) == 1


def test_alpha_hat_within_search_interval(single_mode):
    problem, measurement = single_mode
    config = InverseConfig()
    report = invert_order(problem, measurement, config)
    assert config.alpha_lo <= report.alpha_hat <= config.alpha_hi


def test_invert_with_underflowed_rate(monkeypatch):
    # D*(pi/length)**2 underflows to 0.0: the factor is identically 1, so
    # F(alpha) = d at every order and F' = 0, not a refusal that names
    # ml_alpha_derivative's c, which the caller never passed; each of the 17
    # nodes is an exact zero, and alpha_hat is alpha_lo, where the report
    # takes the analytic F'
    slopes = []
    real = fracorder.inverse._slope
    monkeypatch.setattr(fracorder.inverse, "_slope",
                        lambda *args: slopes.append(args[1]) or real(*args))
    problem = make_problem(1.0, 1e200, [(1, 1.0)], 2.0)
    measurement = Measurement(5e199, 1.0, 1.0)
    report = invert_order(problem, measurement)
    assert slopes == [report.alpha_hat]
    assert report.residual == 0.0 and report.derivative_at_root == 0.0
    assert report.sensitivity == math.inf
    assert len(report.roots) == 17 and report.monotone == "violated"
    assert residual_derivative(problem, measurement, 0.5) == 0.0


def test_kernel_work_counts(two_mode, monkeypatch):
    # a grid builds its mode terms once per row, one sinpi per row and mode,
    # and calls the Mittag-Leffler core once per cell and mode with a nonzero
    # basis value; an inversion builds its mode terms once
    forward = fracorder.forward
    sines, core, builds = [], [], []
    real_sinpi, real_core, real_terms = forward.sinpi, forward._mittag_leffler, forward._mode_terms
    monkeypatch.setattr(forward, "sinpi", lambda u: sines.append(u) or real_sinpi(u))
    monkeypatch.setattr(forward, "_mittag_leffler",
                        lambda *args: core.append(args) or real_core(*args))
    for module in (forward, fracorder.inverse):
        monkeypatch.setattr(module, "_mode_terms",
                            lambda *args: builds.append(args) or real_terms(*args))
    problem = make_problem(0.01, PI, [(1, 1.0), (2, -0.5), (4, 0.25)], 4.0)
    xs = [0.0, PI / 4, PI / 2, 2.0, PI]  # the walls and nodes of modes 4 and 2
    ts = [0.5, 1.0, 4.0]
    evaluate_solution_grid(problem, 0.6, xs, ts)
    assert len(builds) == len(xs)
    assert len(sines) == len(xs) * problem.n_modes
    nonzero = sum(basis != 0.0 for x in xs for _, basis, _ in real_terms(problem, x))
    assert 0 < nonzero < len(xs) * problem.n_modes
    assert len(core) == nonzero * len(ts)
    builds.clear()
    invert_order(*two_mode)
    assert len(builds) == 1


# -------------------------------------------------------- bracket search

def _full_scan_inversion(problem, measurement, config=InverseConfig()):
    """`invert_order`'s report from the full uniform scan: F at every scan
    order, the sampled verdict that the scan's values rise or fall
    throughout, and each sign-change cell refined from the scan's value at
    its left end."""
    scan = scan_bracket(problem, measurement, config)
    diffs = np.diff(scan.values)
    monotone = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))
    brackets = [(lo, hi) for lo, hi, _ in
                fracorder.inverse._sign_changes(scan.alphas, scan.values)]
    if not brackets:
        raise NoRootError(f"no root in range: F(alpha)-d has no sign change on "
                          f"[{config.alpha_lo:g}, {config.alpha_hi:g}]")

    def f(alpha):
        return residual(problem, measurement, alpha, config.f_rel_tol)

    def fp(alpha):
        return residual_derivative(problem, measurement, alpha, config.f_rel_tol)

    def step_slope(alpha):
        # a refused F' leaves the iterate to bisection
        try:
            return fp(alpha)
        except AccuracyError:
            return 0.0

    scanned = dict(zip(scan.alphas, scan.values))
    refined = [fracorder.inverse._refine_root(f, step_slope, lo, hi, scanned[lo], config.root_tol)
               for lo, hi in brackets]
    alpha_hat = refined[0][0]
    try:
        slope = fp(alpha_hat)
    except AccuracyError:
        slope = math.nan
    terms = fracorder.forward._mode_terms(problem, measurement.position)
    return InversionReport(
        alpha_hat, f(alpha_hat), slope, "verified" if monotone else "violated",
        all(amplitude * basis > 0.0 for amplitude, basis, _ in terms),
        math.inf if abs(slope) < 1e-14 else 1.0 / abs(slope), refined[0][1],
        tuple(root for root, _, _ in refined), sum(used for _, _, used in refined))


def _report_or_refusal(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, DomainError, NoRootError) as exc:
        return type(exc), str(exc)


def _node_error(terms, d, mode_tol):
    """F's certified error at an order, with the sums' round-off."""
    scale = fracorder.inverse._scale(terms)
    return mode_tol * scale + 64.0 * fracorder.inverse._EPS * (scale + abs(d))


def _assert_as_full_scan(problem, measurement, config):
    """The report agrees with the full scan's, whose refinement starts at
    the scan cells' midpoints and takes F' at each iterate.

    Both refuse with one error type, or both find the same number of roots,
    each within root_tol of the full scan's or, where F's noise limits it,
    with |F - d| within the node error; the residual is at most the full
    scan's or 1e-14 of sum |a_n sin_n|.  An interval too narrow for 17
    distinct nodes is refused as a DomainError.
    """
    report = _report_or_refusal(invert_order, problem, measurement, config)
    if config.alpha_hi - config.alpha_lo < 1e-15:
        assert report[0] is DomainError and "too narrow" in report[1]
        return
    expected = _report_or_refusal(_full_scan_inversion, problem, measurement, config)
    if not isinstance(expected, InversionReport):
        assert report[0] is expected[0]
        return
    assert isinstance(report, InversionReport)
    assert len(report.roots) == len(expected.roots)
    inverse = fracorder.inverse
    terms, t1, d, mode_tol = inverse._inverse_inputs(problem, measurement, config, "")
    for root, reference in zip(report.roots, expected.roots):
        if abs(root - reference) > config.root_tol:
            assert abs(inverse._solution(terms, root, t1, mode_tol) - d) <= _node_error(
                terms, d, mode_tol)
    assert report.monotone == expected.monotone
    assert report.uniqueness_hypothesis == expected.uniqueness_hypothesis
    scale = inverse._scale(terms)
    assert abs(report.residual) <= max(abs(expected.residual), 1e-14 * scale)


CLIMBING_CONFIG = InverseConfig(alpha_lo=0.05, f_rel_tol=1e-6)


@pytest.fixture
def climbing():
    """A curve whose 17-node interpolant on [0.05, 0.999] keeps a tail 2.3e-6
    of F's spread and the 33-node one 1.2e-9: at CLIMBING_CONFIG the proxy
    climbs to 33 nodes."""
    x0, t1 = 2.6202948653579257, 0.1457934626604866
    problem = make_problem(0.9121899044754839, PI,
                           [(4, 1.0380322875933077), (5, -0.5448834529400755)], t1)
    return problem, Measurement(x0, t1, evaluate_solution(problem, 0.3, x0, t1))


def _flat():
    """F = E_alpha(-1e-12) at t1 = 1 varies by about 1e-12 over the orders,
    below its node error of 1e-10, with a minimum near alpha = 0.46."""
    problem = make_problem(1e-12, PI, [(1, 1.0)], 1.0)
    return problem, Measurement(PI / 2, 1.0, evaluate_solution(problem, 0.5, PI / 2, 1.0))


@pytest.mark.parametrize("config", [
    InverseConfig(), InverseConfig(f_rel_tol=1e-3), InverseConfig(scan_points=33),
    InverseConfig(scan_points=34, root_tol=1e-15),
    InverseConfig(alpha_lo=0.05, alpha_hi=0.95, scan_points=400, f_rel_tol=1e-12),
    InverseConfig(alpha_lo=0.3, alpha_hi=0.7, scan_points=57, root_tol=1e-6, f_rel_tol=1e-7),
    InverseConfig(alpha_lo=0.5, alpha_hi=0.5 + 4e-16),  # too narrow for 17 distinct nodes
    CLIMBING_CONFIG])
def test_report_matches_full_scan(single_mode, two_mode, mixed_sign, climbing, seeded_inversions,
                                  config):
    # the roots, the verdict and the refusals agree with the full scan's:
    # at f_rel_tol 1e-3 the margin is wide and F decides the sign at most
    # break points; the flat curve's roots are noise-limited; a d taken at
    # the default scan's 49th order, which is no node, makes F - d exactly
    # 0 there; and a curve whose 17-node tail has not decayed climbs to 33
    # nodes where its f_rel_tol allows
    problem, measurement = two_mode
    on_order = float(np.linspace(1e-3, 1.0 - 1e-3, 99)[48])
    special = [single_mode, two_mode, mixed_sign,
               (problem, measurement._replace(value=evaluate_solution(
                   problem, on_order, measurement.position, measurement.time))),
               (make_problem(0.2, PI, [(1, 1.0)], 1.0), Measurement(PI / 2, 1.0, 0.8)),
               _flat(),
               (make_problem(0.1, PI, [(1, 1e-200)], 10.0), Measurement(1.0, 5.0, 5e-201)),
               climbing]
    for problem, measurement in special + seeded_inversions:
        _assert_as_full_scan(problem, measurement, config)


def test_inversion_evaluates_a_third_of_the_scan(two_mode, monkeypatch):
    # F at the proxy's 17 nodes, alpha_lo and alpha_hi first and the others
    # ascending, then at the refinement's iterates and alpha_hat: the
    # bracket's left end is a node; the full scan takes 99 + 4
    orders = []
    real = fracorder.inverse._solution
    monkeypatch.setattr(fracorder.inverse, "_solution",
                        lambda *args: orders.append(args[1]) or real(*args))
    report = invert_order(*two_mode)
    assert len(orders) == 17 + report.iterations + 1
    config = InverseConfig()
    assert orders[:2] == [config.alpha_lo, config.alpha_hi]
    inner = orders[2:17]
    assert inner == sorted(set(inner)) and config.alpha_lo < inner[0] < inner[-1] < config.alpha_hi


@pytest.mark.parametrize("lo,hi", [(1e-3, 1.0 - 1e-3), (0.05, 0.95), (0.3, 0.7),
                                   (0.123456789, 0.987654321), (0.5, 0.5 + 1e-9)])
def test_proxy_nodes_nest(lo, hi):
    # the 17 nodes are the 33 nodes of even index, bit for bit, so a climb
    # from 17 to 33 evaluates only the 16 new ones
    nodes = {size: fracorder.inverse._proxy_rows(lo, hi, size)[0] for size in (17, 33)}
    assert len(nodes[17]) == 17 and len(nodes[33]) == 33
    assert nodes[17] == nodes[33][::2]


def test_proxy_climbs_to_33_nodes(climbing, monkeypatch):
    # the 17-node tail fails the decay test, the 33-node one passes: F is
    # evaluated at the 16 new nodes only, at no order twice, and the roots
    # are the full scan's
    inverse = fracorder.inverse
    orders, sizes = [], []
    real, real_rows = inverse._solution, inverse._proxy_rows
    monkeypatch.setattr(inverse, "_solution", lambda *args: orders.append(args[1]) or real(*args))
    monkeypatch.setattr(inverse, "_proxy_rows",
                        lambda lo, hi, size: sizes.append(size) or real_rows(lo, hi, size))
    report = invert_order(*climbing, CLIMBING_CONFIG)
    assert sizes == [17, 33]
    assert len(orders) == len(set(orders))
    nodes = real_rows(0.05, 0.999, 33)[0]
    assert orders[:33] == [nodes[0], nodes[-1]] + list(nodes[2:-1:2]) + list(nodes[1::2])
    assert abs(report.alpha_hat - 0.3) <= 1e-8
    _assert_as_full_scan(*climbing, CLIMBING_CONFIG)


def test_flat_curve_accepted_at_33_nodes(monkeypatch):
    # the 33-node tail stays above 1e-6 of F's spread, 1e-12, and within the
    # node error: the plateau counts as decayed.  d = F(0.5), and 0.5 is a
    # node, so that root is exact; the other is noise-limited
    inverse = fracorder.inverse
    sizes = []
    real_rows = inverse._proxy_rows
    monkeypatch.setattr(inverse, "_proxy_rows",
                        lambda lo, hi, size: sizes.append(size) or real_rows(lo, hi, size))
    problem, measurement = _flat()
    report = invert_order(problem, measurement)
    assert sizes == [17, 33]
    assert report.monotone == "violated"
    assert len(report.roots) == 2 and report.roots[1] == 0.5
    terms, t1, d, mode_tol = inverse._inverse_inputs(problem, measurement, InverseConfig(), "")
    assert abs(inverse._solution(terms, report.roots[0], t1, mode_tol) - d) <= _node_error(
        terms, d, mode_tol)


def test_undecayed_tail_refused(single_mode, monkeypatch):
    # a wiggle of 1e-4 in F, far above its node error, keeps the 33-node
    # tail from decaying
    real = fracorder.inverse._solution
    monkeypatch.setattr(fracorder.inverse, "_solution", lambda terms, alpha, *rest:
                        real(terms, alpha, *rest) + 1e-4 * math.sin(400.0 * alpha))
    with pytest.raises(AccuracyError, match=r"^invert_order: the Chebyshev tail \S+ of F at 33 "
                                            r"nodes on \[0.001, 0.999\] exceeds both 1e-6 of its "
                                            r"spread \S+ and its node error \S+$"):
        invert_order(*single_mode)


def test_narrow_interval_refused(single_mode):
    # 4e-16 holds 2 doubles: the nodes are not distinct
    with pytest.raises(DomainError, match=r"^invert_order: \[0.5, 0.5000000000000004\] is too "
                                          r"narrow for 17 distinct Chebyshev nodes$"):
        invert_order(*single_mode, InverseConfig(alpha_lo=0.5, alpha_hi=0.5 + 4e-16))


def test_invert_order_never_scans(single_mode, two_mode, mixed_sign, climbing, monkeypatch):
    # whatever scan_points, on a climbing or flat curve, and when F refuses
    # or no root lies in range, the bracket search reads the proxy alone
    monkeypatch.setattr(fracorder.inverse, "scan_bracket",
                        lambda *args: pytest.fail("the scan ran"))
    for scan_points in (9, 33, 99, 400):
        for problem, measurement in (single_mode, two_mode, mixed_sign):
            invert_order(problem, measurement, InverseConfig(scan_points=scan_points))
    invert_order(*climbing, CLIMBING_CONFIG)
    invert_order(*_flat())
    with pytest.raises(AccuracyError):
        invert_order(make_problem(1.0, PI, [(1, 1.0)], 20.0), Measurement(PI / 2, 10.0, 0.1))
    with pytest.raises(NoRootError):
        invert_order(single_mode[0], single_mode[1]._replace(value=10.0))


@pytest.mark.parametrize("sizes", [(17, 33), (33,)], ids=["17 nodes", "33 nodes"])
@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
def test_proxy_slope_matches_analytic_slope(setup, sizes, request, monkeypatch):
    # the slope of the certified interpolant, which takes the Newton steps
    # on the proxy path, agrees with the analytic F' between the nodes and,
    # through the differentiation-matrix row, at them
    inverse = fracorder.inverse
    monkeypatch.setattr(inverse, "_PROXY_NODES", sizes)
    config = InverseConfig()
    terms, t1, d, mode_tol = inverse._inverse_inputs(*request.getfixturevalue(setup), config,
                                                     "invert_order")
    interpolant = inverse._brackets(terms, t1, d, mode_tol, config)[2]
    nodes = interpolant.nodes
    assert len(nodes) == sizes[0]
    for alpha in [0.05 + 0.0225 * k for k in range(41)] + list(nodes[1:-1]):
        exact = inverse._slope(terms, alpha, t1, mode_tol)
        assert abs(interpolant.slope(alpha) - exact) <= 1e-8 * abs(exact)


@pytest.mark.parametrize("config", [InverseConfig(), InverseConfig(scan_points=33),
                                    InverseConfig(root_tol=1e-15)],
                         ids=["99", "33", "root_tol=1e-15"])
def test_slope_evaluated_once_per_inversion(single_mode, two_mode, mixed_sign, config,
                                            monkeypatch):
    # whatever scan_points or root_tol, the Newton steps take the
    # interpolant's slope, and so does the report, where its bound certifies
    # it: F' does not run
    slopes = []
    real = fracorder.inverse._slope
    monkeypatch.setattr(fracorder.inverse, "_slope",
                        lambda *args: slopes.append(args[1]) or real(*args))
    for problem, measurement in (single_mode, two_mode, mixed_sign):
        invert_order(problem, measurement, config)
    assert slopes == []


def _searches(monkeypatch):
    """(on, lo, hi, start, fprime, root, iterations) of each `_refine_root`
    run from here on; `on` is "p" for a search on the interpolant, "p'" for
    one for an extremum of it and "F" for one on F."""
    inverse = fracorder.inverse
    searches = []
    real = inverse._refine_root

    def recording(f, fprime, lo, hi, f_lo, tol, start=None):
        out = real(f, fprime, lo, hi, f_lo, tol, start)
        on = ("p" if isinstance(getattr(f, "__self__", None), inverse._Interpolant)
              else "p'" if isinstance(f, functools.partial) else "F")
        searches.append((on, lo, hi, start, fprime, out[0], out[2]))
        return out

    monkeypatch.setattr(inverse, "_refine_root", recording)
    return searches


@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
@pytest.mark.parametrize("root_tol", [1e-10, 1e-15])
@pytest.mark.parametrize("scan_points", [9, 99])
def test_refinement_within_iteration_bound(setup, root_tol, scan_points, request, monkeypatch):
    # the budget of bisections still needed bounds the search on F by
    # root_tol and the bracket's width; a search on the interpolant comes
    # first and hands its root to the search on F as the first iterate, at
    # every root_tol
    problem, measurement = request.getfixturevalue(setup)
    searches = _searches(monkeypatch)
    invert_order(problem, measurement,
                 InverseConfig(root_tol=root_tol, scan_points=scan_points))
    on_p = [search[1:] for search in searches if search[0] == "p"]
    on_f = [search[1:] for search in searches if search[0] == "F"]
    assert len(on_f) == (2 if setup == "mixed_sign" else 1)
    assert ([(lo, hi, root) for lo, hi, _, _, root, _ in on_p]
            == [(lo, hi, start) for lo, hi, start, _, _, _ in on_f])
    for lo, hi, start, _, _, iterations in on_f:
        assert lo < hi
        assert lo <= start <= hi
        assert 1 <= iterations <= 3 * math.ceil(math.log2((hi - lo) / root_tol))


def test_refinement_within_rounding_level_starts_at_proxy_root_with_proxy_slope(
        single_mode, two_mode, mixed_sign, monkeypatch):
    # at root_tol 1e-15 a step of root_tol moves F by less than its
    # round-off; each root is still refined on F from the interpolant's
    # root, with the interpolant's slope taking the Newton steps, and agrees
    # with the full scan's root
    config = InverseConfig(root_tol=1e-15)
    searches = _searches(monkeypatch)
    for problem, measurement in (single_mode, two_mode, mixed_sign):
        _assert_as_full_scan(problem, measurement, config)
    proxy_roots = [root for on, _, _, _, _, root, _ in searches if on == "p"]
    on_f = [(start, isinstance(getattr(fprime, "__self__", None), fracorder.inverse._Interpolant))
            for on, _, _, start, fprime, _, _ in searches if on == "F"]
    # each setup's searches in invert_order, one per root, come before the
    # full scan's, which start at the midpoint and step with the analytic F'
    assert [on_proxy_slope for _, on_proxy_slope in on_f] == [True, False] * 2 + [True, True,
                                                                                False, False]
    assert [start for start, on_proxy_slope in on_f if on_proxy_slope] == proxy_roots
    assert all(start is None for start, on_proxy_slope in on_f if not on_proxy_slope)


def test_refusal_at_an_end_node_ends_at_once(two_mode, monkeypatch):
    # at f_rel_tol 2e-11 the round-off floor is missed at alpha_hi, the
    # second order evaluated, and the refusal names that node
    orders = []
    real = fracorder.inverse._solution
    monkeypatch.setattr(fracorder.inverse, "_solution",
                        lambda *args: orders.append(args[1]) or real(*args))
    with pytest.raises(AccuracyError) as refused:
        invert_order(*two_mode, InverseConfig(f_rel_tol=2e-11))
    assert orders == [1e-3, 1.0 - 1e-3]
    assert str(refused.value) == ("mittag_leffler: achievable relative accuracy "
                                  "~1.1e-11 at alpha=0.999, z=-4.48965 misses rel_tol=1e-11")


def test_two_roots_inside_one_scan_cell(two_close_roots):
    # the uniform scan sees no sign change; the proxy's extremum between
    # two nodes of one sign does, and p there lies beyond the margin
    alpha, problem, measurement = two_close_roots
    scan = scan_bracket(problem, measurement)
    assert fracorder.inverse._sign_changes(scan.alphas, scan.values) == []
    report = invert_order(problem, measurement)
    assert not report.unique
    assert len(report.roots) == 2
    assert abs(report.roots[0] - 0.4123) <= 1e-4
    assert abs(report.roots[1] - alpha) <= 1e-7


@pytest.mark.parametrize("config, tol", [
    (InverseConfig(f_rel_tol=1e-3), 2e-3), (InverseConfig(scan_points=33), 1e-9),
    (InverseConfig(alpha_lo=0.05, f_rel_tol=1e-6), 1e-5)])
def test_two_close_roots_found_at_every_config(two_close_roots, config, tol):
    # where the margin is wide, F decides the sign at the extremum; the
    # scan's number of orders plays no part, nor does the interval's end
    _, problem, measurement = two_close_roots
    roots = invert_order(problem, measurement, config).roots
    assert len(roots) == 2
    for root, reference in zip(roots, invert_order(problem, measurement).roots):
        assert abs(root - reference) <= tol


def test_hidden_minimum_is_violated(hidden_minimum):
    # F' changes sign between the orders 0.001 and 0.01, where no scan order
    # lies inside; the proxy's coefficients see the minimum, and the root
    # keeps its bits
    problem, measurement = hidden_minimum
    assert residual_derivative(problem, measurement, 0.001) < 0.0
    assert residual_derivative(problem, measurement, 0.01) > 0.0
    report = invert_order(problem, measurement)
    assert report.monotone == "violated"
    assert report.roots == (0.7093381822742502,)


@pytest.mark.parametrize("slopes, verdict", [
    ((1.0, 2.0), "verified"), ((-1.0, -2.0), "verified"), ((1.0, -2.0), "violated"),
    ((1.0, 0.0), "violated")])
def test_verdict_needs_one_certified_sign_on_every_leaf(single_mode, slopes, verdict,
                                                        monkeypatch):
    # two leaves, each with p' certified one-signed, or not where 0
    monkeypatch.setattr(fracorder.inverse, "_leaves", lambda coefficients, f, lo, hi: [
        (lo, 0.5, slopes[0], None), (0.5, hi, slopes[1], None)])
    assert invert_order(*single_mode).monotone == verdict


def test_uneven_monotone_curve_verified_from_two_leaves(seeded_inversions, monkeypatch):
    # case 19 rises too unevenly for the coefficient test on the whole
    # interval, |d_0| < sum |d_k|, and passes it on each half
    inverse = fracorder.inverse
    leaves = []
    real = inverse._leaves
    monkeypatch.setattr(inverse, "_leaves", lambda *args: leaves.append(real(*args)) or leaves[-1])
    report = invert_order(*seeded_inversions[19])
    assert report.monotone == "verified"
    assert [(a, b) for a, b, _, _ in leaves[0]] == [(1e-3, 0.5), (0.5, 1.0 - 1e-3)]
    assert all(slope > 0.0 for _, _, slope, _ in leaves[0])


# ----------------------------------------------- the interpolant's reference
#
# The interpolant's arithmetic as the straightforward loops wrote it, its
# value and slope each from their own pass; the fused evaluator must give
# their bits.

def _reference_value(nodes, weights, f, x):
    if x in nodes:
        return f[nodes.index(x)]
    quotients = [weight / (x - node) for weight, node in zip(weights, nodes)]
    total = math.fsum(quotients)
    return math.fsum(q / total * value for q, value in zip(quotients, f))


def _reference_slope(nodes, weights, f, x):
    j = min(range(len(nodes)), key=lambda k: abs(x - nodes[k]))
    if x == nodes[j]:
        return math.fsum(weight / weights[j] * (value - f[j]) / (x - node)
                         for k, (node, weight, value) in enumerate(zip(nodes, weights, f))
                         if k != j)
    quotients = [weight / (x - node) for weight, node in zip(weights, nodes)]
    total = math.fsum(quotients)
    above = math.fsum(q * (value - f[j]) for q, value in zip(quotients, f)) / total
    return math.fsum(q * (f[j] - value + above) / (x - node)
                     for q, value, node in zip(quotients, f, nodes)) / total


def _underflowed_rate():
    return make_problem(1.0, 1e200, [(1, 1.0)], 2.0), Measurement(5e199, 1.0, 1.0)


@pytest.mark.parametrize("size", [17, 33])
@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign", "underflowed"])
def test_fused_evaluator_matches_the_reference_bits(setup, size, request):
    # p and p' at 400 seeded orders, at every node and an ulp either side
    # of it, and midway between nodes, where the two nearest can tie; asked
    # in either order at each x and then again from the cache
    inverse = fracorder.inverse
    problem, measurement = (_underflowed_rate() if setup == "underflowed"
                            else request.getfixturevalue(setup))
    config = InverseConfig()
    terms, t1, d, mode_tol = inverse._inverse_inputs(problem, measurement, config, "")
    nodes, weights, _ = inverse._proxy_rows(config.alpha_lo, config.alpha_hi, size)
    f = [inverse._solution(terms, alpha, t1, mode_tol) - d for alpha in nodes]
    interpolant = inverse._Interpolant(nodes, weights, f, 0.0)
    rng = random.Random(size)
    orders = [rng.uniform(config.alpha_lo, config.alpha_hi) for _ in range(400)]
    orders += [x for node in nodes
               for x in (math.nextafter(node, 0.0), node, math.nextafter(node, 1.0))]
    orders += [0.5 * (a + b) for a, b in zip(nodes, nodes[1:])]
    for k, x in enumerate(orders):
        value, slope = _reference_value(nodes, weights, f, x), _reference_slope(nodes, weights, f, x)
        if k % 2:
            got = interpolant.value(x), interpolant.slope(x)
        else:
            got = tuple(reversed((interpolant.slope(x), interpolant.value(x))))
        assert repr(got) == repr((value, slope)) == repr((interpolant.value(x),
                                                          interpolant.slope(x)))


@pytest.mark.parametrize("setup, config", [
    ("single_mode", InverseConfig()), ("two_mode", InverseConfig()),
    ("mixed_sign", InverseConfig()), ("climbing", CLIMBING_CONFIG)])
def test_slope_error_bounds_the_distance_to_the_analytic_slope(setup, config, request):
    # at 41 orders in [0.05, 0.95], wherever the analytic F' is certified;
    # the climbing curve's proxy has 33 nodes
    inverse = fracorder.inverse
    terms, t1, d, mode_tol = inverse._inverse_inputs(*request.getfixturevalue(setup), config, "")
    interpolant = inverse._brackets(terms, t1, d, mode_tol, config)[2]
    assert len(interpolant.nodes) == (33 if setup == "climbing" else 17)
    node_error = _node_error(terms, d, mode_tol)
    checked = 0
    for alpha in [0.05 + 0.0225 * k for k in range(41)]:
        try:
            exact = inverse._slope(terms, alpha, t1, mode_tol)
        except AccuracyError:
            continue
        checked += 1
        assert abs(interpolant.slope(alpha) - exact) <= interpolant.slope_error(alpha, node_error)
    assert checked >= 11
    assert interpolant.slope_error(interpolant.nodes[3], node_error) == math.inf


@pytest.mark.parametrize("size, c", [(17, 1.0), (17, 2.0), (33, 8.0), (33, 16.0)])
def test_slope_error_tail_term_bounds_the_interpolation_error(size, c):
    # exact values of 1/(1 + c (x - 0.3)**2), whose trailing coefficients
    # lie between 1e-9 and 1e-6 of its spread: with no node error, the
    # trailing-coefficient term alone bounds |p' - g'|
    inverse = fracorder.inverse
    nodes, weights, dct = inverse._proxy_rows(1e-3, 1.0 - 1e-3, size)
    f = [1.0 / (1.0 + c * (x - 0.3) ** 2) for x in nodes]
    trailing = max(abs(inverse._dot(row, f)) for row in dct[-3:])
    assert 1e-9 < trailing / (max(f) - min(f)) <= 1e-6
    interpolant = inverse._Interpolant(nodes, weights, f, trailing)
    for x in [0.05 + 0.0225 * k for k in range(41)]:
        slope = -2.0 * c * (x - 0.3) / (1.0 + c * (x - 0.3) ** 2) ** 2
        assert abs(interpolant.slope(x) - slope) <= interpolant.slope_error(x, 0.0)


def _reference_brackets(terms, t1, d, mode_tol, config):
    """`_brackets`' brackets and the orders where F runs, as plain loops over
    the break points, with `_leaves`' own pieces."""
    inverse = fracorder.inverse
    lo, hi = config.alpha_lo, config.alpha_hi
    known = {}

    def exact(alpha):
        if alpha not in known:
            known[alpha] = inverse._solution(terms, alpha, t1, mode_tol) - d
        return known[alpha]

    for size in inverse._PROXY_NODES:
        nodes, weights, dct = inverse._proxy_rows(lo, hi, size)
        for alpha in (nodes[0], nodes[-1]) + nodes[1:-1]:
            exact(alpha)
        f = [known[alpha] for alpha in nodes]
        coefficients = [inverse._dot(row, f) for row in dct]
        trailing = max(abs(c) for c in coefficients[-3:])
        if trailing <= 1e-6 * (max(f) - min(f)):
            break
    margin = 8.0 * (trailing + _node_error(terms, d, mode_tol))
    interpolant = inverse._Interpolant(nodes, weights, f, trailing)
    points = set(nodes)
    for a, b, _, x in inverse._leaves(coefficients, f, lo, hi):
        points.update((a, b) if x is None else (a, x, b))
    points = sorted(points)
    values = []
    for alpha in points:
        value = known[alpha] if alpha in known else interpolant.value(alpha)
        values.append(value if alpha in known or abs(value) > margin else exact(alpha))
    brackets = []
    for i, (a, value) in enumerate(zip(points, values)):
        if value == 0.0:
            brackets.append((a, a, value))
        elif i + 1 < len(points) and values[i + 1] != 0.0 and (value < 0.0) != (values[i + 1] < 0.0):
            brackets.append((a, points[i + 1], value))
    return brackets, set(known)


@pytest.mark.parametrize("size", [17, 33])
def test_proxy_brackets_match_the_reference_loops(single_mode, two_mode, mixed_sign, climbing,
                                                  two_close_roots, seeded_inversions, size,
                                                  monkeypatch):
    # brackets and the set of orders F is evaluated at are the reference's,
    # from 17 nodes and from 33
    inverse = fracorder.inverse
    monkeypatch.setattr(inverse, "_PROXY_NODES", (17, 33) if size == 17 else (33,))
    orders = []
    real = inverse._solution
    monkeypatch.setattr(inverse, "_solution", lambda *args: orders.append(args[1]) or real(*args))
    cases = [(*case, InverseConfig()) for case in
             [single_mode, two_mode, mixed_sign, two_close_roots[1:], _underflowed_rate()]
             + seeded_inversions]
    cases += [(*climbing, CLIMBING_CONFIG), (*two_close_roots[1:], InverseConfig(f_rel_tol=1e-3))]
    for problem, measurement, config in cases:
        inputs = inverse._inverse_inputs(problem, measurement, config, "")
        orders.clear()
        found = inverse._brackets(*inputs, config)[0], set(orders)
        assert len(orders) == len(found[1])
        assert found == _reference_brackets(*inputs, config)


def test_proxy_path_work_counts(port_calls, seeded_inversions, monkeypatch):
    # the report's slope comes from the interpolant: no analytic F', so no
    # psi call; F runs at the 17 nodes, where each bracket's left end
    # lies, then at the iterates and at alpha_hat, never twice at one order
    inverse = fracorder.inverse
    orders, slopes = [], []
    real_solution, real_slope = inverse._solution, inverse._slope
    monkeypatch.setattr(inverse, "_solution",
                        lambda *args: orders.append(args[1]) or real_solution(*args))
    monkeypatch.setattr(inverse, "_slope", lambda *args: slopes.append(args[1]) or real_slope(*args))
    config = InverseConfig()
    nodes = inverse._proxy_rows(config.alpha_lo, config.alpha_hi, 17)[0]
    for problem, measurement in seeded_inversions:
        orders.clear()
        report = invert_order(problem, measurement, config)
        assert len(orders) == len(set(orders))
        assert orders[:17] == [nodes[0], nodes[-1]] + list(nodes[1:-1])
        iterates = [alpha for _, alpha, _ in report.trace]
        assert len(orders) == 17 + report.iterations + (report.alpha_hat not in iterates)
    assert slopes == []
    assert port_calls["_psi"] == []


# ------------------------------------------------ the monotone certificate

@pytest.mark.parametrize("size", [17, 33])
@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
def test_coefficient_rows_rebuild_the_interpolant(setup, size, request):
    # the DCT-I rows give the interpolant's Chebyshev coefficients in the
    # variable x = (alpha - mid) / half: their sum rebuilds f at the nodes,
    # x_k = -cos(k pi / m), and p at 41 orders; each row is the one in the
    # reflected variable -x times the exact sign (-1)**j
    inverse = fracorder.inverse
    config = InverseConfig()
    terms, t1, d, mode_tol = inverse._inverse_inputs(*request.getfixturevalue(setup), config, "")
    lo, hi = config.alpha_lo, config.alpha_hi
    nodes, weights, dct = inverse._proxy_rows(lo, hi, size)
    m = size - 1
    assert len(dct) == size and all(len(row) == size for row in dct)
    ends = [0.5] + [1.0] * (m - 1) + [0.5]
    assert dct == tuple(tuple((-1) ** j * (2.0 / m * (0.5 if j in (0, m) else 1.0) * end
                                           * math.cos(math.pi * (j * k % (2 * m)) / m))
                              for k, end in enumerate(ends))
                        for j in range(m + 1))
    f = [inverse._solution(terms, alpha, t1, mode_tol) - d for alpha in nodes]
    coefficients = [inverse._dot(row, f) for row in dct]
    spread = max(f) - min(f)
    for k, value in enumerate(f):
        rebuilt = sum(c * (-1) ** j * math.cos(math.pi * j * k / m)
                      for j, c in enumerate(coefficients))
        assert abs(rebuilt - value) <= 1e-14 * spread
    interpolant = inverse._Interpolant(nodes, weights, f, 0.0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for alpha in [0.05 + 0.0225 * k for k in range(41)]:
        theta = math.acos((alpha - mid) / half)
        rebuilt = sum(c * math.cos(j * theta) for j, c in enumerate(coefficients))
        assert abs(rebuilt - interpolant.value(alpha)) <= 1e-14 * spread


@pytest.mark.parametrize("size", [17, 33])
def test_halving_maps_restrict_the_polynomial(size):
    # the coefficients a half's map gives rebuild the polynomial at 41
    # points of that half, and the entries are dyadic rationals, exact
    inverse = fracorder.inverse
    m = size - 1
    rng = random.Random(size)
    coefficients = [rng.uniform(-1.0, 1.0) / (j + 1) for j in range(size)]
    left, right = inverse._halving_maps(size)
    for rows, shift in ((left, -1.0), (right, 1.0)):
        assert all(entry * 2.0 ** m == int(entry * 2.0 ** m) for row in rows for entry in row)
        half = [inverse._dot(row, coefficients) for row in rows]
        for s in [-1.0 + k / 20 for k in range(41)]:
            x = 0.5 * (s + shift)
            assert abs(inverse._chebyshev_sum(half, s)
                       - inverse._chebyshev_sum(coefficients, x)) <= 1e-14


@pytest.mark.parametrize("size", [17, 33])
def test_slope_floor_bounds_the_interpolant_slope(single_mode, two_mode, mixed_sign,
                                                  seeded_inversions, size):
    # on every leaf certified one-signed, p' has the sign of the leaf's
    # slope and |p'| is at least it at 401 orders of the leaf, ends included
    inverse = fracorder.inverse
    config = InverseConfig()
    lo, hi = config.alpha_lo, config.alpha_hi
    nodes, weights, dct = inverse._proxy_rows(lo, hi, size)
    certified = 0
    for problem, measurement in [single_mode, two_mode, mixed_sign] + seeded_inversions:
        terms, t1, d, mode_tol = inverse._inverse_inputs(problem, measurement, config, "")
        f = [inverse._solution(terms, alpha, t1, mode_tol) - d for alpha in nodes]
        interpolant = inverse._Interpolant(nodes, weights, f, 0.0)
        for a, b, slope, _ in inverse._leaves([inverse._dot(row, f) for row in dct], f, lo, hi):
            if slope == 0.0:
                continue
            certified += 1
            orders = [a + (b - a) * k / 400 for k in range(401)]
            assert min(interpolant.slope(x) / slope for x in orders) >= 1.0
    assert certified == 25
    # on a straight line the bound is |p'| itself, less the round-off
    line = [0.3 - 0.7 * alpha for alpha in nodes]
    (_, _, slope, _), = inverse._leaves([inverse._dot(row, line) for row in dct], line, lo, hi)
    interpolant = inverse._Interpolant(nodes, weights, line, 0.0)
    assert -0.7 * (1.0 - 1e-8) > slope
    assert min(interpolant.slope(lo + (hi - lo) * k / 400) / slope for k in range(401)) >= 1.0


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


@pytest.mark.parametrize("call", [invert_order, scan_bracket], ids=lambda call: call.__name__)
def test_config_must_be_an_inverse_config(single_mode, call):
    # a plain tuple of the five fields, a dict or None is refused by name,
    # not read until an AttributeError; the measurement is checked first
    problem, measurement = single_mode
    name = call.__name__
    for bad in ((1e-3, 0.999, 1e-10, 99, 1e-10), {"scan_points": 99}, None):
        with pytest.raises(DomainError, match=f"^{name}: config must be an InverseConfig, "
                                              f"got {re.escape(repr(bad))}$"):
            call(problem, measurement, bad)
    with pytest.raises(DomainError, match="^measurement position"):
        call(problem, Measurement(0.0, 2.0, 0.1), None)


def test_inverse_config_root_tol_floor():
    # below 1e-15 a bracket may hold no double strictly inside it
    for root_tol in (1e-16, 9.99e-16, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="InverseConfig: root_tol must be"):
            InverseConfig(root_tol=root_tol)
    assert InverseConfig(root_tol=1e-15).root_tol == 1e-15


@pytest.mark.parametrize("f_rel_tol,message", [
    (1e-13, "~1.0e-11 at alpha=0.999, z=-4.48965 misses rel_tol=5e-14"),
    (2e-11, "~1.1e-11 at alpha=0.999, z=-4.48965 misses rel_tol=1e-11"),
])
def test_f_rel_tol_below_round_off_floor_refused(two_mode, f_rel_tol, message):
    # each of the two modes is asked for f_rel_tol / 2, below the power
    # series' round-off floor 6*EPS*sum|term| / |E| at alpha_hi, the
    # second node evaluated
    with pytest.raises(AccuracyError) as exc_info:
        invert_order(*two_mode, InverseConfig(f_rel_tol=f_rel_tol))
    assert str(exc_info.value) == "mittag_leffler: achievable relative accuracy " + message
    assert abs(invert_order(*two_mode, InverseConfig(f_rel_tol=3e-11)).alpha_hat - 0.5) <= 1e-4


@pytest.mark.parametrize("field", ["scan_points"])
@pytest.mark.parametrize("value", [99.0, True, "99", np.float64(99.0)])
def test_inverse_config_counts_must_be_int(field, value):
    with pytest.raises(DomainError, match=field):
        InverseConfig(**{field: value})


@pytest.mark.parametrize("field", ["alpha_lo", "alpha_hi", "root_tol", "f_rel_tol"])
def test_inverse_config_reals_must_be_real(field):
    for value in (True, False, "0.5", None, [0.5]):
        with pytest.raises(DomainError, match=f"InverseConfig: {field} must be a real number"):
            InverseConfig(**{field: value})
    with pytest.raises(DomainError, match=f"InverseConfig: {field} lies past the double range"):
        InverseConfig(**{field: 10**400})
    default = getattr(InverseConfig(), field)
    assert getattr(InverseConfig(**{field: np.float64(default)}), field) == default
