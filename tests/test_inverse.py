import math
import operator
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
    # scan compares signs, and finds the bracket of the amplitude-1 problem
    brackets = []
    for amplitude in (1e-200, 1.0):
        problem = make_problem(0.1, PI, [(1, amplitude)], 10.0)
        measurement = Measurement(1.0, 5.0, evaluate_solution(problem, 0.503, 1.0, 5.0))
        brackets.append(scan_bracket(problem, measurement).brackets)
        assert abs(invert_order(problem, measurement).alpha_hat - 0.503) <= 1e-10
    assert brackets[0] == brackets[1] == ((0.5, 0.5101836734693878),)


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


@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
@pytest.mark.parametrize("root_tol", [1e-10, 1e-15])
@pytest.mark.parametrize("scan_points", [9, 99])
def test_refinement_within_iteration_bound(setup, root_tol, scan_points, request, monkeypatch):
    # the budget of bisections still needed bounds the search on F by
    # root_tol; past 33 scan orders a search on the interpolant comes first
    # and hands its root to the search on F as the first iterate, unless
    # root_tol is within F's rounding level
    inverse = fracorder.inverse
    problem, measurement = request.getfixturevalue(setup)
    refined = []
    real = inverse._refine_root

    def recording(f, fprime, lo, hi, f_lo, tol, start=None):
        out = real(f, fprime, lo, hi, f_lo, tol, start)
        on_p = isinstance(getattr(f, "__self__", None), inverse._Interpolant)
        refined.append((on_p, lo, hi, start, out[2]))
        return out

    monkeypatch.setattr(inverse, "_refine_root", recording)
    invert_order(problem, measurement,
                 InverseConfig(root_tol=root_tol, scan_points=scan_points))
    on_f = [search[1:] for search in refined if not search[0]]
    assert len(on_f) == (2 if setup == "mixed_sign" else 1)
    assert len(refined) == len(on_f) * (2 if scan_points > 33 else 1)
    assert all(start is None for _, _, start, _ in on_f) == (scan_points <= 33 or root_tol < 1e-14)
    for lo, hi, start, iterations in on_f:
        assert lo < hi
        assert start is None or lo <= start <= hi
        assert 1 <= iterations <= 3 * math.ceil(math.log2((hi - lo) / root_tol))


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
    lo, hi = scan.brackets[0]
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
    # positive hypothesis + verified monotone scan => exactly one root
    for problem, measurement in (single_mode, two_mode):
        scan = scan_bracket(problem, measurement)
        assert scan.monotone
        report = invert_order(problem, measurement)
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
    # ml_alpha_derivative's c, which the caller never passed; alpha_hat is
    # alpha_lo, a node, where the report takes the analytic F'
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
    assert len(report.roots) == InverseConfig().scan_points
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
    order, each bracket refined from the scan's value at its left end."""
    scan = scan_bracket(problem, measurement, config)
    if not scan.brackets:
        raise NoRootError(f"no root in range: F(alpha)-d has no sign change on "
                          f"[{config.alpha_lo:g}, {config.alpha_hi:g}]")

    def f(alpha):
        return residual(problem, measurement, alpha, config.f_rel_tol)

    def fp(alpha):
        return residual_derivative(problem, measurement, alpha, config.f_rel_tol)

    scanned = dict(zip(scan.alphas, scan.values))
    refined = [fracorder.inverse._refine_root(f, fp, lo, hi, scanned[lo], config.root_tol)
               for lo, hi in scan.brackets]
    alpha_hat = refined[0][0]
    try:
        slope = fp(alpha_hat)
    except AccuracyError:
        slope = math.nan
    terms = fracorder.forward._mode_terms(problem, measurement.position)
    return InversionReport(
        alpha_hat, f(alpha_hat), slope, "verified" if scan.monotone else "violated",
        all(amplitude * basis > 0.0 for amplitude, basis, _ in terms),
        math.inf if abs(slope) < 1e-14 else 1.0 / abs(slope), refined[0][1],
        tuple(root for root, _, _ in refined), sum(used for _, _, used in refined))


def _report_or_refusal(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, DomainError, NoRootError) as exc:
        return type(exc), str(exc)


def _cells_of_the_bracket_search(problem, measurement, config):
    """`invert_order`'s (cells with F - d at each left end, verdict)."""
    inverse = fracorder.inverse
    inputs = inverse._inverse_inputs(problem, measurement, config, "invert_order")
    return inverse._brackets(*inputs, config)[:2]


def _cells_of_the_full_scan(problem, measurement, config):
    scan = scan_bracket(problem, measurement, config)
    scanned = dict(zip(scan.alphas, scan.values))
    return [(a, b, scanned[a]) for a, b in scan.brackets], scan.monotone


def _assert_as_full_scan(problem, measurement, config, scans):
    """Brackets, verdict and every refusal are the full scan's, byte for
    byte; where `_scan` runs, which appends to `scans`, the whole report is.

    On the proxy path the report agrees with the full scan's, whose
    refinement starts at the cell midpoints and takes F' at each iterate:
    each root lies in its cell and within root_tol of the full scan's, and
    the residual is at most the full scan's or 1e-14 of sum |a_n sin_n|.
    """
    cells = _report_or_refusal(_cells_of_the_bracket_search, problem, measurement, config)
    assert repr(cells) == repr(_report_or_refusal(_cells_of_the_full_scan, problem,
                                                  measurement, config))
    expected = _report_or_refusal(_full_scan_inversion, problem, measurement, config)
    scans.clear()
    report = _report_or_refusal(invert_order, problem, measurement, config)
    if scans or not isinstance(expected, InversionReport):
        assert repr(report) == repr(expected)
        return
    assert isinstance(report, InversionReport)
    assert len(report.roots) == len(expected.roots) == len(cells[0])
    for root, reference, (lo, hi, _) in zip(report.roots, expected.roots, cells[0]):
        assert lo <= root <= hi
        assert abs(root - reference) <= config.root_tol
    assert report.monotone == expected.monotone
    assert report.uniqueness_hypothesis == expected.uniqueness_hypothesis
    scale = sum(abs(amplitude * basis) for amplitude, basis, _ in
                fracorder.forward._mode_terms(problem, measurement.position))
    assert abs(report.residual) <= max(abs(expected.residual), 1e-14 * scale)


@pytest.fixture
def scans(monkeypatch):
    """The scan_points of each `_scan` run, from here on."""
    runs = []
    real = fracorder.inverse._scan
    monkeypatch.setattr(fracorder.inverse, "_scan",
                        lambda *args: runs.append(args[-1].scan_points) or real(*args))
    return runs


def _seeded_inversions(seed, count):
    """Benchmark-like inversions: 1-3 modes of one sign at x0 or two opposed
    ones, the largest rate at most min(0.5, 4/t1), d taken at a drawn order."""
    rng = random.Random(seed)
    drawn = []
    for k in range(count):
        t1 = rng.uniform(2.0, 10.0)
        indices = sorted(rng.sample(range(1, 6), 2 if k % 2 else rng.randint(1, 3)))
        diffusivity = rng.uniform(0.25, 1.0) * min(0.5, 4.0 / t1) / indices[-1] ** 2
        x0 = rng.uniform(0.2, PI - 0.2)
        signs = (1.0, -1.0) if k % 2 else (1.0,) * len(indices)
        problem = make_problem(diffusivity, PI, [(n, s * math.copysign(rng.uniform(0.2, 2.0),
                                                                        math.sin(n * x0)))
                                                 for n, s in zip(indices, signs)], t1)
        d = evaluate_solution(problem, rng.uniform(0.1, 0.9), x0, t1)
        drawn.append((problem, Measurement(x0, t1, d)))
    return drawn


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


@pytest.mark.parametrize("config", [
    InverseConfig(), InverseConfig(f_rel_tol=1e-3), InverseConfig(scan_points=33),
    InverseConfig(scan_points=34, root_tol=1e-15),
    InverseConfig(alpha_lo=0.05, alpha_hi=0.95, scan_points=400, f_rel_tol=1e-12),
    InverseConfig(alpha_lo=0.3, alpha_hi=0.7, scan_points=57, root_tol=1e-6, f_rel_tol=1e-7),
    InverseConfig(alpha_lo=0.5, alpha_hi=0.5 + 4e-16),  # too narrow for 33 distinct nodes
    CLIMBING_CONFIG])
def test_report_matches_full_scan(single_mode, two_mode, mixed_sign, climbing, config, scans):
    # the brackets, the verdict and every refusal are the full scan's, and
    # so is every report bit where the scan runs: at f_rel_tol 1e-3 the
    # margin is wide and most scan orders take F itself; a flat curve, whose
    # trailing coefficients are round-off, takes the scan; a d taken at the
    # default scan's 49th order, which is no node, makes F - d exactly 0
    # there; and a curve whose 17-node tail has not decayed climbs to 33
    # nodes where its f_rel_tol allows
    problem, measurement = two_mode
    on_order = float(np.linspace(1e-3, 1.0 - 1e-3, 99)[48])
    special = [single_mode, two_mode, mixed_sign,
               (problem, measurement._replace(value=evaluate_solution(
                   problem, on_order, measurement.position, measurement.time))),
               (make_problem(0.2, PI, [(1, 1.0)], 1.0), Measurement(PI / 2, 1.0, 0.8)),
               (make_problem(1e-12, PI, [(1, 1.0)], 1.0), Measurement(PI / 2, 1.0, 1.0 - 1e-13)),
               (make_problem(0.1, PI, [(1, 1e-200)], 10.0), Measurement(1.0, 5.0, 5e-201)),
               climbing]
    for problem, measurement in special + _seeded_inversions(5, 24):
        _assert_as_full_scan(problem, measurement, config, scans)


def test_inversion_evaluates_a_third_of_the_scan(two_mode, monkeypatch):
    # F at the proxy's 17 nodes, alpha_lo and alpha_hi first and the others
    # ascending, at the few scan orders the proxy cannot certify, among them
    # the bracket's left end, then at the refinement's iterates and
    # alpha_hat; the full scan takes 99 + 4
    orders = []
    real = fracorder.inverse._solution
    monkeypatch.setattr(fracorder.inverse, "_solution",
                        lambda *args: orders.append(args[1]) or real(*args))
    report = invert_order(*two_mode)
    assert len(orders) <= 17 + 3 + report.iterations + 1
    config = InverseConfig()
    assert orders[:2] == [config.alpha_lo, config.alpha_hi]
    inner = orders[2:17]
    assert inner == sorted(set(inner)) and config.alpha_lo < inner[0] < inner[-1] < config.alpha_hi


@pytest.mark.parametrize("lo,hi", [(1e-3, 1.0 - 1e-3), (0.05, 0.95), (0.3, 0.7),
                                   (0.123456789, 0.987654321), (0.5, 0.5 + 1e-9)])
def test_proxy_nodes_nest(lo, hi):
    # the 17 nodes are the 33 nodes of even index, bit for bit, so a climb
    # from 17 to 33 evaluates only the 16 new ones
    nodes = {size: fracorder.inverse._proxy_rows(lo, hi, 99, size)[1] for size in (17, 33)}
    assert len(nodes[17]) == 17 and len(nodes[33]) == 33
    assert nodes[17] == nodes[33][::2]


def test_proxy_climbs_to_33_nodes(climbing, monkeypatch):
    # the 17-node tail fails the decay test, the 33-node one passes: F is
    # evaluated at the 16 new nodes only, at no order twice, no scan runs,
    # and the brackets and the roots are the full scan's
    inverse = fracorder.inverse
    orders, sizes = [], []
    real, real_proxy, real_scan = inverse._solution, inverse._proxy_brackets, inverse._scan
    monkeypatch.setattr(inverse, "_solution", lambda *args: orders.append(args[1]) or real(*args))
    monkeypatch.setattr(inverse, "_proxy_brackets",
                        lambda *args: sizes.append(len(args[4][1])) or real_proxy(*args))
    monkeypatch.setattr(inverse, "_scan", lambda *args: pytest.fail("the scan ran"))
    report = invert_order(*climbing, CLIMBING_CONFIG)
    assert sizes == [17, 33]
    assert len(orders) == len(set(orders))
    nodes = inverse._proxy_rows(0.05, 0.999, 99, 33)[1]
    assert orders[:33] == [nodes[0], nodes[-1]] + list(nodes[2:-1:2]) + list(nodes[1::2])
    assert abs(report.alpha_hat - 0.3) <= 1e-8
    scans = []
    monkeypatch.setattr(inverse, "_scan", lambda *args: scans.append(1) or real_scan(*args))
    _assert_as_full_scan(*climbing, CLIMBING_CONFIG, scans)


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


@pytest.mark.parametrize("scan_points", [99, 33])
def test_slope_evaluated_once_per_inversion(single_mode, two_mode, mixed_sign, scan_points,
                                            monkeypatch):
    # past 33 scan orders the Newton steps take the interpolant's slope, and
    # so does the report, where its bound certifies it: F' does not run; the
    # scan's refinement takes F' at its iterates, as the full scan's does
    slopes = []
    real = fracorder.inverse._slope
    monkeypatch.setattr(fracorder.inverse, "_slope",
                        lambda *args: slopes.append(args[1]) or real(*args))
    config = InverseConfig(scan_points=scan_points)
    for problem, measurement in (single_mode, two_mode, mixed_sign):
        slopes.clear()
        report = invert_order(problem, measurement, config)
        if scan_points > 33:
            assert slopes == []
            continue
        on_scan = list(slopes)
        slopes.clear()
        _full_scan_inversion(problem, measurement, config)
        assert on_scan == slopes and len(on_scan) > 1


def test_refinement_within_rounding_level_runs_as_the_scan(single_mode, two_mode, mixed_sign):
    # at root_tol 1e-15 a step of root_tol moves F by less than its
    # round-off, so each root is refined from its cell's midpoint with F',
    # as the full scan's is, and the report is the full scan's bit for bit
    config = InverseConfig(root_tol=1e-15)
    for problem, measurement in (single_mode, two_mode, mixed_sign):
        assert (repr(invert_order(problem, measurement, config))
                == repr(_full_scan_inversion(problem, measurement, config)))


def test_refusal_at_an_end_node_hands_over_at_once(two_mode, monkeypatch):
    # at f_rel_tol 2e-11 the round-off floor is missed at alpha_hi, the
    # second order evaluated, so the scan starts after at most 2 orders and
    # its refusal text stands
    orders, started = [], []
    real, real_scan = fracorder.inverse._solution, fracorder.inverse._scan
    monkeypatch.setattr(fracorder.inverse, "_solution",
                        lambda *args: orders.append(args[1]) or real(*args))
    monkeypatch.setattr(fracorder.inverse, "_scan",
                        lambda *args: started.append(len(orders)) or real_scan(*args))
    with pytest.raises(AccuracyError) as refused:
        invert_order(*two_mode, InverseConfig(f_rel_tol=2e-11))
    assert started and started[0] <= 2
    assert str(refused.value) == ("mittag_leffler: achievable relative accuracy "
                                  "~1.1e-11 at alpha=0.999, z=-4.48965 misses rel_tol=1e-11")


def test_bracket_search_hands_over_to_the_scan(two_mode, scans):
    # a scan of at most 33 orders, a refusal at a node and trailing
    # coefficients above 1e-6 of F's spread each run the full scan, whose
    # refusal text stands
    invert_order(*two_mode)
    invert_order(*two_mode, InverseConfig(scan_points=40))
    assert scans == []
    invert_order(*two_mode, InverseConfig(scan_points=33))
    assert scans == [33]
    flat = make_problem(1e-12, PI, [(1, 1.0)], 1.0)
    invert_order(flat, Measurement(PI / 2, 1.0, evaluate_solution(flat, 0.5, PI / 2, 1.0)))
    assert scans == [33, 99]
    refusing = (make_problem(1.0, PI, [(1, 1.0)], 20.0), Measurement(PI / 2, 10.0, 0.1))
    with pytest.raises(AccuracyError) as inverted:
        invert_order(*refusing)
    assert scans == [33, 99, 99]
    with pytest.raises(AccuracyError) as scanned:
        scan_bracket(*refusing)
    assert str(inverted.value) == str(scanned.value)


def _two_close_roots():
    """(alpha, problem, measurement) where F - d has two simple roots 0.0037
    apart inside the scan cell [0.40835, 0.41853], whose ends are both
    negative, and peaks at +2.6e-7 between them."""
    alpha, x0, t1 = 0.41597965601616194, 1.7674655632682383, 4.8793236812777065
    problem = make_problem(0.01616371352710967, PI,
                           [(3, -1.474059766702691), (5, -1.4133489825594436)], t1)
    return alpha, problem, Measurement(x0, t1, evaluate_solution(problem, alpha, x0, t1))


def test_two_roots_inside_one_scan_cell():
    # the uniform scan sees no sign change, the proxy's extremum inside the
    # cell does, and F confirms its sign
    alpha, problem, measurement = _two_close_roots()
    assert scan_bracket(problem, measurement).brackets == ()
    report = invert_order(problem, measurement)
    assert not report.unique
    assert len(report.roots) == 2
    assert abs(report.roots[0] - 0.4123) <= 1e-4
    assert abs(report.roots[1] - alpha) <= 1e-7


# ----------------------------------------------- the interpolant's reference
#
# The proxy's arithmetic as the straightforward loops wrote it: the
# interpolant's value and slope each from their own pass, and the signs,
# steps, hidden pairs and brackets over the scan orders one order at a time.
# The fused evaluator and the bookkeeping passes must give their bits.

def _reference_value(nodes, weights, f, x):
    row = fracorder.inverse._barycentric_row(x, nodes, weights)
    return sum(map(operator.mul, row, f))


def _reference_slope(nodes, weights, f, x):
    j = min(range(len(nodes)), key=lambda k: abs(x - nodes[k]))
    if x == nodes[j]:
        return sum(weight / weights[j] * (value - f[j]) / (x - node)
                   for k, (node, weight, value) in enumerate(zip(nodes, weights, f)) if k != j)
    quotients = [weight / (x - node) for weight, node in zip(weights, nodes)]
    total = sum(quotients)
    above = sum(q * (value - f[j]) for q, value in zip(quotients, f)) / total
    return sum(q * (f[j] - value + above) / (x - node)
               for q, value, node in zip(quotients, f, nodes)) / total


def _reference_proxy_brackets(terms, t1, d, mode_tol, proxy, known):
    """`_proxy_brackets` as four loops over the scan orders; the
    interpolant is returned as (nodes, weights, f)."""
    inverse = fracorder.inverse
    orders, nodes, weights, rows, dct = proxy

    def exact(alpha):
        if alpha not in known:
            known[alpha] = inverse._solution(terms, alpha, t1, mode_tol) - d
        return known[alpha]

    for alpha in (nodes[0], nodes[-1]) + nodes[1:-1]:
        exact(alpha)
    f = [known[alpha] for alpha in nodes]
    trailing = max(abs(sum(map(operator.mul, row, f))) for row in dct[-3:])
    if trailing > 1e-6 * (max(f) - min(f)):
        return None
    scale = sum(abs(amplitude * basis) for amplitude, basis, _ in terms)
    margin = 8.0 * (trailing + mode_tol * scale + 64.0 * inverse._EPS * (scale + abs(d)))
    p = [sum(map(operator.mul, row, f)) for row in rows]

    signs = []
    for alpha, value in zip(orders, p):
        if abs(value) <= margin:
            value = exact(alpha)
        signs.append((value > 0.0) - (value < 0.0))

    steps = [b - a for a, b in zip(p, p[1:])]
    rising = any(step > 2.0 * margin for step in steps)
    falling = any(step < -2.0 * margin for step in steps)
    for a, b, step in zip(orders, orders[1:], steps):
        if rising and falling:
            break
        if abs(step) <= 2.0 * margin:
            step = exact(b) - exact(a)
            rising |= not step < 0.0
            falling |= not step > 0.0

    splits = {}
    for j in range(1, len(orders) - 1):
        side = signs[j]
        if (side == 0 or signs[j - 1] != side or signs[j + 1] != side
                or not side * steps[j - 1] < 0.0 < side * steps[j]):
            continue
        x, g = inverse._golden_min(lambda x: side * _reference_value(nodes, weights, f, x),
                                   orders[j - 1], orders[j + 1])
        if g < -margin and x != orders[j] and side * exact(x) < 0.0:
            splits[j - 1 if x < orders[j] else j] = x
    brackets = []
    for i, (a, sign) in enumerate(zip(orders, signs)):
        if i in splits:
            x = splits[i]
            brackets += [(a, x, exact(a)), (x, orders[i + 1], known[x])]
        elif sign == 0:
            brackets.append((a, a, exact(a)))
        elif i + 1 < len(orders) and signs[i + 1] == -sign:
            brackets.append((a, orders[i + 1], exact(a)))
    return brackets, not (rising and falling), (nodes, weights, f)


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
    _, nodes, weights, _, _ = inverse._proxy_rows(config.alpha_lo, config.alpha_hi,
                                                  config.scan_points, size)
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


def _proxy_brackets_cases(single_mode, two_mode, mixed_sign):
    return ([single_mode, two_mode, mixed_sign, _two_close_roots()[1:], _underflowed_rate()]
            + _seeded_inversions(5, 24))


@pytest.mark.parametrize("size", [17, 33])
def test_proxy_brackets_match_the_reference_loops(single_mode, two_mode, mixed_sign, climbing,
                                                  size):
    # brackets, verdict, interpolant and the set of orders F is evaluated
    # at, or the refusal, are the reference's, at 17 nodes and at 33
    inverse = fracorder.inverse
    for problem, measurement, config in (
            [(*case, InverseConfig()) for case in
             _proxy_brackets_cases(single_mode, two_mode, mixed_sign)]
            + [(*climbing, CLIMBING_CONFIG)]):
        inputs = inverse._inverse_inputs(problem, measurement, config, "")
        proxy = inverse._proxy_rows(config.alpha_lo, config.alpha_hi, config.scan_points, size)
        known, reference_known = {}, {}
        found = _report_or_refusal(inverse._proxy_brackets, *inputs, proxy, known)
        expected = _report_or_refusal(_reference_proxy_brackets, *inputs, proxy,
                                      reference_known)
        if isinstance(expected, tuple) and len(expected) == 3:
            interpolant = found[2]
            found = found[:2] + ((interpolant.nodes, interpolant.weights, interpolant.f),)
        assert repr(found) == repr(expected)
        assert known.keys() == reference_known.keys()


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
    scale = sum(abs(amplitude * basis) for amplitude, basis, _ in terms)
    node_error = mode_tol * scale + 64.0 * inverse._EPS * (scale + abs(d))
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
    _, nodes, weights, _, dct = inverse._proxy_rows(1e-3, 1.0 - 1e-3, 99, size)
    f = [1.0 / (1.0 + c * (x - 0.3) ** 2) for x in nodes]
    trailing = max(abs(sum(map(operator.mul, row, f))) for row in dct[-3:])
    assert 1e-9 < trailing / (max(f) - min(f)) <= 1e-6
    interpolant = inverse._Interpolant(nodes, weights, f, trailing)
    for x in [0.05 + 0.0225 * k for k in range(41)]:
        slope = -2.0 * c * (x - 0.3) / (1.0 + c * (x - 0.3) ** 2) ** 2
        assert abs(interpolant.slope(x) - slope) <= interpolant.slope_error(x, 0.0)


def test_proxy_path_work_counts(port_calls, monkeypatch):
    # on the proxy path the report's slope comes from the interpolant: no
    # analytic F', so no psi block, and F at the orders the bracket search
    # evaluates, at each iterate and at alpha_hat, as before
    inverse = fracorder.inverse
    orders, slopes = [], []
    real_solution, real_slope = inverse._solution, inverse._slope
    monkeypatch.setattr(inverse, "_solution",
                        lambda *args: orders.append(args[1]) or real_solution(*args))
    monkeypatch.setattr(inverse, "_slope", lambda *args: slopes.append(args[1]) or real_slope(*args))
    config = InverseConfig()
    for problem, measurement in _seeded_inversions(5, 24):
        inputs = inverse._inverse_inputs(problem, measurement, config, "")
        reference_known = {}
        proxy = inverse._proxy_rows(config.alpha_lo, config.alpha_hi, config.scan_points, 17)
        assert _reference_proxy_brackets(*inputs, proxy, reference_known) is not None
        orders.clear()
        report = invert_order(problem, measurement, config)
        assert len(orders) == len(reference_known) + report.iterations + 1
        assert set(orders[:len(reference_known)]) == reference_known.keys()
    assert slopes == []
    assert port_calls["_psi"] == []


# ------------------------------------------------ the monotone certificate

class _CountedRows(tuple):
    """Barycentric rows that count the rows read, by index or by iteration."""

    def __getitem__(self, i):
        self.read += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for row in tuple.__iter__(self):
            self.read += 1
            yield row


@pytest.fixture
def rows_read(monkeypatch):
    """(rows read, bisected) per `_proxy_brackets` call that reads p, from
    here on; `bisected` is whether `_bisected_signs` ran."""
    inverse = fracorder.inverse
    calls, bisections = [], []
    real_proxy, real_bisected = inverse._proxy_brackets, inverse._bisected_signs

    def counted_proxy(terms, t1, d, mode_tol, proxy, known):
        rows = _CountedRows(proxy[3])
        rows.read, before = 0, len(bisections)
        found = real_proxy(terms, t1, d, mode_tol, proxy[:3] + (rows,) + proxy[4:], known)
        if found is not None:
            calls.append((rows.read, len(bisections) > before))
        return found

    monkeypatch.setattr(inverse, "_proxy_brackets", counted_proxy)
    monkeypatch.setattr(inverse, "_bisected_signs",
                        lambda *args: bisections.append(1) or real_bisected(*args))
    return calls


def _non_monotone_at_t1_one():
    """F follows 1/Gamma(1 + alpha) at t1 = 1 and meets d twice."""
    problem = make_problem(0.2, PI, [(1, 1.0)], 1.0)
    return problem, Measurement(PI / 2, 1.0, evaluate_solution(problem, 0.8, PI / 2, 1.0))


def test_certified_path_reads_few_rows(mixed_sign, climbing, rows_read):
    # where p' is certified one-signed, p is read at the two ends and at the
    # orders a bisection over 99 visits; where it changes sign, or cannot
    # be certified, at all 99 scan orders.  Every same-sign seeded case is
    # certified; of the opposed-sign ones, two are not monotone and one
    # rises too unevenly for the global coefficient test
    certified = 0
    for k, (problem, measurement) in enumerate(_seeded_inversions(5, 24)):
        rows_read.clear()
        invert_order(problem, measurement)
        assert len(rows_read) == 1
        read, bisected = rows_read[0]
        assert bisected or k % 2
        assert read <= 12 if bisected else read == 99
        certified += bisected
    assert certified == 21
    for (problem, measurement), config in [(mixed_sign, InverseConfig()),
                                           (_two_close_roots()[1:], InverseConfig()),
                                           (climbing, CLIMBING_CONFIG),
                                           (_non_monotone_at_t1_one(), InverseConfig())]:
        rows_read.clear()
        invert_order(problem, measurement, config)
        assert rows_read == [(99, False)]


@pytest.mark.parametrize("size", [17, 33])
@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
def test_coefficient_rows_rebuild_the_interpolant(setup, size, request):
    # the DCT-I rows give the interpolant's Chebyshev coefficients in the
    # reflected variable y = (mid - alpha) / half: their sum rebuilds f at
    # the nodes, y_k = cos(k pi / m), and p at 41 orders; the last three
    # rows are those that gave the trailing coefficients alone, bit for bit
    inverse = fracorder.inverse
    config = InverseConfig()
    terms, t1, d, mode_tol = inverse._inverse_inputs(*request.getfixturevalue(setup), config, "")
    lo, hi = config.alpha_lo, config.alpha_hi
    _, nodes, weights, _, dct = inverse._proxy_rows(lo, hi, config.scan_points, size)
    m = size - 1
    assert len(dct) == size and all(len(row) == size for row in dct)
    ends = [0.5] + [1.0] * (m - 1) + [0.5]
    assert dct[-3:] == tuple(tuple(2.0 / m * (0.5 if j == m else 1.0) * end
                                   * math.cos(math.pi * (j * k % (2 * m)) / m)
                                   for k, end in enumerate(ends))
                             for j in range(m - 2, m + 1))
    f = [inverse._solution(terms, alpha, t1, mode_tol) - d for alpha in nodes]
    coefficients = [sum(map(operator.mul, row, f)) for row in dct]
    spread = max(f) - min(f)
    for k, value in enumerate(f):
        rebuilt = sum(c * math.cos(math.pi * j * k / m) for j, c in enumerate(coefficients))
        assert abs(rebuilt - value) <= 1e-14 * spread
    interpolant = inverse._Interpolant(nodes, weights, f, 0.0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for alpha in [0.05 + 0.0225 * k for k in range(41)]:
        theta = math.acos((mid - alpha) / half)
        rebuilt = sum(c * math.cos(j * theta) for j, c in enumerate(coefficients))
        assert abs(rebuilt - interpolant.value(alpha)) <= 1e-14 * spread


@pytest.mark.parametrize("size", [17, 33])
def test_slope_floor_bounds_the_interpolant_slope(single_mode, two_mode, size):
    # on inputs the certificate covers, |p'| is at least the certified
    # floor at 401 orders from alpha_lo to alpha_hi, nodes included
    inverse = fracorder.inverse
    config = InverseConfig()
    lo, hi = config.alpha_lo, config.alpha_hi
    _, nodes, weights, _, dct = inverse._proxy_rows(lo, hi, config.scan_points, size)
    orders = [lo + (hi - lo) * k / 400 for k in range(401)]
    certified = 0
    for problem, measurement in [single_mode, two_mode] + _seeded_inversions(5, 24):
        terms, t1, d, mode_tol = inverse._inverse_inputs(problem, measurement, config, "")
        f = [inverse._solution(terms, alpha, t1, mode_tol) - d for alpha in nodes]
        coefficients = [sum(map(operator.mul, row, f)) for row in dct]
        floor = inverse._slope_floor(coefficients, f, hi - lo)
        if floor <= 0.0:
            continue
        certified += 1
        interpolant = inverse._Interpolant(nodes, weights, f, 0.0)
        assert min(abs(interpolant.slope(alpha)) for alpha in orders) >= floor
    assert certified == 23
    # on a straight line the bound is |p'| itself, less the round-off
    line = [0.3 - 0.7 * alpha for alpha in nodes]
    floor = inverse._slope_floor([sum(map(operator.mul, row, line)) for row in dct], line, hi - lo)
    interpolant = inverse._Interpolant(nodes, weights, line, 0.0)
    assert 0.7 * (1.0 - 1e-8) < floor <= min(abs(interpolant.slope(alpha)) for alpha in orders)


def test_a_wide_margin_takes_the_full_read(rows_read):
    # at f_rel_tol 1e-3 the margin is wide: where p' keeps one sign, its
    # steps still fall short of 4 margins and several scan orders lie
    # within one, so p is read at every scan order and F evaluated at each
    # of those, as the reference loops do
    inverse = fracorder.inverse
    config = InverseConfig(f_rel_tol=1e-3)
    lo, hi = config.alpha_lo, config.alpha_hi
    proxy = inverse._proxy_rows(lo, hi, config.scan_points, 17)
    one_signed = 0
    for problem, measurement in _seeded_inversions(5, 24):
        inputs = inverse._inverse_inputs(problem, measurement, config, "")
        known, reference_known = {}, {}
        found = inverse._proxy_brackets(*inputs, proxy, known)
        expected = _reference_proxy_brackets(*inputs, proxy, reference_known)
        if expected is None:
            assert found is None
            continue
        assert repr(found[:2]) == repr(expected[:2])
        assert known.keys() == reference_known.keys()
        f = found[2].f
        coefficients = [sum(map(operator.mul, row, f)) for row in proxy[4]]
        one_signed += inverse._slope_floor(coefficients, f, hi - lo) > 0.0
    assert one_signed >= 6
    assert rows_read and all(read == (99, False) for read in rows_read)


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
    (1e-13, "~5.5e-14 at alpha=0.459265, z=-1.29562 misses rel_tol=5e-14"),
    (2e-11, "~1.1e-11 at alpha=0.999, z=-4.48965 misses rel_tol=1e-11"),
])
def test_f_rel_tol_below_round_off_floor_refused(two_mode, f_rel_tol, message):
    # each of the two modes is asked for f_rel_tol / 2, below the power
    # series' round-off floor 6*EPS*sum|term| / |E| at some scanned order
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
