import math

import numpy as np
import pytest

import fracorder.forward
import fracorder.inverse
import fracorder.special
from fracorder import (AccuracyError, DomainError, InverseConfig, Measurement, NoRootError,
                       check_uniqueness_hypothesis, endpoint_values, evaluate_solution,
                       invert_order, make_problem, residual, residual_derivative,
                       scan_bracket, sensitivity_profile)

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
                       ("value", [0.25]), ("value", 10**400)]:
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


def test_scan_blocks_stay_cached_between_inversions(two_mode, port_calls):
    # the batched scan reads whole Gamma blocks, each built once, and the cache
    # keeps them: after an inversion, scanning again builds none
    problem, measurement = two_mode
    invert_order(problem, measurement)
    builds = port_calls["_gamma"]
    assert builds and all(np.ndim(args) == 1 for args in builds)
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


@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
@pytest.mark.parametrize("root_tol", [1e-10, 1e-15])
@pytest.mark.parametrize("scan_points", [9, 99])
def test_refinement_within_iteration_bound(setup, root_tol, scan_points, request, monkeypatch):
    # the budget of bisections still needed bounds the search by root_tol
    problem, measurement = request.getfixturevalue(setup)
    refined = []
    real = fracorder.inverse._refine_root

    def recording(f, fprime, lo, hi, f_lo, tol):
        out = real(f, fprime, lo, hi, f_lo, tol)
        refined.append((lo, hi, out[2]))
        return out

    monkeypatch.setattr(fracorder.inverse, "_refine_root", recording)
    invert_order(problem, measurement,
                 InverseConfig(root_tol=root_tol, scan_points=scan_points))
    assert len(refined) == (2 if setup == "mixed_sign" else 1)
    for lo, hi, iterations in refined:
        assert lo < hi
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


def test_newton_trace_stays_in_bracket(single_mode):
    problem, measurement = single_mode
    scan = scan_bracket(problem, measurement)
    lo, hi = scan.brackets[0]
    report = invert_order(problem, measurement)
    assert all(lo <= alpha <= hi for _, alpha, _ in report.trace)


@pytest.mark.parametrize("setup", ["single_mode", "two_mode", "mixed_sign"])
def test_newton_refinement_takes_few_iterations(setup, request, monkeypatch):
    # each bracket ends once a Newton step is below root_tol/2: a few
    # iterations of one residual each, none at a bracket's left end, whose
    # value the scan holds, and alpha_hat's residual at F's rounding level
    problem, measurement = request.getfixturevalue(setup)
    orders = []
    real = fracorder.inverse.residual
    monkeypatch.setattr(fracorder.inverse, "residual",
                        lambda *args, **kwargs: orders.append(args[2]) or real(*args, **kwargs))
    report = invert_order(problem, measurement)
    assert report.iterations <= 4 * len(report.roots)
    assert len(orders) == report.iterations + 1  # the iterates, then alpha_hat
    assert orders[-1] == report.alpha_hat
    scale = sum(abs(term.product)
                for term in check_uniqueness_hypothesis(problem, measurement).terms)
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


@pytest.mark.parametrize("diffusivity,alphas,refused", [
    (4.923882631706737, [0.5, 0.6, 0.7], [0.5, 0.6, 0.7]),
    (1.2, [0.3, 0.5, 0.7], [0.3]),
])
def test_sensitivity_profile_keeps_rows_with_refused_slope(diffusivity, alphas, refused):
    # a slope that cannot be certified reads nan, as in InversionReport
    problem = make_problem(diffusivity, PI, [(1, 1.0)], 5.0)
    measurement = Measurement(PI / 2, 3.0)
    rows = sensitivity_profile(problem, measurement, alphas)
    assert [alpha for alpha, _, _, _ in rows] == alphas
    for alpha, value, slope, conditioning in rows:
        assert value == evaluate_solution(problem, alpha, PI / 2, 3.0)
        if alpha in refused:
            with pytest.raises(AccuracyError):
                residual_derivative(problem, measurement, alpha)
            assert math.isnan(slope) and math.isnan(conditioning)
        else:
            assert slope == residual_derivative(problem, measurement, alpha)
            assert conditioning == 1.0 / abs(slope)


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
    default = getattr(InverseConfig(), field)
    assert getattr(InverseConfig(**{field: np.float64(default)}), field) == default
