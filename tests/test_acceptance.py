"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcx

from fracorder import (Measurement, endpoint_values, evaluate_solution, invert_order,
                       make_problem, mittag_leffler, residual, residual_derivative)
from fracorder.cli import cmd_curve, load_config
from fracorder.special import _BLOCK, _gamma_block

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(number, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def setups():
    single = (make_problem(0.1, PI, [(2, 0.5)], 4.0), Measurement(PI / 4, 2.0, 0.25818))
    two = (make_problem(0.05, PI, [(1, 2.0), (3, 0.5)], 20.0),
           Measurement(PI / 6, 10.0, 1.0112))
    return single, two


def test_criterion_01_single_mode_forward(setups):
    (problem, measurement), _ = setups
    u = evaluate_solution(problem, 0.75, measurement.position, measurement.time)
    err = abs(u - 0.25818)
    _report(1, "single-mode forward value", err <= 5e-5,
            f"u(pi/4, 2; 0.75) = {u:.8f}, |diff| = {err:.2e} <= 5e-5")


def test_criterion_02_single_mode_inversion(setups):
    (problem, measurement), _ = setups
    report = invert_order(problem, measurement)
    err = abs(report.alpha_hat - 0.75)
    ok = err <= 2e-3 and report.unique
    _report(2, "single-mode inversion", ok,
            f"alpha_hat = {report.alpha_hat:.8f}, |diff 0.75| = {err:.2e} <= 2e-3, "
            f"unique = {report.unique}")


def test_criterion_03_two_mode_forward_and_inversion(setups):
    _, (problem, measurement) = setups
    u = evaluate_solution(problem, 0.5, measurement.position, measurement.time)
    forward_err = abs(u - 1.0112)
    report = invert_order(problem, measurement)
    invert_err = abs(report.alpha_hat - 0.5)
    ok = forward_err <= 5e-4 and invert_err <= 2e-3 and report.unique
    _report(3, "two-mode forward + inversion", ok,
            f"u = {u:.6f} (|diff| = {forward_err:.2e} <= 5e-4), "
            f"alpha_hat = {report.alpha_hat:.8f} (|diff| = {invert_err:.2e} <= 2e-3), "
            f"unique = {report.unique}")


def test_criterion_04_endpoint_closed_forms(setups):
    (problem, measurement), _ = setups
    f0, f1 = endpoint_values(problem, measurement)
    err0 = abs(f0 - 5.0 / 14.0)
    err1 = abs(f1 - 0.5 * math.exp(-0.8))
    ok = err0 <= 1e-10 and err1 <= 1e-10
    _report(4, "endpoint closed forms", ok,
            f"|F(0) - 5/14| = {err0:.2e}, |F(1) - e^(-4/5)/2| = {err1:.2e}, both <= 1e-10")


def test_criterion_05_round_trips(setups):
    worst = 0.0
    cases = 0
    for problem, measurement in setups:
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            d = evaluate_solution(problem, alpha, measurement.position, measurement.time)
            report = invert_order(problem, Measurement(measurement.position,
                                                       measurement.time, d))
            worst = max(worst, abs(report.alpha_hat - alpha))
            cases += 1
    _report(5, "self-consistent round trips", worst <= 1e-8 and cases == 10,
            f"{cases} cases, worst |alpha_hat - alpha| = {worst:.2e} <= 1e-8")


def test_criterion_06_mittag_leffler_oracles():
    worst_erfc = max(
        abs(mittag_leffler(0.5, -x, rel_tol=1e-8) - float(erfcx(x))) / float(erfcx(x))
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    worst_exp = max(
        abs(mittag_leffler(1.0, -x) - math.exp(-x)) / math.exp(-x)
        for x in np.linspace(0.0, 20.0, 50))
    ok = worst_erfc <= 1e-8 and worst_exp <= 1e-10
    _report(6, "special-function oracles", ok,
            f"erfc identity worst rel = {worst_erfc:.2e} <= 1e-8; "
            f"exponential worst rel = {worst_exp:.2e} <= 1e-10")


def test_criterion_07_derivative_consistency(setups):
    h = 1e-6
    worst = 0.0
    checks = 0
    for problem, measurement in setups:
        for k in range(1, 10):
            alpha = k / 10
            analytic = residual_derivative(problem, measurement, alpha)
            numeric = (residual(problem, measurement, alpha + h, rel_tol=4e-12)
                       - residual(problem, measurement, alpha - h, rel_tol=4e-12)) / (2 * h)
            worst = max(worst, abs(analytic - numeric) / abs(numeric))
            checks += 1
    _report(7, "analytic derivative vs central differences", worst <= 1e-5 and checks == 18,
            f"{checks} checks, worst rel = {worst:.2e} <= 1e-5")


def test_criterion_08_gamma_ratio_asymptotics():
    # Gamma(alpha j + 1) / Gamma(alpha (j + 1) + 1), from the blocks the power
    # series reads, over every j whose Gamma values are finite
    ok = True
    details = []
    for alpha in (0.25, 0.5, 0.75):
        last = math.floor(169.0 / alpha) - 1
        gammas = [_gamma_block(alpha, start)[k]
                  for start in range(1, last + 2, _BLOCK) for k in range(_BLOCK)]
        values = [a / b for a, b in zip(gammas[9:last], gammas[10:last + 1])]  # j = 10 .. last
        decreasing = all(b < a for a, b in zip(values, values[1:]))
        asym = (alpha * (last + 1)) ** -alpha
        rel = abs(values[-1] - asym) / asym
        ok = ok and decreasing and rel <= 0.05
        details.append(f"alpha={alpha}: decreasing={decreasing}, rel@{last}={rel:.2e}")
    _report(8, "Gamma-ratio decay and power law", ok, "; ".join(details))


def test_criterion_09_curve_monotone_with_single_crossing():
    ok = True
    details = []
    for name, root in (("single_mode", 0.75), ("two_mode", 0.5)):
        text = cmd_curve(load_config(CONFIG_DIR / f"{name}.json"))
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#") and line != "alpha,F_minus_d"]
        alphas = [float(a) for a, _ in rows]
        values = [float(v) for _, v in rows]
        diffs = np.diff(values)
        monotone = bool(np.all(diffs < 0.0) or np.all(diffs > 0.0))
        crossings = [(alphas[i], alphas[i + 1]) for i in range(len(values) - 1)
                     if values[i] * values[i + 1] < 0]
        bracketed = len(crossings) == 1 and crossings[0][0] <= root <= crossings[0][1]
        ok = ok and monotone and bracketed and len(rows) == 99
        details.append(f"{name}: {len(rows)} rows, monotone={monotone}, "
                       f"single crossing bracketing {root}={bracketed}")
    _report(9, "residual curve reproduction", ok, "; ".join(details))


def test_criterion_10_negative_axis_properties():
    ok = True
    details = []
    for alpha in (0.25, 0.5, 0.75):
        xs = np.linspace(0.0, 50.0, 100)
        values = [mittag_leffler(alpha, -float(x), rel_tol=1e-5) for x in xs]
        decreasing = all(b < a for a, b in zip(values, values[1:]))
        in_range = all(0.0 < v <= 1.0 for v in values)
        envelope = max((1.0 + x) * v for x, v in zip(xs, values))
        bounded = envelope <= 1.0 + 1e-9  # recorded empirical constant
        ok = ok and decreasing and in_range and bounded
        details.append(f"alpha={alpha}: decreasing={decreasing}, in(0,1]={in_range}, "
                       f"sup(1+x)E = {envelope:.6f}")
    _report(10, "negative-axis decay properties", ok, "; ".join(details))
