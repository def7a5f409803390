"""
Identifying the order from one measurement
==========================================

The measured value d = u(x0, t1) pins down the order through the scalar
equation F(alpha) = d.  The paper's sign hypothesis asks every mode to
contribute positively at x0; it does not by itself make F monotone, so the
solver scans F to see whether it is, brackets each sign change, and refines
the roots with Newton steps kept inside the bracket, bisecting where a
step cannot be trusted.
"""

import math

from fracorder import (Measurement, check_uniqueness_hypothesis, evaluate_solution,
                       invert_order, make_problem, scan_bracket, sensitivity_profile)

problem = make_problem(0.05, math.pi, [(1, 2.0), (3, 0.5)], time_horizon=20.0)
measurement = Measurement(position=math.pi / 6, time=10.0, value=1.0112)

# Sign conditions behind uniqueness: amplitude * sin(n*x0) > 0 per mode.
hypothesis = check_uniqueness_hypothesis(problem, measurement)
print("uniqueness hypothesis holds:", hypothesis.holds)
for term in hypothesis.terms:
    print(f"  mode {term.index}: amplitude={term.amplitude:+.3f} "
          f"basis={term.basis_value:+.6f} product={term.product:+.6f}")

scan = scan_bracket(problem, measurement)
print("\nscan: monotone =", scan.monotone, " brackets =", scan.brackets)

report = invert_order(problem, measurement)
print("\nrecovered order  :", report.alpha_hat)
print("residual         :", report.residual)
print("F'(alpha_hat)    :", report.derivative_at_root)
print("sensitivity      :", report.sensitivity)
print("iterations       :", report.iterations)

# Self-consistent round trip: simulate a measurement at a known order,
# then recover it.
true_alpha = 0.62
d = evaluate_solution(problem, true_alpha, measurement.position, measurement.time)
recovered = invert_order(problem, Measurement(measurement.position, measurement.time, d))
print(f"\nround trip: true={true_alpha}, recovered={recovered.alpha_hat}, "
      f"error={abs(recovered.alpha_hat - true_alpha):.2e}")

# Conditioning along the order axis: |1/F'| is the local amplification of
# measurement errors into order errors.
print("\nalpha      F(alpha)    F'(alpha)   |1/F'|")
for alpha, value, slope, conditioning in sensitivity_profile(
        problem, measurement, [0.2, 0.4, 0.6, 0.8]):
    print(f"{alpha:.2f}   {value:10.6f}  {slope:10.6f}  {conditioning:8.3f}")
