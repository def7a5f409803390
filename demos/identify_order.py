"""
Identifying the order from one measurement
==========================================

The measured value d = u(x0, t1) pins down the order through the scalar
equation F(alpha) = d.  The paper's sign hypothesis asks every mode to
contribute positively at x0; it does not by itself make F monotone, so the
solver certifies whether a Chebyshev proxy of F is monotone, brackets each
sign change, and refines the roots with Newton steps kept inside the
bracket, bisecting where a step cannot be trusted.
"""

import math

from fracorder import (Measurement, evaluate_solution, invert_order, make_problem,
                       residual_derivative, sinpi)

problem = make_problem(0.05, math.pi, [(1, 2.0), (3, 0.5)], time_horizon=20.0)
measurement = Measurement(position=math.pi / 6, time=10.0, value=1.0112)
x0, t1 = measurement.position, measurement.time

report = invert_order(problem, measurement)
print("certified: monotone =", report.monotone, " roots =", report.roots)
# Sign conditions behind uniqueness: amplitude * sin(n*pi*x0/L) > 0 per mode.
print("\nuniqueness hypothesis holds:", report.uniqueness_hypothesis)
for n, amplitude in problem.modes:
    basis = sinpi(n * x0 / problem.length)
    print(f"  mode {n}: amplitude={amplitude:+.3f} "
          f"basis={basis:+.6f} product={amplitude * basis:+.6f}")

print("\nrecovered order  :", report.alpha_hat)
print("residual         :", report.residual)
print("F'(alpha_hat)    :", report.derivative_at_root)
print("sensitivity      :", report.sensitivity)
print("iterations       :", report.iterations)

# Self-consistent round trip: simulate a measurement at a known order,
# then recover it.
true_alpha = 0.62
d = evaluate_solution(problem, true_alpha, x0, t1)
recovered = invert_order(problem, Measurement(x0, t1, d))
print(f"\nround trip: true={true_alpha}, recovered={recovered.alpha_hat}, "
      f"error={abs(recovered.alpha_hat - true_alpha):.2e}")

# Conditioning along the order axis: |1/F'| is the local amplification of
# measurement errors into order errors.
print("\nalpha      F(alpha)    F'(alpha)   |1/F'|")
for alpha in (0.2, 0.4, 0.6, 0.8):
    value = evaluate_solution(problem, alpha, x0, t1)
    slope = residual_derivative(problem, measurement, alpha)
    print(f"{alpha:.2f}   {value:10.6f}  {slope:10.6f}  {1.0 / abs(slope):8.3f}")
