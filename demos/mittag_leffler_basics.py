"""
Mittag-Leffler function on the real axis
========================================

E_alpha(z) = sum_j z^j / Gamma(alpha*j + 1) generalizes exp(z): alpha = 1
recovers the exponential exactly, and for 0 < alpha < 1 the decay on the
negative axis is algebraic rather than exponential (heavy tail).
"""

import math

import numpy as np

from fracorder import AccuracyError, mittag_leffler

# Reduction to classical functions: alpha = 1 is exp, alpha = 1/2 is the
# scaled complementary error function exp(x^2) * erfc(x).
print("alpha = 1   :", mittag_leffler(1.0, -0.8), "vs exp(-0.8) =", np.exp(-0.8))
print("alpha = 1/2 :", mittag_leffler(0.5, -1.0), "vs erfcx(1)  =", math.exp(1.0) * math.erfc(1.0))

# Heavy-tail decay: compare a few orders along the negative axis.
xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
print("\n   x     alpha=0.25   alpha=0.5    alpha=0.75   exp(-x)")
for x in xs:
    row = [mittag_leffler(a, -x, rel_tol=1e-6) for a in (0.25, 0.5, 0.75)]
    print(f"{x:6.1f}  {row[0]:.6e} {row[1]:.6e} {row[2]:.6e} {np.exp(-x):.3e}")

# The evaluation certifies its own error and refuses targets it cannot
# meet in double precision.  Where the power series and the algebraic tail
# expansion hand over (|z|**(1/alpha) around 15..30), only modest accuracy
# is attainable, and asking for more raises instead of silently degrading.
try:
    mittag_leffler(0.25, -2.0, rel_tol=1e-10)
except AccuracyError as exc:
    print("\nhonest refusal near the series/tail crossover:")
    print("   ", exc)
print("same point at a feasible target:", mittag_leffler(0.25, -2.0, rel_tol=1e-6))

# The subdiffusive tail is ~ 1/(x * Gamma(1-alpha)): slower than any
# exponential, which is why a single late-time measurement still carries
# information about the order.
x = 50.0
for a in (0.25, 0.5, 0.75):
    tail = 1.0 / (x * math.gamma(1.0 - a))
    print(f"alpha={a}: E = {mittag_leffler(a, -x, rel_tol=1e-8):.6e}, "
          f"leading tail = {tail:.6e}")
