"""Reference values computed apart from fracorder.

E_alpha(-x) is summed as its power series in mpmath, at
dps = x**(1/alpha) / ln 10 + 30 digits, which covers the cancellation of a
series whose largest term grows like exp(x**(1/alpha)).  Nothing here imports
fracorder; `self_test` pins the series to exp at alpha = 1 and to scipy's
erfcx at alpha = 1/2 before any workload check relies on it.
"""

from __future__ import annotations

import math

import mpmath


def ml_neg(alpha, xs):
    """[E_alpha(-x) for x >= 0 in xs] as mpmath numbers, one shared set of
    series coefficients 1/Gamma(alpha k + 1) for all of them."""
    x_max = float(max(xs))
    shape = x_max ** (1.0 / alpha) if x_max > 0.0 else 0.0
    dps = int(shape / math.log(10.0)) + 30
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        eps = mpmath.mpf(10) ** (-dps)
        coeffs = [mpmath.mpf(1)]
        k = 0
        # terms shrink once alpha*k passes x**(1/alpha); stop when the last
        # coefficient times x_max**k is below eps
        while True:
            k += 1
            coeffs.append(1 / mpmath.gamma(a * k + 1))
            if alpha * k > shape + 1.0 and coeffs[-1] * mpmath.mpf(x_max) ** k < eps:
                break
        out = []
        for x in xs:
            mx = -mpmath.mpf(x)
            total = mpmath.mpf(0)
            for c in reversed(coeffs):  # Horner in powers of -x
                total = total * mx + c
            out.append(+total)
        return out


def measurement_value(alpha, diffusivity, length, modes, x0, t):
    """u(x0, t) = sum_n a_n sin(n pi x0 / L) E_alpha(-D (n pi / L)^2 t^alpha), as a float."""
    with mpmath.workdps(40):
        ta = mpmath.mpf(t) ** mpmath.mpf(alpha)
        rates = [mpmath.mpf(diffusivity) * (n * mpmath.pi / length) ** 2 for n, _ in modes]
        xs = [r * ta for r in rates]
        weights = [mpmath.mpf(a) * mpmath.sin(n * mpmath.pi * mpmath.mpf(x0) / length)
                   for n, a in modes]
    factors = ml_neg(alpha, xs)
    with mpmath.workdps(40):
        return float(mpmath.fsum(w * e for w, e in zip(weights, factors)))


def time_factors(alpha, diffusivity, length, indices, ts):
    """Matrix [n][j] of E_alpha(-D (n pi / L)^2 ts[j]^alpha) as floats."""
    with mpmath.workdps(40):
        rows = [[mpmath.mpf(diffusivity) * (n * mpmath.pi / length) ** 2
                 * mpmath.mpf(t) ** mpmath.mpf(alpha) for t in ts] for n in indices]
    flat = ml_neg(alpha, [x for row in rows for x in row])
    width = len(ts)
    return [[float(v) for v in flat[i * width:(i + 1) * width]] for i in range(len(indices))]


def self_test():
    """Raise AssertionError unless the series matches exp and erfcx."""
    from scipy.special import erfcx

    xs = [0.5, 3.0, 10.0]
    with mpmath.workdps(60):
        for x, value in zip(xs, ml_neg(1.0, xs)):
            exact = mpmath.exp(-mpmath.mpf(x))
            if abs(value / exact - 1) > mpmath.mpf(10) ** -25:
                raise AssertionError(f"oracle: E_1(-{x}) = {value} but exp gives {exact}")
    xs = [0.5, 2.0, 5.0]
    for x, value in zip(xs, ml_neg(0.5, xs)):
        exact = float(erfcx(x))
        if abs(float(value) / exact - 1.0) > 1e-14:
            raise AssertionError(f"oracle: E_1/2(-{x}) = {value} but erfcx gives {exact}")
