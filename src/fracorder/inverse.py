"""Identification of the fractional order from one space-time measurement.

With finite-mode initial data the measured value d = u(x0, t1) turns the
identification into the scalar equation F(alpha) = d on (0, 1), where F is
the forward solution at the measurement point as a function of the order.
Each public function checks its inputs once, builds the per-mode terms at x0
once and evaluates F and its analytic derivative in alpha through the
forward kernel.  `scan_bracket` samples F - d at uniform orders, the curve
that `fracorder curve` writes, and judges nothing.  `invert_order`
evaluates F at 17 Chebyshev nodes, or at 33 where the 17-node interpolant
has not decayed, and cuts the interval into pieces on which the
interpolant's Chebyshev coefficients certify it monotone or with one
extremum; its brackets lie between neighbouring nodes, piece ends and
extrema, and its verdict, the API's only one, is that the interpolant is
certified monotone.  A bracketed, safeguarded Newton iteration refines
each bracket to a root: it bisects instead when a Newton step leaves the
bracket, stops shrinking or would overrun the iteration budget set by
root_tol, and ends when a step falls below root_tol/2 or the bracket
narrows to root_tol.  It first finds the interpolant's root, then starts
on F from there at every root_tol, so that one evaluation of F usually
ends it; F runs at most once per order.  Every Newton step takes the
interpolant's slope.  The reported F' is the interpolant's slope at the
root where a bound on its error is at most 1e-6 of it, else the analytic
F'.  Every float sum is rounded once (math.fsum), so a report has the same
bits on every Python.
"""

import bisect
import functools
import math
import operator
from collections import namedtuple
from itertools import chain, cycle, islice

from .errors import AccuracyError, DomainError, NoRootError, _shown
from .forward import _mode_terms, _mode_tol, _order, _slope, _solution
from .special import _EPS, _check_rel_tol, _finite_float, _not_real, _real

MONOTONE_VERIFIED = "verified"
MONOTONE_VIOLATED = "violated"

# |F'| below this counts as a vanishing derivative: the local-solvability
# hypothesis fails and the sensitivity is reported as infinite.
DERIVATIVE_FLOOR = 1e-14

# Neighbouring doubles in (0, 1) lie at most 2**-53 apart, so a bracket wider
# than this holds at least 9 of them and its midpoint lies strictly inside.
ROOT_TOL_MIN = 1e-15

# Node counts of the Chebyshev proxy of F.  F is analytic in the order, and
# at 17 nodes the interpolant's last coefficients are at round-off on the
# bundled configs; where they have not decayed, F is evaluated at the 16
# nodes that 33 adds, as the 17 nodes are the 33's even-indexed ones, bit
# for bit.
_PROXY_NODES = (17, 33)

# Pieces of the order interval are halved at most this many times.
_MAX_DEPTH = 12

# The report takes the interpolant's slope at alpha_hat for F' where a
# bound on their difference is at most this share of it.
_SLOPE_REL_TOL = 1e-6


class Measurement(namedtuple("Measurement", "position time value", defaults=(None,))):
    """One observation u(`position`, `time`) = `value` strictly inside the rod.

    `value` may be None, its default, while a configuration is only used for
    forward evaluation; every inverse operation requires it.
    """

    __slots__ = ()


class InverseConfig(namedtuple("InverseConfig", "alpha_lo alpha_hi root_tol scan_points f_rel_tol",
                               defaults=(1e-3, 1.0 - 1e-3, 1e-10, 99, 1e-10))):
    """Knobs of the order search; defaults match the documented contract.

    `scan_points` >= 9 orders from `alpha_lo` to `alpha_hi` in (0, 1) shape
    `scan_bracket` and the CLI's `curve` alone; every construction, `_make`
    and `_replace` included, checks them.  `invert_order` evaluates F at 17
    Chebyshev nodes on [alpha_lo, alpha_hi], at 16 more where their
    interpolant has not decayed, and at the few other break points where
    the interpolant cannot certify the sign.  `f_rel_tol` is the relative
    accuracy asked of F(alpha); each mode's Mittag-Leffler factor is asked
    for `f_rel_tol / n_modes`.  A request below the power series' round-off
    floor, `6*EPS*sum|term|` relative to the factor, at any evaluated order
    raises `AccuracyError`.  The floor grows with |z| = D lambda_n
    t1**alpha, so it is highest at `alpha_hi`: the bundled two-mode config
    is refused at 2e-11 and accepted at 3e-11.  `root_tol` ends the
    refinement of a bracket once a Newton step is below root_tol/2 or the
    bracket is at most root_tol wide, within 3*ceil(log2(width / root_tol))
    + 1 iterations for a bracket `width` wide, as the search starts at the
    interpolant's root (rounded midpoints can add one); it may not go below
    ROOT_TOL_MIN = 1e-15.  The Newton steps take the interpolant's slope.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):  # _replace calls it; namedtuple's skips __new__
        return super()._make(iterable)._checked()

    def _checked(self):
        for name in ("alpha_lo", "alpha_hi", "root_tol", "f_rel_tol"):
            _real(getattr(self, name), f"InverseConfig: {name}")
        if not (0.0 < self.alpha_lo < self.alpha_hi < 1.0):
            raise DomainError(
                f"InverseConfig: need 0 < alpha_lo < alpha_hi < 1, got "
                f"[{_shown(self.alpha_lo)}, {_shown(self.alpha_hi)}]")
        if (isinstance(self.scan_points, bool) or not isinstance(self.scan_points, int)
                or self.scan_points < 9):
            raise DomainError(f"InverseConfig: scan_points must be an integer >= 9, "
                              f"got {_shown(self.scan_points)}")
        if not ROOT_TOL_MIN <= self.root_tol < math.inf:
            raise DomainError(f"InverseConfig: root_tol must be finite and at least "
                              f"{ROOT_TOL_MIN}, got {_shown(self.root_tol)}")
        _check_rel_tol(self.f_rel_tol, "InverseConfig: f_rel_tol")
        return self


class ScanResult(namedtuple("ScanResult", "alphas values")):
    """The scan's orders `alphas` and F(alpha) - d at each in `values`, both
    tuples."""

    __slots__ = ()


class InversionReport(namedtuple("InversionReport", "alpha_hat residual derivative_at_root "
                                 "monotone uniqueness_hypothesis sensitivity trace roots iterations")):
    """Outcome of `invert_order`; `alpha_hat` is the first of `roots`.

    `residual` is F(alpha_hat) - d.  `monotone` is "verified" where the
    Chebyshev proxy of F is certified monotone from its slope's coefficients
    on pieces of the interval, else "violated".  `uniqueness_hypothesis` is
    the paper's sign hypothesis, amplitude * sin(n*pi*x0/length) > 0 for
    every mode.  That hypothesis does not make F monotone: at t1 = 1,
    1/Gamma(1 + alpha) peaks near alpha = 0.46 and F can meet d twice.
    `trace` holds the steps (k, alpha, F - d) on F that refined `alpha_hat`
    and `iterations` their count over all roots; the search on the
    interpolant that precedes them evaluates no F and is in neither.
    `derivative_at_root` is F'(alpha_hat) and `sensitivity` |1/F'|.  F' is
    the interpolant's slope at `alpha_hat` where a bound on its distance
    from F' is at most 1e-6 of it; otherwise it is the analytic series, and
    both fields are nan when that cannot be certified (AccuracyError).  The
    root stands.
    """

    __slots__ = ()

    @property
    def unique(self):
        return len(self.roots) == 1


def _field_error(name, raw, reason):
    """DomainError for measurement field `name`: a type refusal for a bool or
    non-real `raw`, else `reason`."""
    if _not_real(raw):
        return DomainError(f"measurement {name} must be a real number, got {_shown(raw)}")
    return DomainError(f"measurement {name} {_shown(raw)} {reason}")


def _measured(problem, measurement, need_value=True):
    """The checked measurement's (`_mode_terms` at x0, t1 as a float)."""
    x0 = _finite_float(measurement.position)
    if x0 is None or not 0.0 < x0 < problem.length:
        raise _field_error("position", measurement.position, f"not inside (0, {problem.length})")
    t1 = _finite_float(measurement.time)
    if t1 is None or not 0.0 < t1 <= problem.time_horizon:
        raise _field_error("time", measurement.time, f"not inside (0, {problem.time_horizon}]")
    value = measurement.value
    if value is None:
        if need_value:
            raise DomainError("measurement carries no value; required for inverse operations")
    elif _finite_float(value) is None and (need_value or _not_real(value)):
        raise _field_error("value", value, "is not finite")
    return _mode_terms(problem, x0), t1


def residual(problem, measurement, alpha, rel_tol=1e-10):
    """F(alpha) - d at the measurement point."""
    terms, t1 = _measured(problem, measurement)
    alpha = _order(alpha, "residual")
    mode_tol = _mode_tol(problem, rel_tol, "residual: rel_tol")
    return _solution(terms, alpha, t1, mode_tol) - float(measurement.value)


def residual_derivative(problem, measurement, alpha, rel_tol=1e-10):
    """dF/dalpha, summed mode-wise from the analytic order-derivative series."""
    alpha = _order(alpha, "residual_derivative", below_one=True)
    terms, t1 = _measured(problem, measurement, need_value=False)
    mode_tol = _mode_tol(problem, rel_tol, "residual_derivative: rel_tol")
    return _slope(terms, alpha, t1, mode_tol)


def endpoint_values(problem, measurement):
    """Closed-form limits (F(0), F(1)) of the measurement curve.

    At alpha -> 0 each Mittag-Leffler factor tends to the geometric-series
    value 1/(1 + D*lambda_n); at alpha = 1 it is the plain exponential
    exp(-D*lambda_n*t1).
    """
    terms, t1 = _measured(problem, measurement, need_value=False)
    f0 = f1 = 0.0
    for amplitude, basis, rate in terms:
        f0 += amplitude * basis / (1.0 + rate)
        f1 += amplitude * basis * math.exp(-rate * t1)
    return f0, f1


def scan_bracket(problem, measurement, config=InverseConfig()):
    """F(alpha) - d at uniform orders: the curve of `fracorder curve`.

    The orders are numpy.linspace(alpha_lo, alpha_hi, scan_points) to the
    bit, and the values equal `residual` at each order to the bit, refusals
    included.  Whether F is monotone and where its roots lie is
    `invert_order`'s to certify.
    """
    terms, t1, d, mode_tol = _inverse_inputs(problem, measurement, config, "scan_bracket")
    lo, hi, n = float(config.alpha_lo), float(config.alpha_hi), config.scan_points
    step = (hi - lo) / (n - 1)
    alphas = tuple([i * step + lo for i in range(n - 1)] + [hi])  # numpy.linspace's arithmetic
    return ScanResult(alphas, tuple([_solution(terms, alpha, t1, mode_tol) - d
                                     for alpha in alphas]))


def _inverse_inputs(problem, measurement, config, name):
    """The checked (`_mode_terms` at x0, t1, d, per-mode tolerance); DomainError
    naming `name` unless `config` is an InverseConfig."""
    terms, t1 = _measured(problem, measurement)
    if not isinstance(config, InverseConfig):
        raise DomainError(f"{name}: config must be an InverseConfig, got {_shown(config)}")
    mode_tol = _mode_tol(problem, config.f_rel_tol, "InverseConfig: f_rel_tol")
    return terms, t1, float(measurement.value), mode_tol


def _sign_changes(points, values):
    """[(a, b, v)] for the neighbours a < b of the ascending `points` whose
    `values` v and w of F - d differ in sign, and (a, a, 0.0) at an exact
    zero; signs are compared, as a product of two values below ~1e-162
    underflows."""
    cells = zip(points, points[1:] + points[-1:], values, list(values[1:]) + [0.0])
    return [(a, a, v) if v == 0.0 else (a, b, v) for a, b, v, w in cells
            if v == 0.0 or w != 0.0 and (v < 0.0) != (w < 0.0)]


@functools.lru_cache(maxsize=8)
def _proxy_rows(lo, hi, size):
    """(nodes, weights, dct) of the `size`-node Chebyshev proxy of F on
    [lo, hi], or DomainError naming the interval where the nodes, the
    Chebyshev points of the second kind in ascending order with both ends
    exact, are not distinct.  `dct` holds the DCT-I rows, rows 0 and m =
    size - 1 halved, that give the interpolant's m + 1 Chebyshev coefficients
    in x = (alpha - mid) / half from the node values: node k lies at x =
    -cos(k pi / m), so row j takes (-1)**j cos(pi j k / m).
    """
    m = size - 1
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # sin((2k - m) pi / 2m) = -cos(k pi / m), exactly odd about the middle
    # node; doubling k and m doubles pi * (2k - m) and 2m exactly, so each
    # node is the node 2k of the proxy with twice the intervals
    nodes = tuple([lo] + [mid + half * math.sin(math.pi * (2 * k - m) / (2 * m))
                          for k in range(1, m)] + [hi])
    if any(a >= b for a, b in zip(nodes, nodes[1:])):
        raise DomainError(f"invert_order: [{lo!r}, {hi!r}] is too narrow for {size} "
                          f"distinct Chebyshev nodes")
    ends = [0.5] + [1.0] * (m - 1) + [0.5]
    weights = tuple((-1.0) ** k * end for k, end in enumerate(ends))
    dct = tuple(tuple((-1.0) ** j * 2.0 / m * (0.5 if j in (0, m) else 1.0) * end
                      * math.cos(math.pi * (j * k % (2 * m)) / m)
                      for k, end in enumerate(ends))
                for j in range(m + 1))
    return nodes, weights, dct


@functools.lru_cache(maxsize=2)
def _halving_maps(size):
    """(left, right): the rows that take the Chebyshev coefficients of a
    polynomial of degree m = size - 1 on [-1, 1] to those of its
    restriction to [-1, 0] and to [0, 1], each rescaled to [-1, 1].

    Column k of `left` holds the coefficients of T_k((s - 1) / 2) in T_j(s),
    exact: times 2**k they are integers below 2**(k+2), from 2**(k+1) T_{k+1}
    = (2 s - 2) 2**k T_k - 4 * 2**(k-1) T_{k-1} and 2 s T_j = T_{j+1} +
    T_{|j-1|}.  `right` has the signs (-1)**(j + k), as T_k(-x) = (-1)**k T_k.
    """
    m = size - 1
    columns = [[1] + [0] * m, [-1, 1] + [0] * (m - 1)]
    for _ in range(1, m):
        last, before = columns[-1], columns[-2]
        doubled = [0] * (m + 2)  # 2 s times the last column
        for j, entry in enumerate(last):
            doubled[j + 1] += entry
            doubled[abs(j - 1)] += entry
        columns.append([a - 2 * b - 4 * c for a, b, c in zip(doubled, last, before)])
    left = tuple(tuple(columns[k][j] / 2 ** k for k in range(size)) for j in range(size))
    right = tuple(tuple(entry if (j + k) % 2 == 0 else -entry for k, entry in enumerate(row))
                  for j, row in enumerate(left))
    return left, right


def _dot(row, values):
    """sum(row * values), rounded once."""
    return math.fsum(map(operator.mul, row, values))


def _chebyshev_sum(coefficients, s):
    """sum_k coefficients[k] T_k(s) for s in [-1, 1]."""
    theta = math.acos(s)
    return _dot(coefficients, map(math.cos, map(theta.__mul__, range(len(coefficients)))))


class _Interpolant:
    """The barycentric interpolant p of the values `f` at the ascending
    `nodes` with `weights`, and `trailing`, the largest of its last three
    Chebyshev coefficients (Berrut & Trefethen, SIAM Review 46 (2004) 501,
    section 9).

    `value` and `slope` read one set of differences x - x_k, quotients
    q_k = w_k / (x - x_k) and their sum, kept for the last x asked, so a
    value and a slope at one x cost one pass.  p(x) is sum_k (q_k / sum q)
    f_k, and p'(x) is sum_k q_k (p(x) - f_k) / (x - x_k) / sum q, with
    p(x) - f_j at the nearest node x_j summed from the differences f_k -
    f_j: a p(x) rounded near f_j, divided by a tiny x - x_j, would swamp
    the sum.  At a node x_j, p' is row j of the differentiation matrix,
    sum_{k != j} (w_k / w_j) (f_k - f_j) / (x_j - x_k).
    """

    __slots__ = ("nodes", "weights", "f", "trailing",
                 "_x", "_j", "_diffs", "_quotients", "_total", "_p", "_dp")

    def __init__(self, nodes, weights, f, trailing):
        self.nodes, self.weights, self.f, self.trailing = nodes, weights, f, trailing
        self._x = None

    def _take(self, x):
        """Make x the last x: its nearest node j, the first of a tie as
        min() picks it, and, off the nodes, the differences and quotients."""
        nodes = self.nodes
        i = bisect.bisect_left(nodes, x)
        self._x, self._p, self._dp = x, None, None
        if i < len(nodes) and nodes[i] == x:
            self._j, self._diffs = i, None
            return
        # |x - x_k| rounds monotonically on each side of x, so the nearest
        # node is a neighbour of x, or a node left of it that ties with it
        if i == 0 or i < len(nodes) and abs(x - nodes[i]) < abs(x - nodes[i - 1]):
            j = i
        else:
            j = i - 1
            while j > 0 and abs(x - nodes[j - 1]) == abs(x - nodes[j]):
                j -= 1
        self._j = j
        self._diffs = list(map(x.__sub__, nodes))
        self._quotients = list(map(operator.truediv, self.weights, self._diffs))
        self._total = math.fsum(self._quotients)

    def value(self, x):
        """p(x)."""
        if x != self._x:
            self._take(x)
        if self._p is None:
            self._p = (self.f[self._j] if self._diffs is None
                       else _dot(map(self._total.__rtruediv__, self._quotients), self.f))
        return self._p

    def slope(self, x):
        """p'(x)."""
        if x != self._x:
            self._take(x)
        if self._dp is None:
            f, j = self.f, self._j
            fj = f[j]
            if self._diffs is None:
                weights = self.weights
                self._dp = math.fsum(weight / weights[j] * (value - fj) / (x - node)
                                     for k, (node, weight, value)
                                     in enumerate(zip(self.nodes, weights, f)) if k != j)
            else:
                quotients, total = self._quotients, self._total
                above = _dot(quotients, map(fj.__rsub__, f)) / total  # p(x) - f_j
                terms = map(operator.mul, quotients, map(above.__add__, map(fj.__sub__, f)))
                self._dp = math.fsum(map(operator.truediv, terms, self._diffs)) / total
        return self._dp

    def slope_error(self, x, node_error):
        """A bound on |p'(x) - F'(x)| for values `f` within `node_error` of
        F - d, or inf at a node.

        The node errors reach p' through sum_k |l_k'(x)| for the Lagrange
        basis l_k = q_k / sum q, whose derivative is (q_k / sum q) (r - 1 /
        (x - x_k)) with r = sum_m q_m / (x - x_m) / sum q.  The interpolation
        error F - p is the sum over k > m = n - 1 of c_k (T_k - T_a(k)), each
        dropped Chebyshev coefficient c_k times T_k less the alias a(k) <= m
        it folds onto, where |T_k'| <= k**2 on [-1, 1], stretched by 2 / (hi
        - lo) on [lo, hi].  Under the geometric decay that `_brackets`'
        margin assumes, c_{m+j} <= trailing * r**-j with r >= (1e6)**(1/m),
        so that derivative is at most m**2 * 2 / (hi - lo) * trailing times
        sum_j r**-j ((1 + j/m)**2 + 1), under 1.7 at 17 nodes and under 4.1
        at 33.
        """
        if x != self._x:
            self._take(x)
        diffs = self._diffs
        if diffs is None:
            return math.inf
        quotients, total = self._quotients, self._total
        r = math.fsum(map(operator.truediv, quotients, diffs)) / total
        lebesgue = math.fsum(abs(q / total * (r - 1.0 / diff))
                             for q, diff in zip(quotients, diffs))
        m = len(self.nodes) - 1
        return (lebesgue * node_error
                + 4.1 * m * m * 2.0 / (self.nodes[-1] - self.nodes[0]) * self.trailing)


def _scale(terms):
    """sum |a_n sin(n pi x0 / L)|, F's size at every order."""
    return math.fsum(abs(amplitude * basis) for amplitude, basis, _ in terms)


def _brackets(terms, t1, d, mode_tol, config):
    """([(lo, hi, v)], monotone, interpolant, node_error, exact): the
    sign-change brackets of F - d on [alpha_lo, alpha_hi], lo == hi for an
    exact zero, v of the sign of F(lo) - d; whether the Chebyshev proxy p of
    F - d is certified monotone; p as an `_Interpolant`; F's certified error
    at an order, with the sums' round-off; and F - d as a function that
    runs F at most once per order.

    F runs at 17 Chebyshev nodes, the ends first, and at the 16 more of 33
    where the 17-node tail, the largest of the last three coefficients,
    exceeds 1e-6 of F's spread over the nodes; at 33 a tail within F's node
    error counts as decayed too (Chebfun's plateau rule: Aurentz &
    Trefethen, ACM TOMS 43 (2017) 33), and one above both is refused.
    Between neighbouring break points, the nodes and the ends and extrema of
    `_leaves`, p is monotone where `_leaves` certifies it, so a bracket is a
    pair of them where F - d changes sign: it is exact at the nodes, and
    elsewhere p stands for it where |p| exceeds the margin, else F runs.
    """
    lo, hi = float(config.alpha_lo), float(config.alpha_hi)
    scale = _scale(terms)
    node_error = mode_tol * scale + 64.0 * _EPS * (scale + abs(d))
    known = {}  # F - d at each order evaluated, shared by both node counts

    def exact(alpha):
        if alpha not in known:
            known[alpha] = _solution(terms, alpha, t1, mode_tol) - d
        return known[alpha]

    for size in _PROXY_NODES:
        nodes, weights, dct = _proxy_rows(lo, hi, size)
        # the ends first, then ascending: most refusals happen at an end,
        # the round-off floor peaking at alpha_hi
        for alpha in (nodes[0], nodes[-1]) + nodes[1:-1]:
            exact(alpha)
        f = [known[alpha] for alpha in nodes]
        coefficients = [_dot(row, f) for row in dct]
        trailing = max(map(abs, coefficients[-3:]))
        spread = max(f) - min(f)
        if trailing <= 1e-6 * spread:
            break
    if trailing > max(1e-6 * spread, node_error):
        raise AccuracyError(f"invert_order: the Chebyshev tail {trailing:.3g} of F at {size} "
                            f"nodes on [{lo:g}, {hi:g}] exceeds both 1e-6 of its spread "
                            f"{spread:.3g} and its node error {node_error:.3g}")

    # The interpolant misses F by at most twice the sum of the coefficients
    # it drops.  With the last three below 1e-6 of F's spread over the
    # nodes, geometric decay falls by at least (1e6)**(1/16) > 2.37 a step
    # at 17 nodes and (1e6)**(1/32) > 1.53 at 33, so that bound is under 1.5
    # times the largest of the three at 17 nodes and under 3.8 at 33; a
    # tail on the plateau is itself round-off.  The node error reaches the
    # interpolant times its Lebesgue constant, below 2.8 at 17 nodes and
    # 3.2 at 33, and the exact F at a break point once more; 8 times the
    # sum covers all three with the sums' round-off.
    margin = 8.0 * (trailing + node_error)
    interpolant = _Interpolant(nodes, weights, f, trailing)
    leaves = _leaves(coefficients, f, lo, hi)

    def sign_carrier(alpha):
        if alpha in known:
            return known[alpha]
        value = interpolant.value(alpha)
        return value if abs(value) > margin else exact(alpha)

    points = sorted(set(nodes).union(*((a, b) if x is None else (a, x, b)
                                       for a, b, _, x in leaves)))
    brackets = _sign_changes(points, list(map(sign_carrier, points)))
    monotone = (all(slope > 0.0 for _, _, slope, _ in leaves)
                or all(slope < 0.0 for _, _, slope, _ in leaves))
    return brackets, monotone, interpolant, node_error, exact


def _leaves(coefficients, f, lo, hi):
    """[(a, b, slope, x)]: ascending pieces of [lo, hi] that cut the
    interpolant p, with the Chebyshev `coefficients` c_j of `_proxy_rows`
    from the node values `f`, into monotone runs (Boyd, SIAM J. Numer. Anal.
    40 (2002) 1666; Battles & Trefethen, SIAM J. Sci. Comput. 25 (2004)
    1743).

    In a piece's own variable s in [-1, 1], p' = sum_k d_k T_k with d_k =
    (2 - [k = 0]) sum_{j > k, j - k odd} j c_j, and p'' = sum_k e_k T_k with
    e_k = (1 - [k = 0] / 2) sum_{j > k, j - k even} j (j**2 - k**2) c_j.
    Where |d_0| - sum_{k>=1} |d_k|, less its round-off allowance, is
    positive, p' is one-signed and `slope` is that bound on dp/dalpha,
    signed as p'.  Else, where the same test holds for p'', p' is monotone
    (`_one_extremum`).  A piece that passes neither test is halved, unless
    p' is within its allowance of 0, where no half could pass either, or
    the piece lies _MAX_DEPTH halvings deep: a leaf with slope 0, no x.
    """
    m = len(coefficients) - 1
    # Round-off.  S bounds |p - q| over a piece, q the polynomial of its
    # computed coefficients.  At the root, a DCT-I entry misses its value by
    # at most 8 EPS 2/m (the angle's two roundings, cos and the product)
    # and the dot product, rounded once, adds EPS/2 of each term and of the
    # sum, so each c_j misses by under 20 EPS max|f| and S_0 = 32 (m + 1)
    # EPS max|f| is allowed.  The halving maps are exact and their columns
    # sum to under 3.4 at 17 nodes and 4.5 at 33, so a half's dot products
    # add at most 5 EPS sum|c_j| to the S it inherits (a restriction keeps
    # the sup).  By Markov's inequality |(p - q)'| <= m**2 S and |(p - q)''|
    # <= m**4 S.  Each d_k, from products rounded once and one sum,
    # misses its value by EPS/2 of sum_j |D_kj| |c_j| and of |d_k|, where
    # sum_k |D_kj| <= j**2; each e_k likewise, where sum_k |E_kj| <= j**4 / 3.
    # With the final sum's rounding, the bounds on |p'| and |p''| take the
    # allowances m**2 (S + 2 EPS sum|c_j|) and m**4 (S + 2 EPS sum|c_j|).
    pieces = [(lo, hi, coefficients, 32.0 * (m + 1) * _EPS * max(map(abs, f)), 0)]
    leaves = []
    while pieces:
        a, b, c, slack, depth = pieces.pop()
        size = math.fsum(map(abs, c))
        floor = slack + 2.0 * _EPS * size
        weighted = list(map(operator.mul, range(m + 1), c))  # j c_j
        d = [math.fsum(islice(weighted, k + 1, None, 2)) * (2.0 if k else 1.0) for k in range(m)]
        lower = _lower_bound(d, m * m * floor)
        if lower > 0.0:
            leaves.append((a, b, math.copysign(lower * 2.0 / (b - a), d[0]), None))
            continue
        if math.fsum(map(abs, d)) > m * m * floor:
            e = [math.fsum(j * (j * j - k * k) * c[j] for j in range(k + 2, m + 1, 2))
                 * (0.5 if k == 0 else 1.0) for k in range(m - 1)]
            if _lower_bound(e, m ** 4 * floor) > 0.0:
                leaves.append((a, b) + _one_extremum(d, e, a, b, m * m * floor))
                continue
            if depth < _MAX_DEPTH:
                middle = 0.5 * (a + b)
                halves = _halving_maps(m + 1)
                slack += 5.0 * _EPS * size
                pieces.append((middle, b, [_dot(row, c) for row in halves[1]], slack, depth + 1))
                pieces.append((a, middle, [_dot(row, c) for row in halves[0]], slack, depth + 1))
                continue
        leaves.append((a, b, 0.0, None))
    return leaves


def _lower_bound(coefficients, allowance):
    """|c_0| - sum_{k>=1} |c_k| - allowance, rounded once: as |T_k| <= 1,
    a lower bound on |sum_k c_k T_k| over [-1, 1], less `allowance`."""
    return math.fsum(chain((abs(coefficients[0]), -allowance),
                           map(operator.neg, map(abs, coefficients[1:]))))


def _one_extremum(d, e, a, b, allowance):
    """(slope, x) of `_leaves` on a piece [a, b] where p'' = sum_k e_k
    T_k(s) is one-signed, s the piece's own variable, so p' = sum_k d_k
    T_k(s) is monotone and lies between its values at the two ends, each
    within `allowance`."""
    left, right = _dot(d, cycle((1.0, -1.0))), math.fsum(d)  # p' at s = -1 and 1
    if (left > 0.0) == (right > 0.0):
        lower = min(abs(left), abs(right)) - allowance
        return (math.copysign(lower * 2.0 / (b - a), left) if lower > 0.0 else 0.0), None
    if left == 0.0 or right == 0.0:
        return 0.0, None
    # a break point 1e-12 of the piece from the extremum moves p there by
    # p'' times 1e-24 of its square, far below the margin
    s = _refine_root(functools.partial(_chebyshev_sum, d), functools.partial(_chebyshev_sum, e),
                     -1.0, 1.0, left, 1e-12)[0]
    return 0.0, min(max(0.5 * (a + b) + 0.5 * (b - a) * s, a), b)


def _refine_root(f, fprime, lo, hi, f_lo, root_tol, start=None):
    """Bracketed, safeguarded Newton iteration on a sign bracket [lo, hi],
    f(lo) = f_lo (rtsafe, Press et al., Numerical Recipes, section 9.4).

    The first iterate is `start`, which must lie in [lo, hi], or else the
    bracket's midpoint.  Each iteration evaluates f at the iterate, keeps
    the side of the bracket that holds the sign change, and forms the
    Newton candidate from fprime there.  The search stops when the
    candidate lies in the bracket and its step is below root_tol/2,
    returning the candidate, or when the bracket is at most root_tol wide,
    returning its midpoint; from a `start`, one more iteration evaluates f
    at that midpoint, and the last iterate is returned instead where its
    |f| is smaller.  Otherwise the candidate becomes the next
    iterate when it lies strictly inside the bracket, its step is at most
    half the step before last, and enough of the budget of
    3*ceil(log2((hi - lo) / root_tol)) iterations remains to bisect the
    bracket down to root_tol afterwards; else the bracket midpoint does.
    So the search takes at most that many iterations, and one more from a
    `start`; rounded midpoints can add one.  `InverseConfig` keeps
    root_tol >= ROOT_TOL_MIN, where a midpoint still lies strictly inside
    the bracket, so the loop always ends.
    Returns (root, trace, iterations).
    """
    if lo == hi:
        return lo, ((1, lo, f_lo),), 1
    a, b = lo, hi
    positive_left = f_lo > 0.0
    budget = 3 * math.ceil(math.log2((b - a) / root_tol))
    x = 0.5 * (a + b) if start is None else start
    step_before_last = step = b - a
    trace = []
    k = 0
    while b - a > root_tol:
        k += 1
        fx = f(x)
        trace.append((k, x, fx))
        if fx == 0.0:
            return x, tuple(trace), k
        if (fx > 0.0) == positive_left:
            a = x
        else:
            b = x
        if b - a <= root_tol:
            break
        nxt = 0.5 * (a + b)
        slope = fprime(x)
        if abs(slope) > DERIVATIVE_FLOOR:
            candidate = x - fx / slope
            newton_step = abs(candidate - x)
            if newton_step < 0.5 * root_tol and a <= candidate <= b:
                return candidate, tuple(trace), k
            if (a < candidate < b and newton_step <= 0.5 * step_before_last
                    and k + 1 + math.ceil(math.log2((b - a) / root_tol)) <= budget):
                nxt = candidate
        step_before_last, step = step, abs(nxt - x)
        x = nxt
    root = 0.5 * (a + b)
    if start is not None and trace:
        # from a start near the root the search can end on the width test
        # with its last iterate at f's rounding level, nearer the root than
        # the midpoint
        f_root = f(root)
        k += 1
        trace.append((k, root, f_root))
        _, x, fx = trace[-2]
        if abs(fx) < abs(f_root):
            root = x
    return root, tuple(trace), k


def invert_order(problem, measurement, config=InverseConfig()):
    """Recover the order from the measurement; see InversionReport.

    Raises NoRootError when the bracket search finds no sign change, and
    AccuracyError when F cannot be certified at an order it evaluates.
    Multiple brackets are all refined and reported, with `unique` False.
    """
    terms, t1, d, mode_tol = _inverse_inputs(problem, measurement, config, "invert_order")
    brackets, monotone, interpolant, node_error, f = _brackets(terms, t1, d, mode_tol, config)
    if not brackets:
        raise NoRootError(f"no root in range: F(alpha)-d has no sign change on "
                          f"[{config.alpha_lo:g}, {config.alpha_hi:g}]")
    # the interpolant's own root starts each search on F, and its slope
    # takes every Newton step: F runs about once per root
    p, p_slope = interpolant.value, interpolant.slope
    refined = []
    for lo, hi, f_lo in brackets:
        start = _refine_root(p, p_slope, lo, hi, f_lo, config.root_tol)[0]
        refined.append(_refine_root(f, p_slope, lo, hi, f_lo, config.root_tol, start))
    # the report reads F' from the interpolant too where a bound on their
    # difference, from F's node error, certifies it
    alpha_hat = refined[0][0]
    slope = p_slope(alpha_hat)
    if interpolant.slope_error(alpha_hat, node_error) > _SLOPE_REL_TOL * abs(slope):
        try:
            slope = _slope(terms, alpha_hat, t1, mode_tol)
        except AccuracyError:
            slope = math.nan
    return InversionReport(
        alpha_hat=alpha_hat,
        residual=f(alpha_hat),
        derivative_at_root=slope,
        monotone=MONOTONE_VERIFIED if monotone else MONOTONE_VIOLATED,
        uniqueness_hypothesis=all(amplitude * basis > 0.0 for amplitude, basis, _ in terms),
        sensitivity=math.inf if abs(slope) < DERIVATIVE_FLOOR else 1.0 / abs(slope),
        trace=refined[0][1],
        roots=tuple(root for root, _, _ in refined),
        iterations=sum(used for _, _, used in refined),
    )
