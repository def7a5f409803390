"""Identification of the fractional order from one space-time measurement.

With finite-mode initial data the measured value d = u(x0, t1) turns the
identification into the scalar equation F(alpha) = d on (0, 1), where F is
the forward solution at the measurement point as a function of the order.
Each public function checks its inputs once, builds the per-mode terms at x0
once and evaluates F and its analytic derivative in alpha through the
forward kernel.  A uniform scan over the orders finds the sign-change
brackets and reports whether the sampled curve is monotone (a verdict on
the samples, not a proof).  `invert_order` reads the same brackets and
verdict from a Chebyshev interpolant of F through 17 nodes, or through 33
where the 17-node one has not decayed, evaluating F only at the scan
orders whose sign the interpolant cannot certify, and splits a scan cell
that hides two roots.  Where the interpolant's Chebyshev coefficients
certify its slope one-signed, it is read only at the scan's ends and at
the orders a bisection for its one sign change visits; elsewhere at every
scan order.  A bracketed, safeguarded Newton iteration refines
each bracket to a root, starting from F at its left end: it bisects
instead when a Newton step leaves the bracket, stops shrinking or would
overrun the iteration budget set by root_tol, and ends when a step falls
below root_tol/2 or the bracket narrows to root_tol.  Where the
interpolant found the brackets, the iteration first finds its root on the
interpolant, then starts on F from there with the interpolant's slope, so
that one evaluation of F usually ends it; the reported F' is the
interpolant's slope at the root where a bound on its error is at most 1e-6
of it.  Where the scan ran, or where a step of root_tol moves F by less
than its round-off, the iteration starts at each bracket's midpoint and
takes its Newton steps from the analytic F'.  The report takes the
analytic F' there and wherever the bound fails.
"""

import bisect
import functools
import math
import operator
from collections import namedtuple
from itertools import chain, compress, islice, repeat

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

# Node counts of the Chebyshev proxy of F that finds the brackets of a scan
# of more than 33 orders.  F is analytic in the order, and at 17 nodes the
# interpolant's last coefficients are at round-off on the bundled configs;
# where they have not decayed, F is evaluated at the 16 nodes that 33 adds,
# as the 17 nodes are the 33's even-indexed ones, bit for bit.
_PROXY_NODES = (17, 33)

# The golden-section search for an extremum of the proxy inside two scan
# cells narrows them to 0.618**24 = 1e-5 of their width.
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_STEPS = 24

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

    The scan takes `scan_points` >= 9 orders from `alpha_lo` to `alpha_hi` in
    (0, 1); every construction, `_make` and `_replace` included, checks them.
    They set the cells in which `invert_order` brackets roots; past 33
    orders it evaluates F at 17 Chebyshev nodes, at 16 more where their
    interpolant has not decayed, and at the scan orders the interpolant
    cannot certify, not at every scan order; where the interpolant's
    coefficients certify it monotone, it is read at the two ends and at
    about log2(scan_points) orders of a bisection.  `f_rel_tol` is the
    relative accuracy asked of F(alpha); each mode's Mittag-Leffler factor
    is asked for `f_rel_tol / n_modes`.  A request below the power series'
    round-off floor, `6*EPS*sum|term|` relative to the factor, at any
    evaluated order raises `AccuracyError`.  The
    floor grows with |z| = D lambda_n t1**alpha, so it is highest at
    `alpha_hi`: the bundled two-mode config is refused at 2e-11 and accepted
    at 3e-11.  `root_tol` ends the refinement of a bracket once a Newton step
    is below root_tol/2 or the bracket is at most root_tol wide, within
    3*ceil(log2(cell / root_tol)) iterations for a scan cell of width `cell`,
    one more where the search starts at the interpolant's root (rounded
    midpoints can add one); it may not go below ROOT_TOL_MIN = 1e-15.
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


class ScanResult(namedtuple("ScanResult", "alphas values monotone brackets")):
    """The scan's orders `alphas`, F(alpha) - d at each in `values`, the
    `monotone` verdict on those samples and the sign-change cells (lo, hi) in
    `brackets`, lo == hi for an exact zero; every sequence is a tuple."""

    __slots__ = ()


class InversionReport(namedtuple("InversionReport", "alpha_hat residual derivative_at_root "
                                 "monotone uniqueness_hypothesis sensitivity trace roots iterations")):
    """Outcome of `invert_order`; `alpha_hat` is the first of `roots`.

    `residual` is F(alpha_hat) - d, `monotone` the scan's verdict and
    `uniqueness_hypothesis` the paper's sign hypothesis, amplitude *
    sin(n*pi*x0/length) > 0 for every mode.  That hypothesis does not make F
    monotone: at t1 = 1, 1/Gamma(1 + alpha) peaks near alpha = 0.46 and F can
    meet d twice.  `trace` holds the steps (k, alpha, F - d) on F that
    refined `alpha_hat` and `iterations` their count over all roots; the
    search on the interpolant that precedes them, where the interpolant
    found the brackets, evaluates no F and is in neither.
    `derivative_at_root` is F'(alpha_hat) and `sensitivity` |1/F'|.  Where
    the interpolant's root started the search for `alpha_hat`, F' is the
    interpolant's slope there, when a bound on its distance from F' is at
    most 1e-6 of it; otherwise it is the analytic series, and both fields
    are nan when that cannot be certified (AccuracyError).  The root stands.
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
    """Uniform residual scan: monotonicity verdict plus sign-change cells.

    The orders are numpy.linspace(alpha_lo, alpha_hi, scan_points) to the
    bit, and the values equal `residual` at each order to the bit, refusals
    included.  An empty bracket tuple is a legal outcome meaning no root in
    range.
    """
    return _scan(*_inverse_inputs(problem, measurement, config, "scan_bracket"), config)


def _inverse_inputs(problem, measurement, config, name):
    """The checked (`_mode_terms` at x0, t1, d, per-mode tolerance); DomainError
    naming `name` unless `config` is an InverseConfig."""
    terms, t1 = _measured(problem, measurement)
    if not isinstance(config, InverseConfig):
        raise DomainError(f"{name}: config must be an InverseConfig, got {_shown(config)}")
    mode_tol = _mode_tol(problem, config.f_rel_tol, "InverseConfig: f_rel_tol")
    return terms, t1, float(measurement.value), mode_tol


def _scan_orders(lo, hi, n):
    """numpy.linspace(lo, hi, n) to the bit, as a tuple of floats."""
    step = (hi - lo) / (n - 1)
    return tuple([i * step + lo for i in range(n - 1)] + [hi])  # linspace's arithmetic


def _scan(terms, t1, d, mode_tol, config):
    """`scan_bracket` on checked inputs."""
    lo, hi, n = float(config.alpha_lo), float(config.alpha_hi), config.scan_points
    alphas = _scan_orders(lo, hi, n)
    values = tuple([_solution(terms, alpha, t1, mode_tol) - d for alpha in alphas])
    diffs = [b - a for a, b in zip(values, values[1:])]
    monotone = all(diff > 0.0 for diff in diffs) or all(diff < 0.0 for diff in diffs)
    # an exact zero is its own bracket, else a cell whose ends differ in sign;
    # signs are compared, as a product of two values below ~1e-162 underflows
    cells = zip(alphas, alphas[1:] + (hi,), values, values[1:] + (0.0,))
    brackets = tuple((a, a) if fa == 0.0 else (a, b) for a, b, fa, fb in cells
                     if fa == 0.0 or fb != 0.0 and (fa < 0.0) != (fb < 0.0))
    return ScanResult(alphas, values, monotone, brackets)


def _barycentric_row(x, nodes, weights):
    """The weights whose dot product with the values at `nodes` is their
    interpolant at x (Berrut & Trefethen, SIAM Review 46 (2004) 501)."""
    if x in nodes:
        return tuple(float(node == x) for node in nodes)
    quotients = [weight / (x - node) for weight, node in zip(weights, nodes)]
    total = sum(quotients)
    return tuple(q / total for q in quotients)


@functools.lru_cache(maxsize=8)
def _proxy_rows(lo, hi, n, size):
    """(orders, nodes, weights, rows, dct) of the `size`-node proxy for the
    n-order scan on [lo, hi], or None where its nodes are not distinct.

    The nodes are the Chebyshev points of the second kind on [lo, hi] in
    ascending order, both ends exact; `rows` holds one barycentric row per
    scan order, and `dct` the DCT-I rows, rows 0 and m = size - 1 halved,
    that give all m + 1 Chebyshev coefficients of the interpolant from the
    node values.  Node k lies at mid - half * cos(k pi / m), so the rows
    take cos(pi j k / m) with no (-1)**j: the coefficients are the
    interpolant's in the reflected variable y = (mid - alpha) / half.
    """
    m = size - 1
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # sin((2k - m) pi / 2m) = -cos(k pi / m), exactly odd about the middle
    # node; doubling k and m doubles pi * (2k - m) and 2m exactly, so each
    # node is the node 2k of the proxy with twice the intervals
    nodes = tuple([lo] + [mid + half * math.sin(math.pi * (2 * k - m) / (2 * m))
                          for k in range(1, m)] + [hi])
    if any(a >= b for a, b in zip(nodes, nodes[1:])):
        return None
    ends = [0.5] + [1.0] * (m - 1) + [0.5]
    weights = tuple((-1.0) ** k * end for k, end in enumerate(ends))
    orders = _scan_orders(lo, hi, n)
    rows = tuple(_barycentric_row(alpha, nodes, weights) for alpha in orders)
    dct = tuple(tuple(2.0 / m * (0.5 if j in (0, m) else 1.0) * end
                      * math.cos(math.pi * (j * k % (2 * m)) / m)
                      for k, end in enumerate(ends))
                for j in range(m + 1))
    return orders, nodes, weights, rows, dct


class _Interpolant:
    """The barycentric interpolant p of the values `f` at the ascending
    `nodes` with `weights`, and `trailing`, the largest of its last three
    Chebyshev coefficients (Berrut & Trefethen, SIAM Review 46 (2004) 501,
    section 9).

    `value` and `slope` read one set of differences x - x_k, quotients
    q_k = w_k / (x - x_k) and their sum, kept for the last x asked, so a
    value and a slope at one x cost one pass.  p(x) is sum_k (q_k / sum q)
    f_k, the rows of `_barycentric_row`, and p'(x) is sum_k q_k (p(x) - f_k)
    / (x - x_k) / sum q, with p(x) - f_j at the nearest node x_j summed from
    the differences f_k - f_j: a p(x) rounded near f_j, divided by a tiny
    x - x_j, would swamp the sum.  At a node x_j, p' is row j of the
    differentiation matrix, sum_{k != j} (w_k / w_j) (f_k - f_j) / (x_j - x_k).
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
        self._total = sum(self._quotients)

    def value(self, x):
        """p(x)."""
        if x != self._x:
            self._take(x)
        if self._p is None:
            if self._diffs is None:
                row = map(float, map(x.__eq__, self.nodes))
            else:
                row = map(self._total.__rtruediv__, self._quotients)
            self._p = sum(map(operator.mul, row, self.f))
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
                self._dp = sum(weight / weights[j] * (value - fj) / (x - node)
                               for k, (node, weight, value)
                               in enumerate(zip(self.nodes, weights, f)) if k != j)
            else:
                quotients, total = self._quotients, self._total
                above = sum(map(operator.mul, quotients, map(fj.__rsub__, f))) / total  # p(x) - f_j
                terms = map(operator.mul, quotients, map(above.__add__, map(fj.__sub__, f)))
                self._dp = sum(map(operator.truediv, terms, self._diffs)) / total
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
        - lo) on [lo, hi].  Under the geometric decay that `_proxy_brackets`'
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
        r = sum(map(operator.truediv, quotients, diffs)) / total
        lebesgue = sum(abs(q / total * (r - 1.0 / diff)) for q, diff in zip(quotients, diffs))
        m = len(self.nodes) - 1
        return (lebesgue * node_error
                + 4.1 * m * m * 2.0 / (self.nodes[-1] - self.nodes[0]) * self.trailing)


def _brackets(terms, t1, d, mode_tol, config):
    """([(lo, hi, F(lo) - d)], monotone, interpolant) for the sign-change
    cells and the verdict of `_scan`, read from a Chebyshev proxy of F where
    it can be; `interpolant` is the proxy's `_Interpolant` of F - d, with
    its trailing coefficient, or None where `_scan` ran.

    Past _PROXY_NODES[-1] scan orders, F is evaluated at the 17 proxy
    nodes, and at the 16 more of 33 only where the 17-node interpolant's
    trailing coefficients have not decayed.  The interpolant p stands in
    for F - d at each scan order: |p| above the margin fixes the sign of
    F - d there, and a step of p above twice the margin fixes the sign of
    the scan's step.  F is evaluated exactly at the other orders and at each
    bracket's left end, and a cell that hides two roots is split
    (`_hidden_pairs`).  Where the Chebyshev coefficients of p certify that
    each scan step of p exceeds 4 times the margin with one sign, p is read
    only at the two ends and at the orders a bisection for its sign change
    visits: the brackets, the verdict and the orders evaluated are those of
    the read at every scan order.  Trailing coefficients that have not
    decayed at 33 nodes, or an order that F refuses on this path, hand the
    search to `_scan`, so every refusal is the scan's.
    """
    lo, hi, n = float(config.alpha_lo), float(config.alpha_hi), config.scan_points
    known = {}  # F - d at each order evaluated, shared by both node counts
    for size in _PROXY_NODES:
        proxy = _proxy_rows(lo, hi, n, size) if n > _PROXY_NODES[-1] else None
        if proxy is None:
            break
        try:
            found = _proxy_brackets(terms, t1, d, mode_tol, proxy, known)
        except (AccuracyError, DomainError):
            break
        if found is not None:
            return found
    scan = _scan(terms, t1, d, mode_tol, config)
    scanned = dict(zip(scan.alphas, scan.values))
    return [(a, b, scanned[a]) for a, b in scan.brackets], scan.monotone, None


def _proxy_brackets(terms, t1, d, mode_tol, proxy, known):
    """`_brackets` from the rows of `_proxy_rows`, or None where the
    trailing coefficients have not decayed; `known` maps each order already
    evaluated to F - d and takes the orders evaluated here.

    Where the interpolant's coefficients certify that each scan step of p
    exceeds 4 times the margin with one sign (`_slope_floor`), p is read at
    the two ends and at the orders a bisection for its sign change visits
    (`_bisected_signs`), and the verdict is monotone; elsewhere p is read
    at every scan order (`_scanned_signs`).  Both give the same brackets,
    verdict and exactly evaluated orders where the certificate holds.
    """
    orders, nodes, weights, rows, dct = proxy

    def exact(alpha):
        if alpha not in known:
            known[alpha] = _solution(terms, alpha, t1, mode_tol) - d
        return known[alpha]

    # the ends first, then ascending: most refusals happen at an end, the
    # round-off floor peaking at alpha_hi, and hand over after 2 evaluations
    for alpha in (nodes[0], nodes[-1]) + nodes[1:-1]:
        exact(alpha)
    f = [known[alpha] for alpha in nodes]

    # The interpolant misses F by at most twice the sum of the coefficients
    # it drops.  With the last three below 1e-6 of F's spread over the
    # nodes, geometric decay falls by at least (1e6)**(1/16) > 2.37 a step
    # at 17 nodes and (1e6)**(1/32) > 1.53 at 33, so that bound is under 1.5
    # times the largest of the three at 17 nodes and under 3.8 at 33;
    # otherwise the next node count, or the scan, runs.  F's certified error
    # at each node (mode_tol per unit of sum |a_n sin_n|) reaches the
    # interpolant times its Lebesgue constant, below 2.8 at 17 nodes and 3.2
    # at 33, and the exact F at a scan order once more; 8 times the sum
    # covers all three with the sums' round-off.
    coefficients = [sum(map(operator.mul, row, f)) for row in dct]
    trailing = max(map(abs, coefficients[-3:]))
    if trailing > 1e-6 * (max(f) - min(f)):
        return None
    scale = sum(abs(amplitude * basis) for amplitude, basis, _ in terms)
    margin = 8.0 * (trailing + mode_tol * scale + 64.0 * _EPS * (scale + abs(d)))
    interpolant = _Interpolant(nodes, weights, f, trailing)

    # A scan step of p is at least the smallest one times the floor of |p'|
    # (mean value theorem); the 1e-9 covers the rounding of the step and
    # of the floor's scaling.  Above 4 margins, every computed step clears
    # twice the margin with one sign, the margin's round-off term taking
    # the rows' own rounding of p, so the full read would find the steps
    # of one sign, no step to check on F and no hidden pair
    floor = _slope_floor(coefficients, f, orders[-1] - orders[0])
    if (floor > 0.0 and (1.0 - 1e-9) * floor
            * min(map(operator.sub, islice(orders, 1, None), orders)) > 4.0 * margin):
        signs, monotone, splits = _bisected_signs(orders, rows, f, margin, exact), True, {}
    else:
        signs, monotone, splits = _scanned_signs(orders, rows, f, margin, interpolant.value,
                                                 exact)
    # an exact zero is its own bracket, else a cell whose ends differ in
    # sign: sign * (sign + next sign) vanishes for both, the last order's
    # next sign taken as 0
    nexts = chain(islice(signs, 1, None), (0,))
    ends = map(operator.mul, signs, map(operator.add, signs, nexts))
    cells = compress(range(len(signs)), map(operator.not_, ends))
    brackets = []
    for i in sorted(chain(cells, splits)):
        a = orders[i]
        if i in splits:
            x = splits[i]
            brackets += [(a, x, exact(a)), (x, orders[i + 1], known[x])]
        else:
            brackets.append((a, a if signs[i] == 0 else orders[i + 1], exact(a)))
    return brackets, monotone, interpolant


def _slope_floor(coefficients, f, width):
    """A lower bound on |p'| over the proxy's interval, `width` wide, from
    the Chebyshev coefficients c_0..c_m of p that the DCT-I rows of
    `_proxy_rows` give from the node values `f`; positive only where p'
    keeps one sign there (Boyd, SIAM J. Numer. Anal. 40 (2002) 1666;
    Battles & Trefethen, SIAM J. Sci. Comput. 25 (2004) 1743).

    In the reflected variable y, p' = sum_k d_k T_k, with d_{k-1} = d_{k+1}
    + 2k c_k from d_m = d_{m+1} = 0 and d_0 then halved; as |T_k| <= 1,
    |p'| >= |d_0| - sum_{k>=1} |d_k| on [-1, 1], and |dp/dalpha| is that
    times 2 / width.
    """
    m = len(coefficients) - 1
    derivative = [0.0] * (m + 2)
    for k in range(m, 0, -1):
        derivative[k - 1] = derivative[k + 1] + 2 * k * coefficients[k]
    # Round-off, in units of EPS max|f|.  A row entry misses its exact value
    # by at most 10 EPS 2/m and weighs at most 2/m, so each c_j misses p's
    # by at most m + 23 (the dot product's m + 1 roundings of terms summing
    # to at most 2 max|f|), and that moves p' by sum_j j**2 |dc_j|, below
    # (m + 23) (m + 1)**3 / 3.  As |c_j| <= 2 max|f|, the recurrence's
    # chains of m/2 + 1 roundings add at most (m + 1)**2 m (m + 2) / 2 over
    # all d_k, and the sum of the m terms |d_k| at most m**3 (m + 1).  The
    # three stay under 3 (m + 1)**4 for m >= 16; 4 (m + 1)**4 is allowed.
    allowance = 4.0 * (m + 1) ** 4 * _EPS * max(map(abs, f))
    lower = 0.5 * abs(derivative[0]) - sum(map(abs, islice(derivative, 1, m))) - allowance
    return lower * 2.0 / width


def _bisected_signs(orders, rows, f, margin, exact):
    """The bracket pass's signs over the scan orders where each step of p,
    the dot product of a row of `rows` with `f`, clears twice the margin
    with one sign, from p at the two ends and at the orders a bisection for
    its sign change visits.

    p is then strictly monotone over the scan orders, so every order before
    its sign change lies more than the margin on the side p leaves, every
    order after it more than the margin on the side p climbs to, and at most
    one order lies within the margin: one of the pair that borders the
    change, which the bisection has read.  F - d is taken exactly there
    alone, as the full read takes it.
    """
    n = len(orders)
    p = {i: sum(map(operator.mul, rows[i], f)) for i in (0, n - 1)}
    side = 1 if p[n - 1] > p[0] else -1
    # side * p <= 0 up to `below` and > 0 from `first`, the sign change,
    # with -1 and n standing for the orders beyond the ends
    below, first = -1, n
    while first - below > 1:
        i = (below + first) // 2
        if i not in p:
            p[i] = sum(map(operator.mul, rows[i], f))
        if side * p[i] > 0.0:
            first = i
        else:
            below = i
    signs = [-side] * first + [side] * (n - first)
    for i in (below, first):
        if i in p:
            value = p[i] if abs(p[i]) > margin else exact(orders[i])
            signs[i] = (value > 0.0) - (value < 0.0)
    return signs


def _scanned_signs(orders, rows, f, margin, proxy_at, exact):
    """(signs, monotone, splits) of the bracket pass from p at every scan
    order: the signs of F - d, the verdict on the scan's steps and the
    `_hidden_pairs` splits."""
    p = [sum(map(operator.mul, row, f)) for row in rows]

    # The bookkeeping over the scan orders runs as passes of map, compress,
    # max and min; a Python loop visits only the orders they single out.
    # F - d itself fixes the sign where |p| is within the margin
    zeros = repeat(0.0)
    signs = list(map(operator.sub, map(operator.gt, p, zeros), map(operator.lt, p, zeros)))
    for i in compress(range(len(p)), map(operator.le, map(abs, p), repeat(margin))):
        value = exact(orders[i])
        signs[i] = (value > 0.0) - (value < 0.0)

    # and the sign of a step within twice the margin, until the steps have
    # taken both signs; there is no such step where all clear it on one side
    twice = 2.0 * margin
    steps = list(map(operator.sub, islice(p, 1, None), p))
    top, bottom = max(steps), min(steps)
    rising, falling = top > twice, bottom < -twice
    if bottom <= twice and top >= -twice:
        for i in compress(range(len(steps)), map(operator.le, map(abs, steps), repeat(twice))):
            if rising and falling:
                break
            step = exact(orders[i + 1]) - exact(orders[i])
            rising |= not step < 0.0  # an exact zero step is neither
            falling |= not step > 0.0

    splits = (_hidden_pairs(orders, steps, signs, margin, proxy_at, exact)
              if bottom < 0.0 < top else {})
    return signs, not (rising and falling), splits


def _hidden_pairs(orders, steps, signs, margin, proxy_at, exact):
    """{i: x} for the scan cells [orders[i], orders[i + 1]] whose ends share a
    sign while F - d takes the other sign at x inside: two roots in one cell.

    Such a pair sits at an extremum of the proxy that turns towards zero
    between three scan orders of one sign.  A golden-section search finds
    the extremum; where the proxy there lies beyond the margin on the other
    side, F is evaluated exactly at it, and the cell is split when F - d
    agrees.
    """
    # the steps turn only where one falls and the next does not, or the reverse
    falls = list(map(operator.lt, steps, repeat(0.0)))
    splits = {}
    for j in compress(range(1, len(orders) - 1), map(operator.ne, falls, islice(falls, 1, None))):
        side = signs[j]
        if (side == 0 or signs[j - 1] != side or signs[j + 1] != side
                or not side * steps[j - 1] < 0.0 < side * steps[j]):
            continue
        x, g = _golden_min(lambda x: side * proxy_at(x), orders[j - 1], orders[j + 1])
        if g < -margin and x != orders[j] and side * exact(x) < 0.0:
            splits[j - 1 if x < orders[j] else j] = x
    return splits


def _golden_min(g, a, b):
    """(x, g(x)) at the smallest value of g that a golden-section search of
    _GOLDEN_STEPS steps on [a, b] finds."""
    c, e = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    gc, ge = g(c), g(e)
    for _ in range(_GOLDEN_STEPS):
        if gc < ge:
            b, e, ge = e, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, e, ge
            e = a + _GOLDEN * (b - a)
            ge = g(e)
    return (c, gc) if gc < ge else (e, ge)


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
        slope = 0.0
        try:
            slope = fprime(x)
        except AccuracyError:
            pass
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
    brackets, monotone, interpolant = _brackets(terms, t1, d, mode_tol, config)
    if not brackets:
        raise NoRootError(f"no root in range: F(alpha)-d has no sign change on "
                          f"[{config.alpha_lo:g}, {config.alpha_hi:g}]")

    def f(a):
        return _solution(terms, a, t1, mode_tol) - d

    def fp(a):
        return _slope(terms, a, t1, mode_tol)

    slope = None
    if interpolant is None:
        refined = [_refine_root(f, fp, lo, hi, f_lo, config.root_tol)
                   for lo, hi, f_lo in brackets]
    else:
        # the interpolant's own root starts each search on F, and its slope
        # takes each Newton step: F runs about once per root.  Where a step
        # of root_tol moves F by no more than its round-off allowance (as in
        # _proxy_brackets' margin), a start near the root gains nothing and
        # noise-size Newton steps stall it, so the search runs as where the
        # scan ran
        p, p_slope = interpolant.value, interpolant.slope
        scale = sum(abs(amplitude * basis) for amplitude, basis, _ in terms)
        rounding = 64.0 * _EPS * (scale + abs(d))
        refined, started = [], []
        for lo, hi, f_lo in brackets:
            start = _refine_root(p, p_slope, lo, hi, f_lo, config.root_tol)[0]
            started.append(config.root_tol * abs(p_slope(start)) > rounding)
            if started[-1]:
                refined.append(_refine_root(f, p_slope, lo, hi, f_lo, config.root_tol, start))
            else:
                refined.append(_refine_root(f, fp, lo, hi, f_lo, config.root_tol))
        if started[0]:
            # the report reads F' from the interpolant too where a bound on
            # their difference, from the node error of _proxy_brackets'
            # margin, certifies it
            slope = p_slope(refined[0][0])
            if (interpolant.slope_error(refined[0][0], mode_tol * scale + rounding)
                    > _SLOPE_REL_TOL * abs(slope)):
                slope = None
    alpha_hat = refined[0][0]
    if slope is None:
        try:
            slope = fp(alpha_hat)
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
