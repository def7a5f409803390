import math
import random

import pytest

import fracorder.special
from fracorder import Measurement, evaluate_solution, make_problem

PI = math.pi


@pytest.fixture
def single_mode():
    """One decaying mode measured at the quarter point: unique-order setup."""
    problem = make_problem(0.1, PI, [(2, 0.5)], 4.0)
    measurement = Measurement(PI / 4, 2.0, 0.25818)
    return problem, measurement


@pytest.fixture
def two_mode():
    """Two positive modes measured at pi/6: unique-order setup."""
    problem = make_problem(0.05, PI, [(1, 2.0), (3, 0.5)], 20.0)
    measurement = Measurement(PI / 6, 10.0, 1.0112)
    return problem, measurement


@pytest.fixture
def mixed_sign():
    """Opposed-sign modes whose measurement curve is not monotone: two roots."""
    problem = make_problem(0.1, PI, [(1, 1.0), (2, -0.5)], 20.0)
    measurement = Measurement(1.0, 10.0, 0.446064)
    return problem, measurement


@pytest.fixture
def port_calls(monkeypatch):
    """Gamma / psi port evaluations fracorder.special makes, from a cleared
    Gamma block cache on: one list of `_gamma` arguments per block build
    through `_gamma_block`, one float per `_psi` call and per `_gamma` call
    outside a block build."""
    special = fracorder.special
    log = {"_gamma": [], "_psi": []}
    real = {name: getattr(special, name) for name in log}
    real_block = special._gamma_block
    building = []  # the argument list of the block build under way

    def gamma(x):
        (building[-1] if building else log["_gamma"]).append(x)
        return real["_gamma"](x)

    def psi(x):
        log["_psi"].append(x)
        return real["_psi"](x)

    def gamma_block(alpha, start):
        # the real cache: a hit calls no `_gamma` and logs nothing
        building.append([])
        try:
            return real_block(alpha, start)
        finally:
            args = building.pop()
            if args:
                log["_gamma"].append(args)

    gamma_block.cache_clear = real_block.cache_clear
    monkeypatch.setattr(special, "_gamma", gamma)
    monkeypatch.setattr(special, "_psi", psi)
    monkeypatch.setattr(special, "_gamma_block", gamma_block)
    real_block.cache_clear()
    return log


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


@pytest.fixture
def seeded_inversions():
    """24 benchmark-like inversions from seed 5; the odd ones have opposed modes."""
    return _seeded_inversions(5, 24)


@pytest.fixture
def two_close_roots():
    """(alpha, problem, measurement) where F - d has two simple roots 0.0037
    apart inside the default scan cell [0.40835, 0.41853], whose ends are
    both negative, and peaks at +2.6e-7 between them."""
    alpha, x0, t1 = 0.41597965601616194, 1.7674655632682383, 4.8793236812777065
    problem = make_problem(0.01616371352710967, PI,
                           [(3, -1.474059766702691), (5, -1.4133489825594436)], t1)
    return alpha, problem, Measurement(x0, t1, evaluate_solution(problem, alpha, x0, t1))


@pytest.fixture
def hidden_minimum():
    """A curve with one root near 0.7093 whose F' changes sign between the
    orders 0.001 and 0.01, inside the default scan's first cell."""
    problem = make_problem(0.00013432089690639873, PI,
                           [(1, 1.2424920750717803), (3, 1.0297557915380928),
                            (6, -0.7645922742103965)], 0.5650091706912178)
    return problem, Measurement(1.9824725923026818, 0.5650091706912178, 1.2736126934170147)
