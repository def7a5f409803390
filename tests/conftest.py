import math

import pytest

import fracorder.special
from fracorder import Measurement, make_problem

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
def scipy_calls(monkeypatch):
    """Arguments of every `_sc_gamma` / `_sc_psi` call that fracorder.special
    makes, from cleared coefficient caches on."""
    log = {"_sc_gamma": [], "_sc_psi": []}
    for name, calls in log.items():
        real = getattr(fracorder.special, name)
        monkeypatch.setattr(fracorder.special, name,
                            lambda x, real=real, calls=calls: calls.append(x) or real(x))
    fracorder.special._gamma_block.cache_clear()
    fracorder.special._psi_block.cache_clear()
    return log
