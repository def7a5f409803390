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
def port_calls(monkeypatch):
    """Gamma / psi port evaluations fracorder.special makes, from cleared
    coefficient caches on: one list of arguments per block build, one float
    per call outside a block build."""
    special = fracorder.special
    log = {"_gamma": [], "_psi": []}
    real = {name: getattr(special, name) for name in log}
    wrappers = {}
    for name, calls in log.items():
        wrappers[name] = lambda x, name=name, calls=calls: calls.append(x) or real[name](x)
        monkeypatch.setattr(special, name, wrappers[name])
    real_block = special._port_block

    def block(port, alpha, start):
        name = next(name for name, wrapper in wrappers.items() if wrapper is port)
        log[name].append([alpha * j + 1.0 for j in range(start, start + special._BLOCK)])
        return real_block(real[name], alpha, start)

    monkeypatch.setattr(special, "_port_block", block)
    special._gamma_block.cache_clear()
    special._psi_block.cache_clear()
    return log
