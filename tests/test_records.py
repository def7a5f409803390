import math
import pickle
import sys

import pytest

import fracorder
from fracorder import (DomainError, InverseConfig, InversionReport, Measurement, ScanResult,
                       invert_order, make_problem, scan_bracket)
from fracorder.cli import RunConfig

PI = math.pi


# ------------------------------------------------------- InverseConfig checks

def test_inverse_config_checked_on_every_construction_path():
    # namedtuple's own _make, which _replace calls, builds by tuple.__new__;
    # both must still run the field checks
    config = InverseConfig()
    for build in (lambda: InverseConfig(root_tol=0.0),
                  lambda: config._replace(root_tol=0.0),
                  lambda: InverseConfig._make([1e-3, 0.999, 0.0, 99, 1e-10]),
                  lambda: config._replace(alpha_lo=0.5, alpha_hi=0.4),
                  lambda: config._replace(scan_points=8),
                  lambda: config._replace(f_rel_tol=1e-20),
                  lambda: config._replace(alpha_lo="0.1")):
        with pytest.raises(DomainError, match="^InverseConfig: "):
            build()
    assert InverseConfig._make(config) == config
    assert config._replace(scan_points=33).scan_points == 33
    with pytest.raises(TypeError):
        InverseConfig._make([1e-3, 0.999])
    # namedtuple's _replace raises TypeError for an unknown field from 3.13
    # on, ValueError before
    with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError,
                       match="unexpected field names"):
        config._replace(tol=1e-8)


def test_inverse_config_refusal_shows_unprintable_values():
    # an int past str()'s 4300-digit limit makes repr raise ValueError; the
    # refusal must still be a DomainError
    with pytest.raises(DomainError, match="scan_points must be an integer >= 9, got <unprintable int>"):
        InverseConfig(scan_points=-10**5000)


# ------------------------------------------------------------ repr and pickle

def test_record_reprs_pinned():
    # the named-tuple repr has the form of the dataclass repr it replaced
    problem = make_problem(0.1, PI, [(2, 0.5)], 4.0)
    measurement = Measurement(1.0, 2.0)
    config = InverseConfig()
    assert repr(problem) == ("ForwardProblem(diffusivity=0.1, length=3.141592653589793, "
                             "modes=((2, 0.5),), time_horizon=4.0)")
    assert repr(measurement) == "Measurement(position=1.0, time=2.0, value=None)"
    assert repr(config) == ("InverseConfig(alpha_lo=0.001, alpha_hi=0.999, root_tol=1e-10, "
                            "scan_points=99, f_rel_tol=1e-10)")
    assert repr(ScanResult((0.1, 0.9), (1.0, -1.0))) == (
        "ScanResult(alphas=(0.1, 0.9), values=(1.0, -1.0))")
    assert repr(InversionReport(0.5, 0.0, -1.0, "verified", True, 1.0, ((1, 0.5, 0.0),),
                                (0.5,), 1)) == (
        "InversionReport(alpha_hat=0.5, residual=0.0, derivative_at_root=-1.0, "
        "monotone='verified', uniqueness_hypothesis=True, sensitivity=1.0, "
        "trace=((1, 0.5, 0.0),), roots=(0.5,), iterations=1)")
    assert repr(RunConfig(problem, None, (), config, None, None)) == (
        f"RunConfig(problem={problem!r}, measurement=None, extra_measurements=(), "
        f"inverse={config!r}, alpha=None, output_path=None)")


def test_records_pickle_round_trip(single_mode):
    problem, measurement = single_mode
    report = invert_order(problem, measurement)
    config = InverseConfig(scan_points=33, root_tol=1e-12)
    for record in (report, config, problem, measurement, scan_bracket(problem, measurement)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is type(record)
            assert repr(copy) == repr(record)
    assert pickle.loads(pickle.dumps(report)).unique is True


# ------------------------------------------------------------- tuple API

def test_records_are_immutable_named_tuples(single_mode):
    problem, measurement = single_mode
    with pytest.raises(AttributeError):
        measurement.value = 0.3
    with pytest.raises(AttributeError):
        problem.extra = 1  # __slots__ = (): no per-instance dict
    assert not hasattr(InverseConfig(), "__dict__")
    # the tuple protocol is part of the API: iteration, indexing, len, and
    # equality with a plain tuple of the same fields
    position, time, value = measurement
    assert (position, time, value) == measurement == tuple(measurement)
    assert measurement[2] == value and len(measurement) == 3
    assert measurement._asdict() == {"position": PI / 4, "time": 2.0, "value": 0.25818}
    assert InverseConfig._fields == ("alpha_lo", "alpha_hi", "root_tol", "scan_points",
                                     "f_rel_tol")
    assert ScanResult._fields == ("alphas", "values")


# ------------------------------------------------------------- public names

def test_public_names_pinned():
    # the records, the solver functions and the errors; helpers that only
    # tests or a demo called are not part of the API
    assert sorted(fracorder.__all__) == sorted([
        "AccuracyError", "ConfigError", "DomainError", "NoRootError",
        "ForwardProblem", "make_problem", "evaluate_solution", "evaluate_solution_grid",
        "sine_coefficient", "Measurement", "InverseConfig", "InversionReport", "ScanResult",
        "residual", "residual_derivative", "scan_bracket", "invert_order", "endpoint_values",
        "mittag_leffler", "ml_alpha_derivative", "sinpi", "__version__"])
    assert len(set(fracorder.__all__)) == len(fracorder.__all__)
    assert all(hasattr(fracorder, name) for name in fracorder.__all__)
