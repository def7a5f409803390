import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import fracorder.special
from fracorder import (AccuracyError, DomainError, evaluate_solution, evaluate_solution_grid,
                       forward, make_problem, sine_coefficient)

PI = math.pi

# frozen 120-digit forward values at the two reference setups
U_SINGLE_075 = 0.2581796220382629719847   # u(pi/4, 2) at alpha = 0.75
U_TWO_05 = 1.011222724532629841202        # u(pi/6, 10) at alpha = 0.5


# ------------------------------------------------------------ make_problem

def test_make_problem_strips_zeros_and_sorts():
    problem = make_problem(1.0, PI, [(3, 0.5), (1, 2.0), (2, 0.0)], 1.0)
    assert problem.modes == ((1, 2.0), (3, 0.5))
    assert problem.n_modes == 2


def test_make_problem_rejects_duplicates():
    with pytest.raises(DomainError):
        make_problem(1.0, PI, [(1, 1.0), (1, 2.0)], 1.0)


def test_make_problem_rejects_bad_scalars():
    with pytest.raises(DomainError):
        make_problem(-0.1, PI, [(1, 1.0)], 1.0)
    with pytest.raises(DomainError):
        make_problem(0.1, 0.0, [(1, 1.0)], 1.0)
    with pytest.raises(DomainError):
        make_problem(0.1, PI, [(1, 1.0)], -1.0)
    # a bool, a string, None, an int past the double range or a non-finite
    # value is refused by name, whichever scalar it stands for; an int past
    # the 4300-digit limit of str(), whose repr raises ValueError, too
    for bad in (True, "0.1", None, 10**400, 10**5000, math.nan, math.inf):
        for position, name in enumerate(("diffusivity", "length", "time_horizon")):
            args = [0.1, PI, 1.0]
            args[position] = bad
            with pytest.raises(DomainError, match=f"make_problem: {name} must be"):
                make_problem(args[0], args[1], [(1, 1.0)], args[2])
    for amplitude in (10**400, 10**5000):
        with pytest.raises(DomainError, match="needs a finite real amplitude"):
            make_problem(0.1, PI, [(1, amplitude)], 1.0)
    for modes in (3, None, "12", {(1, 1.0)}, 10**5000):
        with pytest.raises(DomainError, match="modes must be a list or tuple"):
            make_problem(0.1, PI, modes, 1.0)
    # integers and numpy scalars stay valid
    problem = make_problem(1, np.float64(PI), [(1, 1)], np.int64(2))
    assert problem == make_problem(1.0, PI, [(1, 1.0)], 2.0)


def test_make_problem_rejects_empty_after_stripping():
    with pytest.raises(DomainError):
        make_problem(1.0, PI, [(1, 0.0), (2, 0.0)], 1.0)
    with pytest.raises(DomainError):
        make_problem(1.0, PI, [], 1.0)


def test_make_problem_rejects_bad_indices():
    with pytest.raises(DomainError):
        make_problem(1.0, PI, [(0, 1.0)], 1.0)
    with pytest.raises(DomainError):
        make_problem(1.0, PI, [(1.5, 1.0)], 1.0)
    # malformed entries are refused by name, not with a raw Python error
    for entry in [(math.nan, 1.0), (math.inf, 1.0), (None, 1.0), (True, 1.0), ("2", 1.0),
                  (1, "x"), (1, math.nan), (1, -math.inf), (1, None), (1, True)]:
        with pytest.raises(DomainError, match=r"mode entry \(") as exc_info:
            make_problem(1.0, PI, [entry], 1.0)
        assert repr(entry) in str(exc_info.value)
    # an index whose rate D*(n*pi/length)**2 is not a finite double: the
    # square overflows at 10**300, n*pi already at 10**400
    for entry in [(10**300, 1.0), (10**400, 1.0)]:
        with pytest.raises(DomainError, match="lies past the double range"):
            make_problem(1.0, PI, [entry], 1.0)
    with pytest.raises(DomainError, match="lies past the double range"):
        make_problem(1e10, PI, [(10**150, 1.0)], 1.0)  # finite square, D times it is not
    # an entry whose repr raises ValueError (an int past str()'s 4300-digit
    # limit) is still refused by DomainError, shown by its type
    for entry in [(-10**5000, 1.0), (10**5000, 1.0), (1, 10**5000), (1, 2, 10**5000)]:
        with pytest.raises(DomainError, match=r"mode entr.* <unprintable tuple>"):
            make_problem(1.0, PI, [entry], 1.0)
    # an integral float and numpy integers and floats still pass
    problem = make_problem(1.0, PI, [(2.0, 1.0), (np.int64(3), np.float64(0.5))], 1.0)
    assert problem.modes == ((2, 1.0), (3, 0.5))
    assert all(type(n) is int and type(a) is float for n, a in problem.modes)


def test_make_problem_rejects_amplitude_sum_past_double_range():
    # each amplitude is finite but their sum is not: F came back as inf and
    # invert_order raised a misleading NoRootError
    with pytest.raises(DomainError, match="^make_problem: the amplitudes of modes 1, 2 sum "
                                          "past the double range$"):
        make_problem(1e-3, PI, [(1, 1.7e308), (2, 1.7e308)], 1.0)
    with pytest.raises(DomainError, match="modes 1, 2, 3 sum past"):
        make_problem(1e-3, PI, [(3, 1e308), (1, -1e308), (2, 1e0)], 1.0)
    # a finite sum of |a_n| at the edge of the range keeps F and the grid finite
    big = make_problem(1e-3, PI, [(1, 1.7e308), (2, -9e306)], 1.0)
    assert math.isfinite(evaluate_solution(big, 0.5, 0.5, 1.0, 1e-9))
    assert np.isfinite(evaluate_solution_grid(big, 0.5, [0.0, 0.5, PI], [0.5, 1.0])).all()


def test_make_problem_shares_canonical_modes():
    # a tuple of (int, float) pairs, sorted, nonzero: kept, not copied
    canonical = ((2, 1.0), (3, 0.5))
    problem = make_problem(1.0, PI, canonical, 1.0)
    assert problem.modes is canonical
    assert not hasattr(problem, "__dict__")  # slots: no per-instance dict
    for other in [list(canonical), ((3, 0.5), (2, 1.0)), ((2, 1.0), (3, 0.5), (4, 0.0)),
                  ((2, 1.0), (3.0, 0.5)), ((2, 1.0), [3, 0.5])]:
        modes = make_problem(1.0, PI, other, 1.0).modes
        assert modes == canonical and modes is not other
        assert all(type(pair) is tuple and type(n) is int and type(a) is float
                   for pair in modes for n, a in [pair])


# ------------------------------------------------------------- eigenvalue

def _rates(problem):
    """D * lambda_n per mode, as the measurement kernel reads them."""
    return [rate for _, _, rate in forward._mode_terms(problem, 1.0)]


def test_eigenvalue_unit_interval_pi():
    problem = make_problem(1.0, PI, [(1, 1.0), (3, 1.0)], 1.0)
    assert _rates(problem) == pytest.approx([1.0, 9.0], rel=1e-15)


def test_eigenvalue_scales_with_length():
    problem = make_problem(0.5, 2.0 * PI, [(2, 1.0)], 1.0)
    assert _rates(problem) == pytest.approx([0.5], rel=1e-15)


# ------------------------------------------------------ evaluate_solution

def test_reference_value_single_mode(single_mode):
    problem, measurement = single_mode
    u = evaluate_solution(problem, 0.75, measurement.position, measurement.time)
    assert abs(u - 0.25818) <= 5e-5          # value rounded to 5 digits
    assert abs(u - U_SINGLE_075) <= 1e-12    # frozen high-precision value


def test_reference_value_two_mode(two_mode):
    problem, measurement = two_mode
    u = evaluate_solution(problem, 0.5, measurement.position, measurement.time)
    assert abs(u - 1.0112) <= 5e-4
    assert abs(u - U_TWO_05) <= 1e-12


def test_boundary_values_exactly_zero(single_mode, two_mode):
    for problem, _ in (single_mode, two_mode):
        for t in (0.5, 1.0, problem.time_horizon):
            assert evaluate_solution(problem, 0.7, 0.0, t) == 0.0
            assert evaluate_solution(problem, 0.7, problem.length, t) == 0.0


def test_initial_value_consistency(single_mode, two_mode):
    # at t -> 0+ the solution approaches the initial sine sum
    for problem, _ in (single_mode, two_mode):
        for x in np.linspace(0.1, problem.length - 0.1, 10):
            initial = sum(a * math.sin(n * x) for n, a in problem.modes)
            u = evaluate_solution(problem, 0.5, float(x), 1e-8)
            assert abs(u - initial) <= 1e-4


def test_classical_limit_single_mode(single_mode):
    # alpha = 1 collapses to the plain heat kernel mode
    problem, _ = single_mode
    for x in (0.3, PI / 4, 1.9):
        for t in (0.5, 2.0, 4.0):
            expected = 0.5 * math.exp(-0.4 * t) * math.sin(2 * x)
            u = evaluate_solution(problem, 1.0, x, t)
            assert abs(u - expected) <= 1e-9 * abs(expected)


def test_time_decay_single_mode(single_mode):
    problem, _ = single_mode
    ts = np.linspace(0.25, 4.0, 16)
    us = [evaluate_solution(problem, 0.6, PI / 4, float(t)) for t in ts]
    assert all(b < a for a, b in zip(us, us[1:]))


def test_linearity_of_modes(two_mode):
    # matched per-mode tolerances (2e-10 over two modes vs 1e-10 over one)
    # make the underlying special-function calls identical
    problem, _ = two_mode
    lone = make_problem(0.05, PI, [(1, 2.0)], 20.0)
    three = make_problem(0.05, PI, [(3, 0.5)], 20.0)
    for x, t in ((0.3, 1.0), (PI / 6, 10.0), (2.5, 18.0)):
        both = evaluate_solution(problem, 0.45, x, t, rel_tol=2e-10)
        split = (evaluate_solution(lone, 0.45, x, t, rel_tol=1e-10)
                 + evaluate_solution(three, 0.45, x, t, rel_tol=1e-10))
        assert abs(both - split) <= 1e-13 * max(abs(both), 1.0)


def test_domain_validation(single_mode):
    problem, _ = single_mode
    with pytest.raises(DomainError):
        evaluate_solution(problem, 0.5, -0.1, 1.0)
    with pytest.raises(DomainError):
        evaluate_solution(problem, 0.5, problem.length + 0.1, 1.0)
    with pytest.raises(DomainError):
        evaluate_solution(problem, 0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        evaluate_solution(problem, 0.5, 1.0, problem.time_horizon + 1.0)
    with pytest.raises(DomainError):
        evaluate_solution(problem, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        evaluate_solution(problem, 1.1, 1.0, 1.0)
    # a bool, a string, a number past the double range or a container whose
    # repr raises (an int past the 4300-digit limit) is refused by name
    for bad in (True, "1.0", 10**400, (10**5000,)):
        for name, args in (("alpha", (bad, 1.0, 1.0)), ("x", (0.5, bad, 1.0)),
                           ("t", (0.5, 1.0, bad))):
            with pytest.raises(DomainError, match=f"^evaluate_solution: {name} "):
                evaluate_solution(problem, *args)
        with pytest.raises(DomainError, match="^evaluate_solution: rel_tol "):
            evaluate_solution(problem, 0.5, 1.0, 1.0, bad)
        with pytest.raises(DomainError, match="^evaluate_solution_grid: x "):
            evaluate_solution_grid(problem, 0.5, [1.0, bad], [1.0])
        with pytest.raises(DomainError, match="^evaluate_solution_grid: t "):
            evaluate_solution_grid(problem, 0.5, [1.0], [bad])
        with pytest.raises(DomainError, match="^evaluate_solution: alpha "):
            evaluate_solution_grid(problem, bad, [1.0], [1.0])


def test_evaluate_solution_refuses_rel_tol_out_of_range():
    # a tolerance outside [REL_TOL_MIN, REL_TOL_MAX] is refused by name
    # before the per-mode split, not raised silently to 1e-15 per mode
    problem = make_problem(0.1, PI, [(1, 1.0)], 4)
    for bad in (-1.0, 0.0, 1e-16, 2e-3, math.nan, math.inf):
        with pytest.raises(DomainError, match="^evaluate_solution: rel_tol must lie in"):
            evaluate_solution(problem, 0.5, 1.0, 1.0, rel_tol=bad)
        with pytest.raises(DomainError, match="^evaluate_solution: rel_tol must lie in"):
            evaluate_solution_grid(problem, 0.5, [1.0], [1.0], rel_tol=bad)
    # both ends of the range stay legal (1e-15 is attainable at alpha = 1)
    assert evaluate_solution(problem, 1.0, 1.0, 1.0, rel_tol=fracorder.special.REL_TOL_MIN) \
        == pytest.approx(math.exp(-0.1) * math.sin(1.0), rel=1e-15)
    assert evaluate_solution(problem, 0.5, 1.0, 1.0, rel_tol=fracorder.special.REL_TOL_MAX) \
        == pytest.approx(evaluate_solution(problem, 0.5, 1.0, 1.0), rel=1e-3)


# ------------------------------------------------- evaluate_solution_grid

def test_grid_degenerate_single_cell(single_mode):
    problem, _ = single_mode
    grid = evaluate_solution_grid(problem, 0.75, [PI / 4], [2.0])
    assert grid.shape == (1, 1)
    assert grid[0, 0] == evaluate_solution(problem, 0.75, PI / 4, 2.0)


def test_grid_matches_pointwise_and_decays(single_mode):
    problem, _ = single_mode
    ts = [1.0, 2.0, 4.0]
    grid = evaluate_solution_grid(problem, 0.75, [PI / 4], ts)
    pointwise = [evaluate_solution(problem, 0.75, PI / 4, t) for t in ts]
    assert np.array_equal(grid[0], np.array(pointwise))
    assert grid[0, 0] > grid[0, 1] > grid[0, 2]


SIX_MODES = [(1, 1.0), (2, -0.5), (3, 0.3), (4, 0.2), (5, -0.1), (6, 0.05)]


def test_grid_equals_pointwise_with_walls_and_nodes():
    problem = make_problem(0.01, PI, SIX_MODES, 4.0)
    # both walls, a node of mode 4 only (pi/4) and of modes 2, 4, 6 (pi/2)
    xs = [0.0, 0.3, PI / 4, PI / 2, 2.0, PI]
    ts = [0.5, 1.0, 2.5, 4.0]
    grid = evaluate_solution_grid(problem, 0.6, xs, ts)
    pointwise = np.array([[evaluate_solution(problem, 0.6, x, t) for t in ts] for x in xs])
    assert np.array_equal(grid, pointwise)
    assert all(v == 0.0 for v in grid[0]) and all(v == 0.0 for v in grid[-1])


def test_grid_on_walls_evaluates_no_factor(monkeypatch):
    problem = make_problem(0.01, PI, SIX_MODES, 4.0)
    calls = []
    real = forward._mittag_leffler
    monkeypatch.setattr(forward, "_mittag_leffler",
                        lambda *args: calls.append(args) or real(*args))
    grid = evaluate_solution_grid(problem, 0.6, [0.0, PI], [1.0, 4.0])
    assert calls == []
    assert not grid.any()


def _clear_gamma_blocks():
    fracorder.special._gamma_block.cache_clear()


def _value_or_refusal(*args):
    try:
        return evaluate_solution(*args).hex()
    except AccuracyError as exc:
        return str(exc)


def test_evaluate_solution_same_in_every_cache_state():
    problem = make_problem(0.01, PI, SIX_MODES, 4.0)
    # many small modes: the 1e-10 / 6 asked of each is missed at (1, 5)
    refusing = make_problem(0.05, PI, [(n, 1.0 / n) for n in range(1, 7)], 5.0)
    calls = [(problem, alpha, x, t) for alpha in (0.3, 0.6) for x in (0.3, 2.0)
             for t in (0.5, 2.5)] + [(refusing, 0.5, 1.0, 5.0)]
    cold = []
    for args in calls:
        _clear_gamma_blocks()
        cold.append(_value_or_refusal(*args))
    assert "misses rel_tol=1.66667e-11" in cold[-1]
    assert [_value_or_refusal(*args) for args in calls] == cold
    # neighbouring calls at different orders
    interleaved = {k: _value_or_refusal(*calls[k]) for k in (0, 4, 1, 5, 2, 6, 3, 7, 8)}
    assert [interleaved[k] for k in range(len(calls))] == cold


def test_grid_builds_each_coefficient_block_once(port_calls):
    # |z| up to 2.8: the longest power series read two blocks
    problem = make_problem(0.05, PI, [(1, 1.0), (2, -0.4), (3, 0.2)], 10.0)
    evaluate_solution_grid(problem, 0.8, np.linspace(0.0, PI, 9), np.linspace(0.5, 10.0, 8))
    # only whole blocks, each once: no per-term scalar call, no psi
    assert all(np.ndim(g) == 1 for g in port_calls["_gamma"])
    assert [g[0] for g in port_calls["_gamma"]] == [0.8 * 1 + 1.0, 0.8 * 33 + 1.0]
    assert port_calls["_psi"] == []


def test_grid_rejects_empty(single_mode):
    problem, _ = single_mode
    with pytest.raises(DomainError):
        evaluate_solution_grid(problem, 0.75, [], [1.0])
    with pytest.raises(DomainError):
        evaluate_solution_grid(problem, 0.75, [1.0], [])


# --------------------------------------------------------- sine_coefficient

def test_sine_coefficient_orthogonality():
    xs = np.linspace(0.0, PI, 1024)
    fs = np.sin(2.0 * xs)
    assert abs(sine_coefficient(xs, fs, 2) - 1.0) <= 1e-3
    assert abs(sine_coefficient(xs, fs, 1)) <= 1e-3


def test_sine_coefficient_two_mode_initial_data():
    xs = np.linspace(0.0, PI, 1024)
    fs = 2.0 * np.sin(xs) + 0.5 * np.sin(3.0 * xs)
    coarse = sine_coefficient(xs, fs, 3)
    assert abs(coarse - 0.5) <= 1e-3
    # quadrature refinement does not move the value away
    xs_fine = np.linspace(0.0, PI, 4096)
    fs_fine = 2.0 * np.sin(xs_fine) + 0.5 * np.sin(3.0 * xs_fine)
    fine = sine_coefficient(xs_fine, fs_fine, 3)
    assert abs(fine - 0.5) <= abs(coarse - 0.5) + 1e-12


def test_sine_coefficient_takes_any_integral_index():
    xs = np.linspace(0.0, PI, 256)
    fs = np.sin(2.0 * xs) + 0.25 * np.sin(5.0 * xs)
    expected = sine_coefficient(xs, fs, 2).hex()
    for n in (Decimal(2), Fraction(4, 2), 2.0, np.int64(2)):
        assert sine_coefficient(xs, fs, n).hex() == expected, n


def test_sine_coefficient_rejects_bad_grids():
    xs = np.linspace(0.0, PI, 32)
    with pytest.raises(DomainError):
        sine_coefficient(xs, np.sin(xs), 1)
    xs = np.concatenate([np.linspace(0.0, 1.0, 60), np.linspace(1.1, PI, 60)])
    with pytest.raises(DomainError):
        sine_coefficient(xs, np.sin(xs), 1)
    xs = np.linspace(0.0, PI, 64)
    for n in (0, math.nan, math.inf, True):
        with pytest.raises(DomainError, match="sine_coefficient"):
            sine_coefficient(xs, np.sin(xs), n)


def test_sine_coefficient_refuses_index_past_double_range():
    # make_problem refuses the same indices; numpy's n*pi would raise a raw
    # OverflowError or turn every sample into nan
    xs = np.linspace(0.0, PI, 64)
    for n in (10**400, 10**308):
        with pytest.raises(DomainError, match=r"^sine_coefficient: index .*past the double range"):
            sine_coefficient(xs, np.sin(xs), n)
