"""The reprs of 32 inversions against tests/golden/inversion_reprs.txt.

Every float sum on the inverse path is rounded once (math.fsum), so a report
has the same bits on every supported Python.  This module imports no numpy,
so that the interpreters without it run it too.  After an intended change,
rewrite the file from `_lines` with the same fixtures.
"""

from pathlib import Path

from fracorder import DomainError, InverseConfig, NoRootError, invert_order

GOLDEN = Path(__file__).resolve().parent / "golden" / "inversion_reprs.txt"

# the bracket search's own corners, where the full scan missed a root pair
CLOSE_ROOT_CONFIGS = {"f_rel_tol=1e-3": InverseConfig(f_rel_tol=1e-3),
                      "scan_points=33": InverseConfig(scan_points=33),
                      "alpha_lo=0.05 f_rel_tol=1e-6": InverseConfig(alpha_lo=0.05, f_rel_tol=1e-6)}


def _outcome(problem, measurement, config=InverseConfig()):
    try:
        return repr(invert_order(problem, measurement, config))
    except (ArithmeticError, DomainError, NoRootError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _lines(single_mode, two_mode, mixed_sign, seeded_inversions, two_close_roots,
           hidden_minimum):
    """One 'name: outcome' line per inversion."""
    named = [("single_mode", single_mode), ("two_mode", two_mode), ("mixed_sign", mixed_sign)]
    named += [(f"seeded {k}", case) for k, case in enumerate(seeded_inversions)]
    named += [("two_close_roots", two_close_roots[1:]), ("hidden_minimum", hidden_minimum)]
    lines = [f"{name}: {_outcome(*case)}" for name, case in named]
    lines += [f"two_close_roots {name}: {_outcome(*two_close_roots[1:], config)}"
              for name, config in CLOSE_ROOT_CONFIGS.items()]
    return lines


def test_inversion_reprs_match_golden(single_mode, two_mode, mixed_sign, seeded_inversions,
                                      two_close_roots, hidden_minimum):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert _lines(single_mode, two_mode, mixed_sign, seeded_inversions, two_close_roots,
                  hidden_minimum) == expected
