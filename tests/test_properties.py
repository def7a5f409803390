"""Property tests, drawn by hypothesis with a fixed seed and example count.

This module imports no numpy: the properties run on the standard library's
floats, as the CLI and the special functions do.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fracorder import AccuracyError, mittag_leffler
from fracorder.cli import main

TWO = Path(__file__).resolve().parent.parent / "configs" / "two_mode.json"

# derandomized, so every run draws the same examples; no example database,
# so a run leaves no file behind
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400)


# ------------------------------------------------------------ Mittag-Leffler

@PROPERTY
@given(alpha=st.floats(0.05, 0.95), log10_x=st.floats(-3.0, 4.0),
       rel_tol=st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_certified_ml_within_simon_bounds(alpha, log10_x, rel_tol):
    # Simon's two-sided bound for 0 < alpha < 1 and x >= 0:
    # 1/(1 + Gamma(1 - alpha) x) <= E_alpha(-x) <= 1/(1 + x/Gamma(1 + alpha));
    # a value is certified to rel_tol, so it may miss the bound by that much
    x = 10.0 ** log10_x
    try:
        value = mittag_leffler(alpha, -x, rel_tol)
    except AccuracyError:
        return
    lower = 1.0 / (1.0 + math.gamma(1.0 - alpha) * x)
    upper = 1.0 / (1.0 + x / math.gamma(1.0 + alpha))
    assert lower * (1.0 - rel_tol) <= value <= upper * (1.0 + rel_tol), (lower, value, upper)


# ----------------------------------------------------------------------- CLI

# paths into the two-mode config; setting one under inverse or extra adds it
FIELDS = [("alpha",), ("problem",), ("problem", "diffusivity"), ("problem", "length"),
          ("problem", "modes"), ("problem", "modes", 0), ("problem", "modes", 1, 0),
          ("problem", "modes", 1, 1), ("problem", "time_horizon"), ("measurement",),
          ("measurement", "position"), ("measurement", "time"), ("measurement", "value"),
          ("measurement", "extra"), ("inverse",), ("inverse", "alpha_lo"),
          ("inverse", "alpha_hi"), ("inverse", "root_tol"), ("inverse", "scan_points"),
          ("inverse", "f_rel_tol"), ("output",), ("output", "path"), ("output", "format")]
POOL = [True, False, "", "csv", "json", "out.csv", None, [], [[]], [[1, 2.0]],
        [[1, [2.0]], [3]], [[0.5, 1.0], [2.0, 0.9]], 10**400, 1e308, 1e-320, -0.0]
COMMANDS = [["invert"], ["curve"], ["forward", "--points", "0.5,1;1,2"]]


def _replaced(data, path, value):
    """Set the entry at `path` of the nested `data`, unless an earlier
    replacement took away its parent."""
    *parents, last = path
    try:
        for key in parents:
            data = data[key]
        if isinstance(data, dict) or last < len(data):
            data[last] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):  # a bool, a string, null or a short list
        pass


@PROPERTY
@given(replacements=st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(POOL)),
                             min_size=1, max_size=3),
       command=st.sampled_from(COMMANDS))
def test_cli_exits_with_a_code_on_any_config(replacements, command):
    data = json.loads(TWO.read_text(encoding="utf-8"))
    for path, value in replacements:
        _replaced(data, path, value)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # an output path from the pool is written here
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(data), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command[0], "--config", "config.json", *command[1:]])
        finally:
            os.chdir(cwd)
    assert code in range(5), code
