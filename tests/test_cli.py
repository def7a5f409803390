import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracorder import selfcheck
from fracorder.cli import (EXIT_CONFIG, EXIT_FAILURE, EXIT_MULTI_ROOT, EXIT_NO_ROOT,
                           EXIT_OK, cmd_curve, cmd_forward, cmd_invert, load_config,
                           main, parse_config, parse_points)
from fracorder.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
SINGLE = CONFIG_DIR / "single_mode.json"
TWO = CONFIG_DIR / "two_mode.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MIXED_SIGN_CONFIG = {
    "problem": {"diffusivity": 0.1, "length": math.pi,
                "modes": [[1, 1.0], [2, -0.5]], "time_horizon": 20.0},
    "measurement": {"position": 1.0, "time": 10.0, "value": 0.446064},
}


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _load_dict(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ------------------------------------------------------------- config

def test_bundled_configs_parse():
    for path in (SINGLE, TWO):
        config = load_config(path)
        assert config.problem.length == pytest.approx(math.pi)
        assert config.measurement.value is not None


def test_unknown_keys_rejected():
    base = _load_dict(SINGLE)
    cases = [(None, "bogus"), ("problem", "diffusion"), ("measurement", "x_coord"),
             ("inverse", "tol"), ("output", "fmt")]
    for section, key in cases:
        data = json.loads(json.dumps(base))
        if section is None:
            data[key] = 1
        else:
            data.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError) as exc_info:
            parse_config(data)
        assert key in str(exc_info.value)


def test_missing_problem_section_rejected():
    with pytest.raises(ConfigError):
        parse_config({"measurement": {"position": 1.0, "time": 1.0}})


def test_invalid_problem_named_in_error(tmp_path):
    data = _load_dict(SINGLE)
    data["problem"]["diffusivity"] = -0.1
    with pytest.raises(ConfigError) as exc_info:
        parse_config(data)
    assert "diffusivity" in str(exc_info.value)


# ------------------------------------------------------------- points

def test_parse_points_inline():
    assert parse_points("0.5,1.0;1.5,2.0") == [(0.5, 1.0), (1.5, 2.0)]


def test_parse_points_file(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# comment\n0.5,1.0\n\n1.5,2.0\n", encoding="utf-8")
    assert parse_points(str(path)) == [(0.5, 1.0), (1.5, 2.0)]


def test_parse_points_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_points("0.5")
    with pytest.raises(ConfigError):
        parse_points("a,b")
    with pytest.raises(ConfigError):
        parse_points("   ")


# ------------------------------------------------------------ forward

def test_forward_reference_row():
    config = load_config(SINGLE)
    text = cmd_forward(config, [(math.pi / 4, 2.0)])
    header, row = text.strip().splitlines()
    assert header == "x,t,u"
    u = float(row.split(",")[2])
    assert abs(u - 0.25818) <= 5e-5


def test_forward_boundary_row_is_zero():
    config = load_config(SINGLE)
    text = cmd_forward(config, [(0.0, 1.0)])
    assert text.strip().splitlines()[1].split(",")[2] == "0"


def test_forward_requires_alpha(tmp_path):
    data = _load_dict(SINGLE)
    del data["alpha"]
    config = parse_config(data)
    with pytest.raises(ConfigError) as exc_info:
        cmd_forward(config, [(0.5, 1.0)])
    assert "alpha" in str(exc_info.value)


def test_forward_preserves_input_order():
    config = load_config(SINGLE)
    pts = [(1.0, 2.0), (0.5, 1.0), (2.0, 3.0)]
    rows = cmd_forward(config, pts).strip().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 0.5, 2.0]


# ------------------------------------------------------------- invert

def test_invert_reference_outputs():
    text, code = cmd_invert(load_config(SINGLE))
    assert code == EXIT_OK
    fields = dict(line.split(" = ", 1) for line in text.strip().splitlines()
                  if " = " in line)
    assert abs(float(fields["alpha_hat"]) - 0.75) <= 2e-3
    assert fields["monotone"] == "verified"
    assert fields["uniqueness_hypothesis"] == "true"
    assert fields["unique"] == "true"


def test_invert_extra_measurements(tmp_path):
    data = _load_dict(SINGLE)
    data["measurement"]["extra"] = [[4.0, 0.2]]
    text, code = cmd_invert(parse_config(data))
    assert code == EXIT_OK
    assert "extra_residual t=4 " in text


@pytest.mark.parametrize("entry, message", [
    ([50.0, 0.9], "bad entry [50.0, 0.9] under 'extra': time 50.0 not inside (0, 20.0]"),
    ([math.nan, 0.9], "bad entry [nan, 0.9] under 'extra': time nan not inside (0, 20.0]"),
    ([-1.0, 0.9], "bad entry [-1.0, 0.9] under 'extra': time -1.0 not inside (0, 20.0]"),
    ([0, 0.9], "bad entry [0, 0.9] under 'extra': time 0.0 not inside (0, 20.0]"),
    ([5.0, math.inf], "bad entry [5.0, inf] under 'extra': value inf is not finite"),
    ([5.0, math.nan], "bad entry [5.0, nan] under 'extra': value nan is not finite"),
], ids=["time-past-horizon", "time-nan", "time-negative", "time-zero", "value-inf", "value-nan"])
def test_extra_entry_refused_before_inversion(tmp_path, capsys, monkeypatch, entry, message):
    # each extra entry is checked as the primary measurement is: a time in
    # (0, time_horizon] and a finite value, and the refusal names the entry
    monkeypatch.setattr("fracorder.cli.invert_order",
                        lambda *args: pytest.fail("the inversion ran"))
    data = _load_dict(TWO)
    data["measurement"]["extra"] = [[4.0, 0.2], entry]
    assert main(["invert", "--config", _write(tmp_path, data)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_extra_entry_at_the_horizon_accepted():
    data = _load_dict(TWO)
    data["measurement"]["extra"] = [[20.0, 0.9]]
    assert parse_config(data).extra_measurements == ((20.0, 0.9),)


# -------------------------------------------------------------- curve

def test_curve_endpoint_rows_and_shape():
    config = load_config(SINGLE)
    lines = cmd_curve(config).strip().splitlines()
    assert lines[0].startswith("# endpoint alpha=0")
    assert lines[1].startswith("# endpoint alpha=1")
    f0_minus_d = float(lines[0].rsplit("=", 1)[1])
    f1_minus_d = float(lines[1].rsplit("=", 1)[1])
    assert abs(f0_minus_d - (5.0 / 14.0 - 0.25818)) <= 1e-12
    assert abs(f1_minus_d - (0.5 * math.exp(-0.8) - 0.25818)) <= 1e-12
    assert lines[2] == "alpha,F_minus_d"
    assert len(lines) == 3 + 99


def test_curve_scan_points_override():
    config = load_config(SINGLE)
    lines = cmd_curve(config, scan_points=9).strip().splitlines()
    assert len(lines) == 3 + 9


def test_curve_deterministic():
    config = load_config(TWO)
    assert cmd_curve(config) == cmd_curve(config)


# ------------------------------------------------------- main / exits

def test_main_invert_ok(capsys):
    assert main(["invert", "--config", str(SINGLE)]) == EXIT_OK
    assert "alpha_hat" in capsys.readouterr().out


def test_main_no_root_exit(tmp_path, capsys):
    data = _load_dict(SINGLE)
    data["measurement"]["value"] = 10.0
    code = main(["invert", "--config", _write(tmp_path, data)])
    assert code == EXIT_NO_ROOT
    assert "no root in range" in capsys.readouterr().out


def test_main_multi_root_exit(tmp_path, capsys):
    code = main(["invert", "--config", _write(tmp_path, MIXED_SIGN_CONFIG)])
    assert code == EXIT_MULTI_ROOT
    out = capsys.readouterr().out
    assert "unique = false" in out
    assert len(out.split("roots = ")[1].splitlines()[0].split()) == 2


def test_main_underflowed_argument_exits_4_without_traceback(tmp_path):
    # D*lambda_1*t1**alpha underflows to 0 at every order: F(alpha) = d, each
    # scanned order is a root and the slope is 0, where the order derivative
    # used to end the process with a math domain error
    data = {"problem": {"diffusivity": 5e-324, "length": math.pi, "modes": [[1, 1.0]],
                        "time_horizon": 2.0},
            "measurement": {"position": 1.0, "time": 1e-310, "value": 0.8414709848078965}}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fracorder.cli", "invert", "--config", _write(tmp_path, data)],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == EXIT_MULTI_ROOT
    assert result.stderr == ""
    assert "derivative_at_root = 0" in result.stdout and "unique = false" in result.stdout


def test_main_config_error_exits_2(tmp_path, capsys):
    data = _load_dict(SINGLE)
    data["problem"]["diffusivity"] = -0.1
    code = main(["invert", "--config", _write(tmp_path, data)])
    assert code == EXIT_CONFIG
    assert "diffusivity" in capsys.readouterr().err


def test_main_unknown_key_exits_2(tmp_path, capsys):
    data = _load_dict(SINGLE)
    data["problem"]["speed"] = 3.0
    code = main(["forward", "--config", _write(tmp_path, data), "--points", "0.5,1"])
    assert code == EXIT_CONFIG
    assert "speed" in capsys.readouterr().err


def test_main_missing_config_exits_2(tmp_path, capsys):
    code = main(["invert", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG


def test_main_bad_points_exits_2(capsys):
    code = main(["forward", "--config", str(SINGLE), "--points", "nonsense"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("section, key, value, message", [
    ("problem", "modes", [[None, 0.5]], "mode entry [None, 0.5]"),
    ("problem", "modes", [[math.nan, 0.5]], "mode entry [nan, 0.5]"),
    ("problem", "modes", [[math.inf, 0.5]], "mode entry [inf, 0.5]"),
    ("problem", "modes", [[2, "x"]], "needs a finite real amplitude"),
    ("measurement", "value", math.nan, "measurement value nan is not finite"),
    ("inverse", "use_newton", False, "unknown key 'use_newton' in section 'inverse'"),
    ("inverse", "root_tol", True, "root_tol must be a real number, got True"),
    ("inverse", "alpha_lo", "0.1", "alpha_lo must be a real number, got '0.1'"),
    ("inverse", "scan_points", 99.0, "scan_points must be an integer >= 9, got 99.0"),
    ("inverse", "max_iters", 200, "unknown key 'max_iters' in section 'inverse'"),
    ("inverse", "root_tol", 1e-16, "root_tol must be finite and at least 1e-15, got 1e-16"),
    # JSON integers past the double range
    ("problem", "diffusivity", 10**400,
     "key 'diffusivity' in section 'problem' lies past the double range"),
    ("problem", "modes", [[1, 10**400]], "needs a finite real amplitude"),
    ("measurement", "position", 10**400,
     "key 'position' in section 'measurement' lies past the double range"),
    ("measurement", "extra", [[10**400, 0.1]], "an entry under 'extra' lies past the double range"),
    (None, "alpha", 10**400, "key 'alpha' in section '(top level)' lies past the double range"),
    # mode indices whose rate D*(n*pi/length)**2 overflows
    ("problem", "modes", [[10**300, 0.5]], "lies past the double range"),
    ("problem", "modes", [[10**400, 0.5]], "lies past the double range"),
], ids=["index-null", "index-nan", "index-inf", "amplitude-string", "value-nan",
        "use_newton", "root_tol-bool", "alpha_lo-string", "scan_points-float",
        "max_iters", "root_tol-below-floor", "diffusivity-huge", "amplitude-huge",
        "position-huge", "extra-huge", "alpha-huge", "index-rate-overflow",
        "index-huge"])
def test_main_malformed_input_exits_2(tmp_path, capsys, section, key, value, message):
    data = _load_dict(SINGLE)
    (data if section is None else data.setdefault(section, {}))[key] = value
    assert main(["invert", "--config", _write(tmp_path, data)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_main_integer_past_digit_limit_exits_2(tmp_path, capsys):
    # a JSON integer over 4300 digits makes json.loads raise a plain
    # ValueError, not a JSONDecodeError
    text = json.dumps(_load_dict(SINGLE)).replace('"diffusivity": 0.1',
                                                  '"diffusivity": 1' + "0" * 5000)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["invert", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and "cannot be decoded" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, key, value, message", [
    ("problem", "diffusivity", [10**5000], "must be a number, got <unprintable list>"),
    ("problem", "modes", [[1, 10**5000]], "mode entry <unprintable list>"),
    ("measurement", "extra", [[10**5000]], "bad entry <unprintable list> under 'extra'"),
    ("output", "format", 10**5000, "unsupported output format <unprintable int>"),
], ids=["number", "mode", "extra", "format"])
def test_parse_config_refuses_unprintable_values(section, key, value, message):
    # values whose repr raises ValueError (ints past str()'s 4300-digit limit)
    # still give a ConfigError; they can reach parse_config from Python
    data = _load_dict(SINGLE)
    data.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(data)


def test_main_rel_tol_override_checked(capsys):
    # --rel-tol goes through InverseConfig._replace, which checks it
    assert main(["invert", "--config", str(TWO), "--rel-tol", "1e-20"]) == EXIT_CONFIG
    assert "f_rel_tol must lie in" in capsys.readouterr().err
    assert main(["forward", "--config", str(SINGLE), "--points", "0.5,1.0",
                 "--rel-tol", "-1"]) == EXIT_CONFIG
    assert "evaluate_solution: rel_tol must lie in" in capsys.readouterr().err


def test_main_unreadable_points_exits_2(tmp_path, capsys):
    binary = tmp_path / "points.bin"
    binary.write_bytes(b"\xff\xfe0.5,1")
    for source in (CONFIG_DIR, binary):
        code = main(["forward", "--config", str(SINGLE), "--points", str(source)])
        assert code == EXIT_CONFIG
        assert "cannot read points" in capsys.readouterr().err


def test_main_long_inline_points_match_file(tmp_path):
    # an inline string past the usual file-name limit of 255 bytes is still points
    inline = ";".join(f"{0.1 * k + 0.05:.6f},{0.5 + 0.1 * k:.6f}" for k in range(30))
    assert len(inline) > 255
    points_file = tmp_path / "points.txt"
    points_file.write_text(inline.replace(";", "\n"), encoding="utf-8")
    outputs = []
    for source in (inline, str(points_file)):
        out = tmp_path / f"out{len(outputs)}.csv"
        assert main(["forward", "--config", str(SINGLE), "--points", source,
                     "--output", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 31


def test_main_undecodable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["invert", "--config", str(path)]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_main_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code = main(["invert", "--config", str(SINGLE), "--output", str(target)])
    assert code == EXIT_CONFIG
    assert "cannot write output" in capsys.readouterr().err
    assert not target.parent.exists()


def test_main_selfcheck_ok(capsys):
    assert main(["selfcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS overall" in out
    assert "FAIL" not in out


def test_main_selfcheck_fault_hook(monkeypatch, capsys):
    failing = ("always_fails", lambda: (1.0, 0.0))
    monkeypatch.setattr(selfcheck, "CHECKS", selfcheck.CHECKS + (failing,))
    assert main(["selfcheck"]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "FAIL always_fails" in out
    assert "FAIL overall" in out


def test_main_selfcheck_refuses_rel_tol(capsys):
    # the checks fix their own tolerances; an ignored override would mislead
    with pytest.raises(SystemExit) as exc_info:
        main(["selfcheck", "--rel-tol", "1e-8"])
    assert exc_info.value.code == EXIT_CONFIG
    assert "--rel-tol" in capsys.readouterr().err


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def test_main_output_files_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["curve", "--config", str(SINGLE), "--output", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_main_rel_tol_override(tmp_path):
    out = tmp_path / "fwd.csv"
    code = main(["forward", "--config", str(SINGLE), "--points", "0.5,1.0",
                 "--rel-tol", "1e-8", "--output", str(out)])
    assert code == EXIT_OK
    assert out.exists()


def test_config_output_path_used(tmp_path):
    data = _load_dict(SINGLE)
    target = tmp_path / "from_config.csv"
    data["output"] = {"path": str(target), "format": "csv"}
    code = main(["curve", "--config", _write(tmp_path, data)])
    assert code == EXIT_OK
    assert target.exists()


# ------------------------------------------------------- golden outputs

@pytest.mark.parametrize("config", [SINGLE, TWO], ids=["single_mode", "two_mode"])
@pytest.mark.parametrize("command, golden", [
    (["invert"], "invert.txt"),
    (["curve"], "curve.csv"),
    (["forward", "--points", "0.785398163,2;0,1;1.5,3"], "forward.csv"),
], ids=["invert", "curve", "forward"])
def test_main_output_matches_golden(config, command, golden, capsys):
    # golden files hold the bundled configs' output, so any change to a
    # reported number, down to the last of 17 digits, shows here
    argv = command[:1] + ["--config", str(config)] + command[1:]
    assert main(argv) == EXIT_OK
    expected = (GOLDEN_DIR / f"{config.stem}_{golden}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# ------------------------------------------------------------- imports

def test_cli_import_loads_no_scipy():
    # Gamma, psi and log Gamma are ports: no import of the CLI reaches scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, fracorder.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy(tmp_path):
    # the CLI and the inverse path use the standard library alone: numpy
    # serves only evaluate_solution_grid and sine_coefficient, the records are
    # named tuples (no dataclasses, inspect or typing), no module imports
    # __future__, and selfcheck loads only for its own command.  -S keeps
    # site out, whose .pth files can import typing themselves; PYTHONPATH
    # still applies
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    output = tmp_path / "invert.txt"
    argv = ["invert", "--config", str(TWO), "--output", str(output)]
    banned = ("numpy", "scipy", "dataclasses", "inspect", "typing", "__future__",
              "fracorder.selfcheck")
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, fracorder.cli; "
                                     f"code = fracorder.cli.main({argv!r}); "
                                     "print(code, sorted(m for m in sys.modules if any("
                                     f"m == b or m.startswith(b + '.') for b in {banned!r})))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 []"
    assert output.read_text() == (GOLDEN_DIR / "two_mode_invert.txt").read_text()
