"""Configuration-driven command-line front end.

Four subcommands: `forward` evaluates the solution at given space-time
points, `invert` recovers the order from the configured measurement,
`curve` exports the measurement-residual curve as CSV (the data behind a
root plot), and `selfcheck` runs the built-in verification suite.

Config files are JSON with sections `problem`, `measurement`, `inverse`,
`output`, plus an optional top-level `alpha` (the known order used by
forward runs).  Unknown keys are rejected by name.  CSV output uses 17
significant digits so round trips are lossless.

Exit codes: 0 success, 1 selfcheck/runtime failure, 2 config or input
error (also an unreadable points file or an unwritable output path),
3 no root in range, 4 non-unique root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import AccuracyError, ConfigError, DomainError, NoRootError
from .forward import ForwardProblem, _not_real, evaluate_solution, make_problem
from .inverse import (InverseConfig, Measurement, endpoint_values, invert_order,
                      scan_bracket)
from .selfcheck import run_selfcheck

_PROBLEM_KEYS = {"diffusivity", "length", "modes", "time_horizon"}
_MEASUREMENT_KEYS = {"position", "time", "value", "extra"}
_INVERSE_KEYS = {field.name for field in dataclasses.fields(InverseConfig)}
_OUTPUT_KEYS = {"path", "format"}
_TOP_KEYS = {"alpha", "problem", "measurement", "inverse", "output"}

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NO_ROOT = 3
EXIT_MULTI_ROOT = 4


@dataclass
class RunConfig:
    problem: ForwardProblem
    measurement: Measurement | None
    extra_measurements: tuple[tuple[float, float], ...]
    inverse: InverseConfig
    alpha: float | None
    output_path: str | None


def _reject_unknown(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{section}' must be an object, got {type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section '{section}'")


def _number(section, mapping, key, required=True):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing key '{key}' in section '{section}'")
        return None
    value = mapping[key]
    if _not_real(value):
        raise ConfigError(f"key '{key}' in section '{section}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"key '{key}' in section '{section}' lies past the double range") from None


def parse_config(data):
    """Validate a decoded JSON object into a RunConfig."""
    _reject_unknown("(top level)", data, _TOP_KEYS)
    if "problem" not in data:
        raise ConfigError("missing section 'problem'")
    prob = data["problem"]
    _reject_unknown("problem", prob, _PROBLEM_KEYS)
    for key in ("diffusivity", "length", "time_horizon"):
        _number("problem", prob, key)
    if "modes" not in prob or not isinstance(prob["modes"], list):
        raise ConfigError("key 'modes' in section 'problem' must be a list of [index, amplitude] pairs")
    try:
        problem = make_problem(prob["diffusivity"], prob["length"], prob["modes"],
                               prob["time_horizon"])
    except DomainError as exc:
        raise ConfigError(f"invalid 'problem' section: {exc}") from exc

    measurement = None
    extra = ()
    if "measurement" in data:
        meas = data["measurement"]
        _reject_unknown("measurement", meas, _MEASUREMENT_KEYS)
        position = _number("measurement", meas, "position")
        time = _number("measurement", meas, "time")
        value = _number("measurement", meas, "value", required=False)
        measurement = Measurement(position, time, value)
        if "extra" in meas:
            if not isinstance(meas["extra"], list):
                raise ConfigError("key 'extra' in section 'measurement' must be a list of [time, value] pairs")
            rows = []
            for entry in meas["extra"]:
                if not isinstance(entry, list) or len(entry) != 2 or any(map(_not_real, entry)):
                    raise ConfigError(f"bad entry {entry!r} under 'extra': expected [time, value]")
                try:
                    rows.append((float(entry[0]), float(entry[1])))
                except OverflowError:
                    raise ConfigError("an entry under 'extra' lies past the double range") from None
            extra = tuple(rows)

    inverse_section = data.get("inverse", {})
    _reject_unknown("inverse", inverse_section, _INVERSE_KEYS)
    try:
        inverse = InverseConfig(**inverse_section)
    except DomainError as exc:
        raise ConfigError(f"invalid 'inverse' section: {exc}") from exc

    alpha = _number("(top level)", data, "alpha", required=False)

    output_path = None
    if "output" in data:
        out = data["output"]
        _reject_unknown("output", out, _OUTPUT_KEYS)
        if out.get("path") is not None:
            if not isinstance(out["path"], str):
                raise ConfigError(f"key 'path' in section 'output' must be a string")
            output_path = out["path"]
        if "format" in out and out["format"] != "csv":
            raise ConfigError(f"unsupported output format {out['format']!r} (only 'csv')")

    return RunConfig(problem, measurement, extra, inverse, alpha, output_path)


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return parse_config(data)


def _fmt(value):
    return f"{value:.17g}"


def parse_points(source):
    """Points from a file path or an inline 'x,t[;x,t...]' string."""
    try:
        text = (Path(source).read_text(encoding="utf-8") if Path(source).exists()
                else source.replace(";", "\n"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read points {source!r}: {exc}") from exc
    points = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"bad point {line!r}: expected 'x,t'")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"bad point {line!r}: {exc}") from exc
    if not points:
        raise ConfigError("no evaluation points given")
    return points


def cmd_forward(config, points, rel_tol=None):
    """CSV rows (x, t, u) at the configured forward order."""
    if config.alpha is None:
        raise ConfigError("missing key 'alpha' (the forward order) in the config")
    rel_tol = 1e-10 if rel_tol is None else rel_tol
    lines = ["x,t,u"]
    for x, t in points:
        u = evaluate_solution(config.problem, config.alpha, x, t, rel_tol=rel_tol)
        lines.append(f"{_fmt(x)},{_fmt(t)},{_fmt(u)}")
    return "\n".join(lines) + "\n"


def _inverse_config(config, rel_tol=None, scan_points=None):
    updates = {}
    if rel_tol is not None:
        updates["f_rel_tol"] = rel_tol
    if scan_points is not None:
        updates["scan_points"] = scan_points
    return dataclasses.replace(config.inverse, **updates) if updates else config.inverse


def cmd_invert(config, rel_tol=None):
    """Inversion report as 'key = value' text plus an exit code."""
    if config.measurement is None or config.measurement.value is None:
        raise ConfigError("missing measurement 'value' in the config (required by invert)")
    inv = _inverse_config(config, rel_tol)
    try:
        report = invert_order(config.problem, config.measurement, inv)
    except NoRootError as exc:
        return f"{exc}\n", EXIT_NO_ROOT
    lines = [
        f"alpha_hat = {_fmt(report.alpha_hat)}",
        f"residual = {_fmt(report.residual)}",
        f"derivative_at_root = {_fmt(report.derivative_at_root)}",
        f"sensitivity = {_fmt(report.sensitivity)}",
        f"monotone = {report.monotone}",
        f"uniqueness_hypothesis = {'true' if report.uniqueness_hypothesis else 'false'}",
        f"unique = {'true' if report.unique else 'false'}",
        f"roots = {' '.join(_fmt(r) for r in report.roots)}",
        f"iterations = {report.iterations}",
    ]
    for t, v in config.extra_measurements:
        u = evaluate_solution(config.problem, report.alpha_hat, config.measurement.position,
                              t, rel_tol=inv.f_rel_tol)
        lines.append(f"extra_residual t={_fmt(t)} value={_fmt(v)} model={_fmt(u)} "
                     f"residual={_fmt(u - v)}")
    return "\n".join(lines) + "\n", EXIT_OK if report.unique else EXIT_MULTI_ROOT


def cmd_curve(config, scan_points=None, rel_tol=None):
    """CSV of (alpha, F(alpha)-d) plus annotated closed-form endpoint rows."""
    if config.measurement is None or config.measurement.value is None:
        raise ConfigError("missing measurement 'value' in the config (required by curve)")
    inv = _inverse_config(config, rel_tol, scan_points)
    f0, f1 = endpoint_values(config.problem, config.measurement)
    d = config.measurement.value
    scan = scan_bracket(config.problem, config.measurement, inv)
    lines = [
        f"# endpoint alpha=0 F_minus_d = {_fmt(f0 - d)}",
        f"# endpoint alpha=1 F_minus_d = {_fmt(f1 - d)}",
        "alpha,F_minus_d",
    ]
    for alpha, value in zip(scan.alphas, scan.values):
        lines.append(f"{_fmt(float(alpha))},{_fmt(float(value))}")
    return "\n".join(lines) + "\n"


def cmd_selfcheck():
    lines, ok = run_selfcheck()
    return "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_FAILURE


def _emit(text, cli_output, config):
    path = cli_output if cli_output is not None else (config.output_path if config else None)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracorder",
        description="Forward evaluation and order identification for 1-D "
                    "time-fractional diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write results to this path instead of stdout")
    common.add_argument("--rel-tol", type=float, default=None,
                        help="override the evaluation tolerance")

    p_forward = sub.add_parser("forward", parents=[common],
                               help="evaluate u(x, t) at given points")
    p_forward.add_argument("--config", required=True)
    p_forward.add_argument("--points", required=True,
                           help="file of 'x,t' lines, or inline 'x,t;x,t;...'")

    p_invert = sub.add_parser("invert", parents=[common],
                              help="recover the order from the configured measurement")
    p_invert.add_argument("--config", required=True)

    p_curve = sub.add_parser("curve", parents=[common],
                             help="export the F(alpha)-d scan as CSV")
    p_curve.add_argument("--config", required=True)
    p_curve.add_argument("--scan-points", type=int, default=None)

    sub.add_parser("selfcheck", parents=[common], help="run the built-in verification suite")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selfcheck":
            text, code = cmd_selfcheck()
            _emit(text, args.output, None)
            return code
        config = load_config(args.config)
        if args.command == "forward":
            text = cmd_forward(config, parse_points(args.points), args.rel_tol)
            code = EXIT_OK
        elif args.command == "invert":
            text, code = cmd_invert(config, args.rel_tol)
        else:
            text = cmd_curve(config, args.scan_points, args.rel_tol)
            code = EXIT_OK
        _emit(text, args.output, config)
        return code
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AccuracyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
