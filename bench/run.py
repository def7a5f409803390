#!/usr/bin/env python3
"""fracorder benchmark: one workload per run, calibrated times, oracle checks.

    python3 bench/run.py --workload invert --seed 1 --seconds 10 --trace 0

Workloads: invert, invert_mixed, grid, cli (see bench/README.md); without
--workload all four run in turn, each in its own process.  With
--trace 0 the run measures end-to-end metrics; with --trace 1 it traces a
fixed number of rounds and reports per-layer metrics.  The last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
The run exits with code 2, printing no result, when this checkout has no
src/fracorder to measure or fracorder is imported from anywhere else.
"""

import os

# one thread per native pool: the process and its pools stay within 2 cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
from calibrate import NOMINAL_LOOP_S, NOMINAL_PROCESS_S, Calibration  # noqa: E402

MIN_OPS = 40          # the tail percentile needs ten operations beyond it
SETUP_PROBES = 7
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
# rounds a traced run covers, whatever --seconds says, so counts repeat
TRACE_ROUNDS = {"invert": 25, "invert_mixed": 25, "grid": 2, "cli": 3}
# |F(root) - d| and |d - oracle| limits, relative to sum_n |a_n sin(n x0)|
ROOT_RESIDUAL_TOL = 1e-9
VALUE_TOL = 2e-10
ALPHA_TOL = 1e-7
# just over one cell of the default 99-point scan on [0.001, 0.999]
SIMPLE_ROOT_DELTA = 0.0102


def fail_setup(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_checkout_fracorder():
    """Import fracorder from this checkout's src/ and nowhere else."""
    if not (SRC / "fracorder" / "__init__.py").is_file():
        fail_setup(f"no fracorder package under {SRC}; nothing to measure")
    sys.path.insert(0, str(SRC))
    import fracorder
    if not Path(fracorder.__file__).resolve().is_relative_to(SRC.resolve()):
        fail_setup(f"fracorder was imported from {fracorder.__file__}, not from {SRC}")
    return fracorder


def child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


# --------------------------------------------------------------------------
# workloads


def _problem(fracorder, case):
    return fracorder.make_problem(case.diffusivity, cases.PI, case.modes, case.t1)


def _scale(case):
    return sum(abs(a * math.sin(n * case.x0)) for n, a in case.modes)


class Workload:
    """Builds rounds of inputs (untimed), runs one operation (timed) and
    checks one output (after the timed loop)."""

    in_process = True

    def __init__(self, fracorder, rng):
        self.fr = fracorder
        self.rng = rng

    def summary(self, records):
        return ""

    def cleanup(self):
        pass


class InvertWorkload(Workload):
    """invert_order on one seeded case; `d` is computed while building inputs."""

    mixed = False

    def __init__(self, fracorder, rng):
        super().__init__(fracorder, rng)
        self.redrawn = 0

    def _simple_root(self, case):
        """F - d changes sign across alpha +- SIMPLE_ROOT_DELTA; else count a redraw."""
        problem = _problem(self.fr, case)
        f = [self.fr.evaluate_solution(problem, a, case.x0, case.t1)
             for a in (case.alpha - SIMPLE_ROOT_DELTA, case.alpha, case.alpha + SIMPLE_ROOT_DELTA)]
        simple = (f[0] - f[1]) * (f[2] - f[1]) < 0.0
        self.redrawn += not simple
        return simple

    def next_round(self):
        if self.mixed:
            drawn = cases.mixed_round(self.rng, self._simple_root)
        else:
            drawn = cases.invert_round(self.rng)
        items = []
        for case in drawn:
            problem = _problem(self.fr, case)
            d = self.fr.evaluate_solution(problem, case.alpha, case.x0, case.t1)
            items.append((case, problem, self.fr.Measurement(case.x0, case.t1, d)))
        return items

    def run(self, item):
        _, problem, measurement = item
        report = self.fr.inverse.invert_order(problem, measurement)
        return report.roots, report.unique, report.uniqueness_hypothesis

    def check(self, item, output, oracle):
        case, _, measurement = item
        roots, unique, hypothesis = output
        d = measurement.value
        scale = _scale(case)
        exact = oracle.measurement_value(case.alpha, case.diffusivity, cases.PI, case.modes,
                                         case.x0, case.t1)
        if abs(d - exact) > VALUE_TOL * scale:
            return f"d = {d!r} but the oracle gives {exact!r}"
        if unique != (len(roots) == 1):
            return f"unique = {unique} with roots {roots}"
        if not self.mixed:
            if len(roots) != 1 or abs(roots[0] - case.alpha) > ALPHA_TOL:
                return f"roots {roots} for true order {case.alpha!r}"
            if not hypothesis:
                return "uniqueness_hypothesis false on a same-sign case"
            return None
        if hypothesis:
            return "uniqueness_hypothesis true on an opposed-sign case"
        if min(abs(r - case.alpha) for r in roots) > ALPHA_TOL:
            return f"no root of {roots} within {ALPHA_TOL} of true order {case.alpha!r}"
        for r in roots:
            value = oracle.measurement_value(r, case.diffusivity, cases.PI, case.modes,
                                             case.x0, case.t1)
            if abs(value - d) > ROOT_RESIDUAL_TOL * scale:
                return f"root {r!r}: oracle F - d = {value - d:.3e}"
        return None

    def summary(self, records):
        if not self.mixed:
            return ""
        two = sum(1 for r in records if r["output"] and len(r["output"][0]) > 1)
        return (f"two-root share {two}/{len(records)} = {two / len(records):.4f}; "
                f"{self.redrawn} draws redrawn as not a simple root")


class MixedWorkload(InvertWorkload):
    mixed = True


class GridWorkload(Workload):
    """evaluate_solution_grid, 41 x 40, both walls included, one seeded order."""

    def next_round(self):
        items = []
        for case in cases.grid_round(self.rng):
            xs, ts = cases.grid_axes(case.t1)
            items.append((case, _problem(self.fr, case), xs, ts))
        return items

    def run(self, item):
        case, problem, xs, ts = item
        return self.fr.forward.evaluate_solution_grid(problem, case.alpha, xs, ts)

    def check(self, item, output, oracle):
        case, _, xs, ts = item
        if output.shape != (len(xs), len(ts)):
            return f"grid shape {output.shape}"
        if any(v != 0.0 for v in output[0]) or any(v != 0.0 for v in output[-1]):
            return "a wall row is not exactly 0.0"
        factors = oracle.time_factors(case.alpha, case.diffusivity, cases.PI,
                                      [n for n, _ in case.modes], ts)
        scale = sum(abs(a) for _, a in case.modes)
        for i, x in enumerate(xs[1:-1], start=1):
            weights = [a * math.sin(n * x) for n, a in case.modes]
            for j in range(len(ts)):
                exact = sum(w * row[j] for w, row in zip(weights, factors))
                if abs(output[i, j] - exact) > VALUE_TOL * scale:
                    return f"cell ({x!r}, {ts[j]!r}) = {output[i, j]!r}, oracle {exact!r}"
        return None


class CliWorkload(Workload):
    """One `fracorder invert` process per operation, run from the checkout."""

    in_process = False

    def __init__(self, fracorder, rng, seed, tracer=None):
        super().__init__(fracorder, rng)
        self.seed = seed
        self.tracer = tracer
        self.written = []
        self.child_rss_kb = 0

    def _config(self, entry):
        """(path, problem data, d) for a bundled path or a seeded Case."""
        if isinstance(entry, str):
            path = ROOT / entry
            data = json.loads(path.read_text(encoding="utf-8"))
        else:
            case = entry
            problem = _problem(self.fr, case)
            d = self.fr.evaluate_solution(problem, case.alpha, case.x0, case.t1)
            data = {"alpha": case.alpha,
                    "problem": {"diffusivity": case.diffusivity, "length": cases.PI,
                                "modes": [list(m) for m in case.modes],
                                "time_horizon": case.t1},
                    "measurement": {"position": case.x0, "time": case.t1, "value": d},
                    "inverse": {}, "output": {"path": None, "format": "csv"}}
            path = RESULTS / "tmp" / f"cli-seed{self.seed}-{len(self.written)}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(data), encoding="utf-8")
            self.written.append(path)
        return path, data

    def next_round(self):
        return [self._config(entry) for entry in cases.cli_round(self.rng)]

    def run(self, item):
        path, _ = item
        tmp = RESULTS / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        out_path, err_path, spans_path = (tmp / f"child-{self.seed}.{s}"
                                          for s in ("out", "err", "spans"))
        cmd = [sys.executable, str(BENCH / "cli_child.py")]
        if self.tracer is not None:
            cmd += ["--spans", str(spans_path)]
        cmd += ["invert", "--config", str(path)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
            try:
                # wait4, not wait: it also gives the child's peak memory
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
        child.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        stdout = out_path.read_text(encoding="utf-8")
        stderr = err_path.read_text(encoding="utf-8")
        if self.tracer is not None and spans_path.exists():
            self.tracer.extend(json.loads(spans_path.read_text(encoding="utf-8")),
                               self.tracer.op)
            spans_path.unlink()
        return child.returncode, stdout, stderr

    def check(self, item, output, oracle):
        _, data = item
        code, stdout, stderr = output
        loaded = [line.split(": ", 1)[1] for line in stderr.splitlines()
                  if line.startswith("bench-fracorder-file: ")]
        if not loaded or not Path(loaded[0]).resolve().is_relative_to(SRC.resolve()):
            return f"child loaded fracorder from {loaded or 'nowhere'}, not {SRC}"
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        values = [line.split("=", 1)[1] for line in stdout.splitlines()
                  if line.startswith("alpha_hat =")]
        if len(values) != 1:
            return f"no alpha_hat line in {stdout[:200]!r}"
        alpha_hat = float(values[0])
        prob, meas = data["problem"], data["measurement"]
        modes = [tuple(m) for m in prob["modes"]]
        value = oracle.measurement_value(alpha_hat, prob["diffusivity"], prob["length"], modes,
                                         meas["position"], meas["time"])
        scale = sum(abs(a * math.sin(n * math.pi * meas["position"] / prob["length"]))
                    for n, a in modes)
        if abs(value - meas["value"]) > ROOT_RESIDUAL_TOL * scale:
            return f"alpha_hat {alpha_hat!r}: oracle F - d = {value - meas['value']:.3e}"
        return None

    def cleanup(self):
        for path in self.written:
            path.unlink(missing_ok=True)
        for suffix in ("out", "err", "spans"):
            (RESULTS / "tmp" / f"child-{self.seed}.{suffix}").unlink(missing_ok=True)


WORKLOADS = ("invert", "invert_mixed", "grid", "cli")


def make_workload(name, fracorder, seed, tracer=None):
    rng = random.Random(f"{name}:{seed}")
    if name == "invert":
        return InvertWorkload(fracorder, rng)
    if name == "invert_mixed":
        return MixedWorkload(fracorder, rng)
    if name == "grid":
        return GridWorkload(fracorder, rng)
    return CliWorkload(fracorder, rng, seed, tracer)


# --------------------------------------------------------------------------
# measurement


def measure(workload, first_round, calibration, seconds, rounds=None, tracer=None):
    """Run whole rounds until `seconds` have passed and MIN_OPS operations are
    done, or exactly `rounds` rounds.  Returns one record per operation and
    the number of rounds.  In-process operations are calibrated by the
    sampler running during them, child processes by reference processes."""
    in_process = workload.in_process
    records = []
    batch = first_round
    done_rounds = 0
    start = time.perf_counter()
    if in_process:
        calibration.start()
    try:
        while True:
            for item in batch:
                mark = None
                if not in_process:
                    calibration.maybe_sample_process()
                    mark = calibration.process_mark()
                if tracer is not None:
                    tracer.op = len(records)
                t0 = time.perf_counter_ns()
                try:
                    output, error = workload.run(item), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    output, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter_ns()
                if tracer is not None:
                    tracer.op = -1  # work between operations is not traced
                records.append({"item": item, "output": output, "error": error,
                                "span": (t0, t1), "mark": mark})
            done_rounds += 1
            if rounds is not None:
                if done_rounds >= rounds:
                    break
            elif time.perf_counter() - start >= seconds and len(records) >= MIN_OPS:
                break
            batch = workload.next_round()
    finally:
        if in_process:
            calibration.stop()
    if in_process:
        calibration.sample_now()
    else:
        calibration.sample_process()
    for record in records:
        t0, t1 = record["span"]
        if in_process:
            record["raw_s"] = calibration.net_ns(t0, t1) / 1e9
            record["factor"] = calibration.factor(t0, t1)
        else:
            record["raw_s"] = (t1 - t0) / 1e9
            record["factor"] = calibration.process_factor(record["mark"])
    return records, done_rounds


def tail(values):
    """(value, percentile) of the highest percentile with ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_children(cmd, count, calibration, ready_line=None):
    """Run `count` children, each after a reference process; return the raw
    seconds of each to its `ready_line` (or to its exit), the calibration
    factor of the batch (from its median reference process) and the output
    of each."""
    first = calibration.process_mark()
    raw, outputs = [], []
    for _ in range(count):
        calibration.sample_process()
        elapsed, stdout = timed_child(cmd, ready_line)
        raw.append(elapsed)
        outputs.append(stdout)
    calibration.sample_process()
    factor = NOMINAL_PROCESS_S / statistics.median(calibration.process_samples[first:])
    return raw, factor, outputs


def timed_child(cmd, ready_line=None):
    """Run one child; return raw seconds to its `ready_line` (or to its exit)
    and its stdout followed by its stderr."""
    start = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             cwd=ROOT, env=child_env(), text=True)
    try:
        if ready_line is not None:
            for line in child.stdout:
                if line.strip() == ready_line:
                    break
            elapsed = time.perf_counter() - start
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        else:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - start
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"child {cmd} exited {child.returncode}: {stderr.strip()[-300:]}")
    return elapsed, stdout + stderr


def setup_times(workload_name, seed, calibration):
    """Raw and calibrated seconds from a fresh interpreter to the first operation."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe-setup",
           "--workload", workload_name, "--seed", str(seed)]
    raw, factor, _ = timed_children(cmd, SETUP_PROBES, calibration, ready_line="ready")
    return raw, [r * factor for r in raw]


IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import fracorder.cli; "
                  "print(time.perf_counter() - t)")


def import_times(calibration):
    """cli.import_ms and cli.import_scipy_ms, calibrated, median over probes."""
    _, factor, outputs = timed_children([sys.executable, "-c", IMPORT_SNIPPET],
                                        IMPORT_PROBES, calibration)
    plain = [float(out.split()[0]) * 1e3 * factor for out in outputs]
    _, factor, outputs = timed_children([sys.executable, "-X", "importtime", "-c",
                                         "import fracorder.cli"], IMPORT_PROBES, calibration)
    scipy_ms = []
    for out in outputs:
        cumulative = [int(line.split("|")[1]) for line in out.splitlines()
                      if line.startswith("import time:")
                      and line.split("|")[-1].strip() == "scipy.special"]
        scipy_ms.append(cumulative[0] / 1e3 * factor if cumulative else 0.0)
    return statistics.median(plain), statistics.median(scipy_ms)


# --------------------------------------------------------------------------
# reporting


def provenance(fracorder, seed):
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fracorder").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            sha = git.stdout.strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "seed": seed, "fracorder_file": fracorder.__file__}


def end_to_end(records, setup_raw, setup_cal, rss_mb):
    raw = [r["raw_s"] for r in records]
    cal = [r["raw_s"] * r["factor"] for r in records]
    completed = sum(1 for r in records if r["error"] is None)
    tail_cal, pct = tail(cal)
    tail_raw, _ = tail(raw)
    metrics = {
        "ops_per_s": (completed / sum(cal), completed / sum(raw), "1/s"),
        "op_p50_ms": (statistics.median(cal) * 1e3, statistics.median(raw) * 1e3, "ms"),
        "op_tail_ms": (tail_cal * 1e3, tail_raw * 1e3, "ms"),
        "setup_s": (statistics.median(setup_cal), statistics.median(setup_raw), "s"),
        "peak_rss_mb": (rss_mb, rss_mb, "MB"),
    }
    notes = {"op_tail_ms": f"p{pct:.2f} of {len(cal)} operations",
             "setup_s": f"median of {len(setup_cal)} fresh interpreters"}
    return metrics, notes


def per_layer(tracer, records, calibration, imports):
    from tracer import self_times

    ops = len(records)
    factors = [r["factor"] for r in records]
    durations = [calibration.net_ns(start, end) for _, start, end, _, _, _ in tracer.spans]
    selfs = self_times(tracer.spans, durations)
    count, self_ms, incl_ms, notes = {}, {}, {}, {}
    scan_in_invert = 0.0
    for span, own, duration in zip(tracer.spans, selfs, durations):
        name, _, _, parent, op, note = span
        if op < 0:
            continue
        f = factors[op]
        count[name] = count.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + own * f / 1e6
        incl_ms[name] = incl_ms.get(name, 0.0) + duration * f / 1e6
        if note is not None:
            notes[name] = notes.get(name, 0) + int(note)
        if name == "inverse.scan" and parent >= 0 and tracer.spans[parent][0] == "inverse.invert":
            scan_in_invert += duration * f / 1e6
    per_op = {
        "special.ml.calls": (count.get("special.ml", 0), "count"),
        "special.ml.self_ms": (self_ms.get("special.ml", 0.0), "ms"),
        "special.ml.handover_calls": (notes.get("special.ml", 0), "count"),
        "special.mld.calls": (count.get("special.mld", 0), "count"),
        "special.mld.self_ms": (self_ms.get("special.mld", 0.0), "ms"),
        "forward.point.calls": (count.get("forward.point", 0), "count"),
        "forward.point.self_ms": (self_ms.get("forward.point", 0.0), "ms"),
        "forward.grid.self_ms": (self_ms.get("forward.grid", 0.0), "ms"),
        "inverse.scan.ms": (incl_ms.get("inverse.scan", 0.0), "ms"),
        "inverse.scan.points": (notes.get("inverse.scan", 0), "count"),
        "inverse.refine.ms": (incl_ms.get("inverse.invert", 0.0) - scan_in_invert, "ms"),
        "inverse.iterations": (notes.get("inverse.invert", 0), "count"),
        "inverse.residual.calls": (count.get("inverse.residual", 0), "count"),
        "inverse.residual_derivative.calls": (count.get("inverse.residual_derivative", 0),
                                              "count"),
        "cli.main_ms": (incl_ms.get("cli.main", 0.0), "ms"),
    }
    metrics = {k: (v / ops, unit) for k, (v, unit) in per_op.items()}
    metrics["cli.import_ms"] = (imports[0], "ms")
    metrics["cli.import_scipy_ms"] = (imports[1], "ms")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn (the default)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: build the first round, print 'ready', exit")
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)

    fracorder = import_checkout_fracorder()
    import fracorder.forward
    import fracorder.inverse

    if args.probe_setup:
        workload = make_workload(args.workload, fracorder, args.seed)
        workload.next_round()
        print("ready", flush=True)
        workload.cleanup()
        return 0

    tracer = None
    if args.trace:
        import fracorder.cli
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = make_workload(args.workload, fracorder, args.seed, tracer)
    first_round = workload.next_round()
    calibration = Calibration()
    try:
        records, rounds = measure(workload, first_round, calibration, args.seconds,
                                  TRACE_ROUNDS[args.workload] if args.trace else None, tracer)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "cli":
            rss_kb = workload.child_rss_kb

        import oracle

        oracle.self_test()
        mismatches = []
        for index, record in enumerate(records):
            if record["error"] is None:
                problem = workload.check(record["item"], record["output"], oracle)
                if problem is not None:
                    mismatches.append(f"operation {index}: {problem}")
        failed = [f"operation {i}: {r['error']}" for i, r in enumerate(records) if r["error"]]

        if args.trace:
            imports = import_times(calibration)
            metrics = per_layer(tracer, records, calibration, imports)
            shown = {k: (v, None, unit) for k, (v, unit) in metrics.items()}
            notes = {}
        else:
            setup_raw, setup_cal = setup_times(args.workload, args.seed, calibration)
            shown, notes = end_to_end(records, setup_raw, setup_cal, rss_kb / 1024.0)
    finally:
        workload.cleanup()

    info = provenance(fracorder, args.seed)
    cal_ops = [r["raw_s"] * r["factor"] for r in records]
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"checkout guard: fracorder loaded from {SRC} in-process"
          + (" and in every CLI child" if args.workload == "cli" else ""))
    print("oracle self-test: mpmath series matches exp (alpha=1) and erfcx (alpha=1/2)")
    print(f"operations: attempted={len(records)} failed={len(failed)} rounds={rounds} "
          f"checked={len(records) - len(failed)} mismatches={len(mismatches)} "
          f"op_p50_ms={statistics.median(cal_ops) * 1e3:.4f}"
          + (" (traced)" if args.trace else ""))
    summary = workload.summary(records)
    if summary:
        print(f"{args.workload}: {summary}")
    for label, samples, nominal in (("loop", [s / 1e9 for s in calibration.samples_ns],
                                     NOMINAL_LOOP_S),
                                    ("process", calibration.process_samples,
                                     NOMINAL_PROCESS_S)):
        if len(samples) >= 2:
            q1, median, q3 = statistics.quantiles(samples, n=4)
            print(f"calibration: reference {label} median {median * 1e3:.4f} ms (quartiles "
                  f"{q1 * 1e3:.4f}-{q3 * 1e3:.4f}) over {len(samples)} samples; "
                  f"nominal {nominal * 1e3:.4f} ms")
    if tracer is not None and tracer.missing:
        print("trace: not found, so not traced: " + ", ".join(tracer.missing))
    for name, (value, raw, unit) in shown.items():
        extra = f"  raw {raw:.6g}" if raw is not None and unit != "MB" else ""
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:14.6f} {unit}{extra}{note}")
    for line in (failed + mismatches)[:20]:
        print(f"  ! {line}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    result = {
        "correct": not mismatches,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, _, unit) in shown.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {**result, "raw": {k: raw for k, (_, raw, _) in shown.items()}, "notes": notes,
         "provenance": info}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
