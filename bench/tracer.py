"""Spans around the calls fracorder's layers make into one another.

`Tracer.install` rebinds, in every loaded fracorder module, each name bound
to one of the TARGETS functions to a wrapper that records a span
[name, start_ns, end_ns, parent, op, note].  Layers call one another through
those module-level names, so the spans nest as the calls do.  Spans stay in
memory; `write` saves them when the run ends.  Self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import json
import sys
import time


def _handover(args, kwargs):
    # both Mittag-Leffler expansions run where |z|**(1/alpha) is in [14, 30]
    alpha = float(args[0] if args else kwargs["alpha"])
    z = float(args[1] if len(args) > 1 else kwargs["z"])
    return z < 0.0 and 14.0 <= (-z) ** (1.0 / alpha) <= 30.0


def _scan_points(result):
    return len(result.alphas)


def _iterations(result):
    return result.iterations


# (module, function, span name, note from arguments, note from result)
TARGETS = (
    ("fracorder.special", "mittag_leffler", "special.ml", _handover, None),
    ("fracorder.special", "ml_alpha_derivative", "special.mld", None, None),
    ("fracorder.forward", "evaluate_solution", "forward.point", None, None),
    ("fracorder.forward", "evaluate_solution_grid", "forward.grid", None, None),
    ("fracorder.inverse", "residual", "inverse.residual", None, None),
    ("fracorder.inverse", "residual_derivative", "inverse.residual_derivative", None, None),
    ("fracorder.inverse", "scan_bracket", "inverse.scan", None, _scan_points),
    ("fracorder.inverse", "invert_order", "inverse.invert", None, _iterations),
    ("fracorder.cli", "main", "cli.main", None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []
        self._stack = []

    def install(self):
        """Wrap every loaded target; names of targets not found go to `missing`."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fracorder" or name.startswith("fracorder."))]
        for module_name, attr, span_name, from_args, from_result in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, fn, from_args, from_result)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn, from_args, from_result):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            note = from_args(args, kwargs) if from_args else None
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op, note]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if from_result is not None:
                span[5] = from_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def extend(self, spans, op):
        """Append spans recorded by another process, as operation `op`."""
        offset = len(self.spans)
        for name, start, end, parent, _, note in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               op, note])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans, durations):
    """Per-span self time: its duration minus its direct children's durations."""
    covered = [0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[3] >= 0:
            covered[span[3]] += duration
    return [duration - c for duration, c in zip(durations, covered)]
