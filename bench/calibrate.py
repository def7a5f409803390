"""Machine-speed calibration by fixed references.

On a shared machine the speed available to one process changes by up to a
factor of two, in spells from a tenth of a second to seconds.  The benchmark
therefore measures a fixed reference alongside the operations and reports
each operation's time at the reference's nominal speed.  Two references are
used, both free of fracorder:

- for operations inside the benchmark process, `reference_loop` (six power
  series of the kind the program sums: argument checks, then a scipy Gamma
  call and a compensated sum per term) runs from a SIGALRM handler every
  SAMPLE_INTERVAL_S, also in the middle of an operation.  The handler's own time is taken out of the
  operation's time, and the rest is scaled by the mean reference speed over
  the samples from just before the operation to just after it;
- for operations that are whole processes, a reference process, this file
  run as a script: a fresh interpreter that imports a fixed set of
  standard-library modules (C extensions among them) and runs a pure-Python
  loop.  A process is scaled by the median of the reference processes
  around it.

The nominal times are the references' times in the fast state of a 2-core
x86-64 host with CPython 3.11.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

NOMINAL_LOOP_S = 0.00012
NOMINAL_PROCESS_S = 0.25
SAMPLE_INTERVAL_S = 0.01
PROCESS_SAMPLE_INTERVAL_S = 1.0
PROCESS_WINDOW = 2      # reference processes on each side of a child
PROCESS_TIMEOUT_S = 60


def _interpreted_loop():
    total = 0.0
    comp = 0.0
    term = 1.0
    for j in range(1, 6001):
        term = term * 0.999 + 1.0 / j
        y = math.sqrt(term) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _series(gamma, gammaln, alpha, z, rel_tol=1e-12):
    """Power series of E_alpha(z) with a validation prologue, stopped after
    three small terms: a fixed copy of the kind of call the program makes."""
    alpha = float(alpha)
    z = float(z)
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0 and math.isfinite(z) and z != 0.0):
        raise ValueError(f"reference series: bad arguments {alpha!r}, {z!r}")
    total = 1.0
    comp = 0.0
    zpow = 1.0
    small = 0
    log_abs_z = math.log(abs(z))
    for j in range(1, 500):
        g = alpha * j + 1.0
        zpow *= z
        if g <= 170.0:
            term = zpow / float(gamma(g))
        else:
            term = math.exp(j * log_abs_z - float(gammaln(g)))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= rel_tol * abs(total):
            small += 1
            if small == 3:
                break
        else:
            small = 0
    return total + comp


def reference_loop(gamma, gammaln):
    """Six short-to-medium series, about 0.12 ms on the nominal host;
    `gamma` and `gammaln` are scipy.special's."""
    return sum(_series(gamma, gammaln, 0.6, z) for z in (-0.02, -0.1, -0.3, -0.7, -1.5, -2.5))


class Calibration:
    """Reference samples for in-process operations and for child processes."""

    def __init__(self):
        self.starts_ns = []     # when each in-process sample began
        self.samples_ns = []    # how long it took
        self.process_samples = []
        self._last_process = -math.inf
        self._previous_handler = None
        self._special = None

    # in-process: a timer-driven sampler

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        reference_loop(*self._special)
        self.starts_ns.append(start)
        self.samples_ns.append(time.perf_counter_ns() - start)

    def start(self):
        # imported here, not at module level: the set-up probes import this module
        from scipy.special import gamma, gammaln

        self._special = (gamma, gammaln)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def sample_now(self):
        """One sample outside the timer, e.g. after the last operation."""
        self._on_alarm(None, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def sampled_between(self, start_ns, end_ns):
        """Index range of the samples that began within [start_ns, end_ns)."""
        return (bisect.bisect_left(self.starts_ns, start_ns),
                bisect.bisect_left(self.starts_ns, end_ns))

    def net_ns(self, start_ns, end_ns):
        """Interval length without the sampler's time inside it."""
        i, j = self.sampled_between(start_ns, end_ns)
        return end_ns - start_ns - sum(self.samples_ns[i:j])

    def factor(self, start_ns, end_ns):
        """Mean reference speed over the interval, one sample either side
        included, relative to the nominal speed."""
        i, j = self.sampled_between(start_ns, end_ns)
        near = self.samples_ns[max(0, i - 1):j + 1]
        return statistics.fmean(NOMINAL_LOOP_S * 1e9 / s for s in near)

    # child processes: reference processes in between

    def sample_process(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True,
                       stdout=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S)
        end = time.perf_counter()
        self.process_samples.append(end - start)
        self._last_process = end

    def maybe_sample_process(self):
        if time.perf_counter() - self._last_process >= PROCESS_SAMPLE_INTERVAL_S:
            self.sample_process()

    def process_mark(self):
        return len(self.process_samples)

    def process_factor(self, mark):
        """Nominal over the median reference process around a child that
        started after `mark` samples."""
        window = self.process_samples[max(0, mark - PROCESS_WINDOW):mark + PROCESS_WINDOW]
        return NOMINAL_PROCESS_S / statistics.median(window)


if __name__ == "__main__":
    import argparse, asyncio, csv, ctypes, decimal, difflib, email.parser  # noqa: E401,F401
    import fractions, hashlib, http.client, inspect, json, logging.handlers  # noqa: E401,F401
    import multiprocessing.pool, pickle, random, sqlite3, ssl, tarfile  # noqa: E401,F401
    import unittest, urllib.request, xml.dom.minidom, zipfile  # noqa: E401,F401

    for _ in range(20):
        _interpreted_loop()
