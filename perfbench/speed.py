"""The machine's current speed, sampled while the program runs.

A shared host slows this machine down by up to ~1.8x for seconds to
minutes at a time (other tenants, not the benchmark), and the slowdown hits
everything a process runs, so raw wall times drift with it. The benchmark
therefore measures the machine alongside the program: a ``Sampler`` arms a
wall-clock interval timer, and on each tick its signal handler runs a
fixed reference kernel for a few milliseconds and records how long that
took. The kernel does what the solvers do (small numpy array updates and a
banded solve) but calls nothing from frontwave, so a change to the program
leaves it alone.

An operation's *reference time* is its wall time, less the time spent in
the handler, scaled by ``REF_SLICE_S`` / (the mean kernel time during the
operation): the seconds it would take on this machine when its kernel
runs in ``REF_SLICE_S``. ``REF_SLICE_S`` is the kernel's typical time on
the 2-vCPU machine the bounds were set on, so reference seconds read close
to that machine's unloaded wall seconds. Set-up times are scaled the same
way by a fresh interpreter's import time (``import_time``).
"""

from __future__ import annotations

import glob
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import solve_banded

KERNEL_STEPS = 60
REF_SLICE_S = 3.75e-3  # KERNEL_STEPS steps of the kernel, unloaded, on the reference machine
PERIOD_S = 0.1  # one kernel slice per 100 ms of wall time: ~4% of it
TRIM = 0.1  # share of the slowest slices left out: slices the scheduler interrupted

_N = 400
_X = np.linspace(0.0, 1.0, _N + 1)
_AB = np.zeros((3, _N + 1))


def kernel() -> float:
    """Implicit-diffusion steps on a 401-point grid, shaped like a solver step."""
    u = np.cos(0.5 * np.pi * _X)
    r = 0.5
    for _ in range(KERNEL_STEPS):
        g = np.empty_like(u)
        g[1:-1] = (u[2:] - u[:-2]) * (0.5 * _N)
        g[0] = g[-1] = 0.0
        rhs = u + 1e-3 * (_X * g - u + u / (1.0 + u))
        _AB[1, :] = 1.0 + 2.0 * r
        _AB[0, 1:] = -r
        _AB[2, :-1] = -r
        u = solve_banded((1, 1), _AB, rhs)
        np.maximum(u, 0.0, out=u)
    return float(u[0])


class Sampler:
    """Runs the kernel on a wall-clock timer and keeps the slice times.

    ``clock()`` is ``time.perf_counter()`` less the time spent in the
    handler, so a span measured with it excludes the calibration.

    With ``children`` set (pool workers, forked from this process), this
    process takes no slices: the CPUs are the workers', and a slice here
    would measure the scheduler. Each forked child arms its own timer
    instead and appends its slices to ``speed-<pid>.txt`` under
    ``spill_dir`` as it takes them (pool workers exit without atexit);
    ``mark()`` gathers them. Without ``children``, forked children inherit
    the handler but not the timer, so they take no slices and their
    ``clock()`` keeps a constant offset.
    """

    def __init__(self, spill_dir: str, children: int = 0):
        self.spill_dir = spill_dir
        self.children = children
        self.slices: list = []
        self.busy = 0.0
        self._spill = None  # this process's spill file, in a forked child

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.slices.append(took)
        self.busy += took
        if self._spill is not None:
            with open(self._spill, "a") as fh:
                fh.write(f"{took!r}\n")

    def _arm(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _in_child(self) -> None:
        self.slices, self.busy = [], 0.0
        self._spill = os.path.join(self.spill_dir, f"speed-{os.getpid()}.txt")
        self._arm()

    def clock(self) -> float:
        return time.perf_counter() - self.busy

    def start(self) -> None:
        kernel()  # first call pays for lazy set-up, not a slice
        if self.children:
            os.register_at_fork(after_in_child=self._in_child)
        else:
            self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Index of the next slice, after gathering the children's."""
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "speed-*.txt"))):
            with open(path) as fh:
                self.slices.extend(float(line) for line in fh)
            os.remove(path)
        return len(self.slices)

    def window(self, since: int, until: int) -> tuple:
        """(slowdown, hidden) for the slices between two marks.

        slowdown is their trimmed mean over ``REF_SLICE_S``; it falls back
        to every slice so far when the window holds none. hidden is the
        wall time the children's slices added to the window, which
        ``clock()`` cannot leave out: their total over the worker count.
        """
        window = self.slices[since:until] or self.slices
        if not window:
            raise RuntimeError("no speed sample taken")
        hidden = sum(self.slices[since:until]) / self.children if self.children else 0.0
        return trimmed_mean(window) / REF_SLICE_S, hidden


# Set-up is mostly interpreter start and imports, which a shared host slows
# unlike array work, so its yardstick is a fresh interpreter importing the
# modules frontwave.cli imported when the benchmark was defined.
IMPORT_CMD = ("-c", "import argparse, concurrent.futures, hashlib, json, numpy, "
              "scipy.linalg, scipy.optimize")
REF_IMPORT_S = 0.6  # IMPORT_CMD's usual wall time on the reference machine


def import_time() -> float:
    """Wall time of a fresh interpreter running ``IMPORT_CMD``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *IMPORT_CMD], check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def trimmed_mean(values: list) -> float:
    kept = sorted(values)[:max(1, round(len(values) * (1.0 - TRIM)))]
    return statistics.fmean(kept)
