"""Host speed, sampled while the benchmark runs, so that item times can be
given at one reference speed.

On a shared virtual machine the CPUs are shared with other guests.  In
slow phases, seconds to minutes long, the same Python code runs up to
1.8x slower, and whole ten-run sets can land in one.  CPU time does not
help: it grows with wall time.  A run therefore also times `kernel`, a
fixed piece of pure-Python work that belongs to the benchmark and calls
no racebox code, over and over, and scales each item's wall time by the
host's mean speed while it ran, the mean of REF_MS over each kernel
time.  A change to racebox moves the scaled time exactly as it moves the
wall time; a change in host speed moves the kernel too and cancels out.
The wall times stay in the worker's report.

The host flips between a fast and a slow state many times a second, so
the kernel runs right before and right after every item run, and from a
SIGALRM handler every INTERVAL_S, so that a 17-s item is covered from
the inside.  The time spent in the handler is taken out of the item's
time.  A run is scaled by the kernel runs from the one just before it to
the one just after it.  The mean of the speeds, not the median of the
times, is what an item running through both states sees, and a kernel
run that was preempted counts as the near-zero speed it had.  Measured
on five seeds of `sweep`, the interquartile spread of item_ms.p50 over
its median was 0.49 in wall time and 0.015 scaled; with a 0.1-s timer
interval it had been 0.03.

A `cli-cold` item is mostly a child process, which kernel runs in the
worker do not see.  So the child runs the CLI through paced_cli.py,
which samples the kernel itself, at its start, every INTERVAL_S and
at its exit, and hands the samples back to the worker; no timer runs
in the worker.  On five seeds this cut the spread of item_ms.p50 from
0.17 in wall time to 0.02 (three samples per child, without the timer,
gave 0.13).  Set-up time is scaled by kernel runs the worker makes at
three points of its own set-up: before `import racebox`, after the
imports, and after the inputs exist.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

# the kernel's time, in ms, at the reference speed.  On a 2-vCPU Xeon
# virtual machine (Python 3.11) the kernel takes 0.6 ms in fast phases
# and 1.1-1.2 ms in slow ones.  Only the scale of the reported times
# depends on this constant.
REF_MS = 1.0
INTERVAL_S = 0.02


def kernel() -> int:
    """About 1 ms of interpreter work of the kinds racebox does: small
    tuples, dicts and frozensets, comparisons, calls."""
    env = {v: (0, 0) for v in range(12)}
    seen = set()
    acc = 0
    for step in range(170):
        v = (step * 7) % 12
        lo, hi = env[v]
        lo, hi = min(lo, step - 40), max(hi, (hi * 3 + step) % 97)
        env[v] = (lo, hi)
        key = frozenset((k, b) for k, b in env.items() if b[1] > step % 5)
        if key not in seen:
            seen.add(key)
        acc += len(key) + _width(env[(v + 5) % 12])
    return acc + len(seen)


def _width(iv: tuple) -> int:
    return iv[1] - iv[0]


def mean_speed(secs: list[float]) -> float:
    """The mean of REF_MS over the given kernel times (in seconds)."""
    if not secs:
        raise RuntimeError("no kernel samples to scale by")
    return REF_MS / 1e3 * statistics.fmean(1 / s for s in secs)


class Pace:
    """Kernel timings of one run: (midpoint, seconds) in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.secs: list[float] = []
        self.spent = 0.0  # seconds the samples have taken so far
        self.busy = False

    def sample(self) -> None:
        if self.busy:  # the timer fired inside a sample
            return
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.secs.append(t1 - t0)
        self.spent += perf_counter() - t0
        self.busy = False

    def add(self, at: list[float], secs: list[float]) -> None:
        """Kernel runs a child process made (see paced_cli.py)."""
        self.at += at
        self.secs += secs
        self.spent += sum(secs)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """The mean of REF_MS over the kernel times from the last sample
        before t0 to the first after t1."""
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = bisect.bisect_right(self.at, t1) + 1
        return mean_speed(self.secs[lo:hi])

    def summary(self) -> dict:
        """How fast the host ran over the whole run, for the report."""
        ms = sorted(s * 1e3 for s in self.secs)
        q1, q2, q3 = statistics.quantiles(ms, n=4)
        return {"kernel_ms.q1": q1, "kernel_ms.p50": q2, "kernel_ms.q3": q3,
                "kernel_ms.min": ms[0], "kernel_ms.max": ms[-1],
                "samples": len(ms)}
