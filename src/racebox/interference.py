"""Thread-modular analysis without scheduler awareness.

Cross-thread effects are summarized as flow-insensitive, non-relational
interferences: a map (thread, variable) -> interval of values that thread
may write.  Each thread is re-analyzed against the current interferences
until the outer fixpoint stabilizes (widened after a configurable delay).
This is the engine of sched.py in its "interference" mode
(synchronization erased), with its results unpartitioned.
"""

from __future__ import annotations

from .config import AnalysisSettings
from .domains import BoxEnv, Interval
from .sched import WEAK, outer_fixpoint, unpartitioned
from .syntax import Location, Program, Record, Sid

InterfKey = tuple[int, str]  # (thread id, variable)
InterferenceAbs = dict[InterfKey, Interval]  # absent key = bottom


class ThreadOutcome(Record):
    final: BoxEnv
    invariants: dict[Sid, BoxEnv]
    branches: dict[Sid, tuple[bool, bool]]


class InterfResult(Record):
    omega: frozenset[Location]
    interf: InterferenceAbs
    iterations: int
    per_thread: dict[int, ThreadOutcome]
    warnings: list[str]


def analyze_program_I(p: Program,
                      settings: AnalysisSettings = AnalysisSettings(),
                      ) -> InterfResult:
    """Outer interference fixpoint: re-analyze every thread from the same
    interferences until they and the errors stabilize.  Threads in
    settings.self_interference may run as several instances: they also
    read their own interferences."""
    res = outer_fixpoint(p, settings, "interference")
    per_thread = {
        tid: ThreadOutcome(unpartitioned(o.final),
                           {sid: unpartitioned(envs)
                            for sid, envs in o.invariants.items()},
                           o.branches)
        for tid, o in res.per_thread.items()}
    interf = {(t, x): v for (t, c, x), v in res.interf.items()
              if c.tag == WEAK}
    return InterfResult(res.omega, interf, res.iterations, per_thread,
                        res.warnings)
