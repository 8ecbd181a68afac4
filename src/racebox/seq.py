"""Sequential abstract interpreter: one pass of the engine of sched.py in
its "seq" mode over a single thread, with no interference rounds.  Its
SchedResult has every environment in C0 and no interferences."""

from __future__ import annotations

from .config import AnalysisSettings
from .domains import BoxEnv
from .sched import (
    C0,
    AbsStateC,
    SchedRecorder,
    SchedResult,
    SchedThreadOutcome,
    transfer_C,
)
from .syntax import SYNC_TYPES, Program, sub_stmts


class MultiThreadInput(Exception):
    pass


def outside_fragment(p: Program) -> str | None:
    """Why p is outside the sequential fragment (one thread, no
    synchronization), or None if it is inside."""
    if len(p.threads) != 1:
        return f"sequential analyzer expects one thread, got {len(p.threads)}"
    for s in sub_stmts(p.threads[0].body):
        if isinstance(s, SYNC_TYPES):
            return f"synchronization primitive in sequential fragment: {s}"
    return None


def analyze_program_seq(p: Program,
                        settings: AnalysisSettings = AnalysisSettings(),
                        ) -> SchedResult:
    reason = outside_fragment(p)
    if reason is not None:
        raise (MultiThreadInput if len(p.threads) != 1 else ValueError)(
            reason)
    thread = p.threads[0]
    rec = SchedRecorder()
    out = transfer_C(thread.body, thread.tid,
                     AbsStateC({C0: BoxEnv.initial(p)}, {}), settings,
                     mode="seq", recorder=rec)
    return SchedResult(
        rec.errors, {}, [], [], 1,
        {thread.tid: SchedThreadOutcome(out.envs, rec.invariants,
                                        rec.branches)},
        rec.max_env_partitions, 0, rec.warnings)
