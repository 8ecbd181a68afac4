"""Sequential abstract interpreter: sched.outer_fixpoint in its "seq" mode
over a single thread, which stops after one round.  Its SchedResult has
every environment in C0 and no interferences."""

from __future__ import annotations

from .config import AnalysisSettings
from .sched import SchedResult, outer_fixpoint
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
    return outer_fixpoint(p, settings, "seq")
