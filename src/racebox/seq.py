"""Sequential abstract interpreter: one pass of the engine of sched.py in
its "seq" mode over a single thread, with no interference rounds."""

from __future__ import annotations

from .config import AnalysisSettings
from .domains import BoxEnv
from .sched import C0, AbsStateC, SchedRecorder, transfer_C, unpartitioned
from .syntax import SYNC_TYPES, Location, Program, Record, Sid, sub_stmts


class MultiThreadInput(Exception):
    pass


class SeqResult(Record):
    omega: frozenset[Location]
    final: BoxEnv
    invariants: dict[Sid, BoxEnv]
    branches: dict[Sid, tuple[bool, bool]]


def analyze_program_seq(p: Program,
                        settings: AnalysisSettings = AnalysisSettings(),
                        ) -> SeqResult:
    if len(p.threads) != 1:
        raise MultiThreadInput(
            f"sequential analyzer expects one thread, got {len(p.threads)}")
    thread = p.threads[0]
    for s in sub_stmts(thread.body):
        if isinstance(s, SYNC_TYPES):
            raise ValueError(
                f"synchronization primitive in sequential fragment: {s}")
    rec = SchedRecorder()
    out = transfer_C(thread.body, thread.tid,
                     AbsStateC({C0: BoxEnv.initial(p)}, {}), settings,
                     mode="seq", recorder=rec)
    return SeqResult(rec.errors, unpartitioned(out.envs),
                     {sid: unpartitioned(envs)
                      for sid, envs in rec.invariants.items()},
                     rec.branches)
