"""Thread-modular analysis without scheduler awareness.

Cross-thread effects are summarized as flow-insensitive, non-relational
interferences: a map (thread, configuration, variable) -> interval of
values that thread may write.  Each thread is re-analyzed against the
current interferences until the outer fixpoint stabilizes (widened after a
configurable delay).  This is the engine of sched.py in its "interference"
mode (synchronization erased), so every environment and interference is in
configuration C0; sched.unpartitioned reads an environment.
"""

from __future__ import annotations

from .config import AnalysisSettings
from .sched import SchedResult, outer_fixpoint
from .syntax import Program


def analyze_program_I(p: Program,
                      settings: AnalysisSettings = AnalysisSettings(),
                      ) -> SchedResult:
    """Outer interference fixpoint: re-analyze every thread from the same
    interferences until they and the errors stabilize.  Threads in
    settings.self_interference may run as several instances: they also
    read their own interferences."""
    return outer_fixpoint(p, settings, "interference")
