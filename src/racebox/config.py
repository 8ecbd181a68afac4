"""Configuration records shared by the analyzers and the CLI, and the
constants no run varies: the one home of the run defaults."""

from __future__ import annotations

from .syntax import Num, Record

UNROLL = 3  # loop unrolling bound of the oracles' control paths
PARTITION_CAP = 256  # scheduled-env partitions before coarsening
LOOP_ITER_CAP = 10_000  # safety bound on every loop lim
OUTER_ROUND_CAP = 64  # safety bound on interference fixpoints


class LimitReached(RuntimeError):
    """A run stopped at one of its bounds, or at an input its oracles
    cannot enumerate: the CLI's exit 3, not a bug."""


class AnalysisSettings(Record):
    """Tuning knobs of the abstract analyzers."""

    thresholds: tuple[Num, ...] = (-10_000, -1, 0, 1, 10_000)  # widening
    widening_delay: int = 2  # outer interference rounds joined before widening
    decreasing_pass: bool = False  # one loop re-execution after stabilization
    self_interference: frozenset[int] = frozenset()  # multi-instance threads


class OracleBudget(Record):
    """The concrete oracles' one exploration limit."""

    max_states: int = 1_000_000
