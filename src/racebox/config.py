"""Configuration records shared by the analyzers and the CLI: the one
home of the run defaults."""

from __future__ import annotations

from .syntax import Num, Record


class AnalysisSettings(Record):
    """Tuning knobs of the abstract analyzers."""

    thresholds: tuple[Num, ...] = (-10_000, -1, 0, 1, 10_000)  # widening
    widening_delay: int = 2  # outer interference rounds joined before widening
    decreasing_pass: bool = False  # one loop re-execution after stabilization
    partition_cap: int = 256  # scheduled-env partitions before coarsening
    loop_iter_cap: int = 10_000  # safety bound on every loop lim
    outer_round_cap: int = 64  # safety bound on interference fixpoints
    self_interference: frozenset[int] = frozenset()  # multi-instance threads


class OracleBudget(Record):
    """The concrete oracles' one exploration limit."""

    max_states: int = 1_000_000
