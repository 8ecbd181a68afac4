"""Thread-modular interval analyzer and concrete oracles for a small
concurrent language with priorities, mutexes, and a real-time scheduler."""

from .concrete import (
    ConcreteState,
    FixpointBudgetExceeded,
    UnsupportedMode,
    eval_concrete,
    exec_stmt,
    initial_state,
    paths,
    run_paths,
)
from .config import AnalysisSettings, OracleBudget
from .domains import (
    BOT,
    BotNotRepresentable,
    BoxEnv,
    Interval,
    as_expr,
    get,
    ival_join,
    ival_leq,
    ival_widen,
    transfer_assign,
    transfer_guard,
)
from .interference import analyze_program_I
from .oracle import (
    check_soundness_inclusion,
    concrete_interference_fixpoint,
    run_interleavings,
    run_scheduled,
)
from .parser import DuplicateThreadId, ParseError, UndeclaredVariable, parse_program
from .report import ProgramMismatch, RunConfig, analyze_source, build_report, diff_reports
from .sched import (
    AbsStateC,
    AnalysisDiverged,
    SchedConfig,
    analyze_program_C,
    apply_sched,
    extract_races,
    in_sharp,
    intf,
    out_sharp,
    transfer_C,
)
from .seq import MultiThreadInput, analyze_program_seq
from .syntax import Program, classify_vars, collect_lock_sets, pretty_program
from .transforms import (
    RuleId,
    SideConditionUnverifiable,
    apply_rule,
    check_deterministic,
    check_noerror,
    check_nonblock,
    fuzz_weakmem,
    negative_controls,
)

__version__ = "0.1.0"
