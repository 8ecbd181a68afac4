import random
from fractions import Fraction

import pytest

from racebox.config import AnalysisSettings
from racebox.domains import INF, BoxEnv, Interval
from racebox.parser import parse_program
from racebox.randgen import GeneratorConfig, random_seq_program
from racebox.sched import (
    C0,
    AbsStateC,
    SchedRecorder,
    SchedResult,
    SchedThreadOutcome,
    transfer_C,
    unpartitioned,
)
from racebox.seq import MultiThreadInput, analyze_program_seq
from reference_semantics import exec_stmt, initial_state

F = Fraction


def iv(lo, hi):
    return Interval.of(F(lo) if lo != "-inf" else -INF,
                       F(hi) if hi != "inf" else INF)


def final(r):
    return unpartitioned(r.per_thread[1].final)


def test_guarded_division_alarm():
    p = parse_program("thread 1 { x <- [0,5]; if x = 0 then { y <- 1 / x; } }")
    r = analyze_program_seq(p)
    assert len(r.omega) == 1


def test_no_alarm_when_divisor_excludes_zero():
    p = parse_program("thread 1 { x <- [1,2]; y <- 1 / x; }")
    r = analyze_program_seq(p)
    assert r.omega == frozenset()
    assert final(r).get("y") == iv(F(1, 2), 1)


def test_alarm_when_divisor_spans_zero():
    p = parse_program("thread 1 { x <- [0,1]; y <- 1 / x; }")
    r = analyze_program_seq(p)
    assert len(r.omega) == 1


def test_loop_default_ladder():
    # frozen by hand-iterating the widening ladder: the default thresholds
    # send the upper bound to 10^4, and the exit guard refines x >= 10
    p = parse_program("thread 1 { while x - 10 < 0 do { x <- x + 1; } }")
    r = analyze_program_seq(p)
    assert final(r).get("x") == iv(10, 10_000)


def test_loop_inclusive_guard_with_threshold():
    # with the guard x <= 9 and 10 in the ladder the invariant stabilizes
    # at [0,10] exactly; the strict exit x > 9 can only clamp to [9,10]
    # over closed rational bounds
    p = parse_program("thread 1 { while x - 9 <= 0 do { x <- x + 1; } }")
    thr = tuple(sorted(F(t) for t in (-1, 0, 1, 10)))
    r = analyze_program_seq(p, AnalysisSettings(thresholds=thr))
    assert final(r).get("x") == iv(9, 10)


def test_decreasing_pass_tightens():
    p = parse_program("thread 1 { while x - 10 < 0 do { x <- x + 1; } }")
    base = analyze_program_seq(p)
    assert final(base).get("x") == iv(10, 10_000)
    dec = analyze_program_seq(p, AnalysisSettings(decreasing_pass=True))
    assert final(dec).get("x").leq(final(base).get("x"))
    assert final(dec).get("x") == iv(10, 11)


def test_multi_thread_rejected():
    p = parse_program("thread 1 { x <- 1; } thread 2 { x <- 2; }")
    with pytest.raises(MultiThreadInput):
        analyze_program_seq(p)


def test_seq_is_one_round_of_the_engine():
    """The sequential analyzer is the engine's outer fixpoint stopped after
    its first round: its result is one seq-mode pass of the thread, with
    one iteration even when the pass raises alarms (a second round would
    only repeat the first), and no interferences or races."""
    rng = random.Random(9400)
    progs = [random_seq_program(rng, GeneratorConfig(div_prob=0.45),
                                loop_free=False) for _ in range(30)]
    assert any(analyze_program_seq(p).omega for p in progs)
    for p in progs:
        t = p.threads[0]
        rec = SchedRecorder()
        st = AbsStateC({C0: BoxEnv.initial(p)}, {})
        out = transfer_C(t.body, t.tid, st, mode="seq", recorder=rec)
        assert analyze_program_seq(p) == SchedResult(
            rec.errors, {}, [], [], 1,
            {t.tid: SchedThreadOutcome(out.envs, rec.invariants,
                                       rec.branches)},
            rec.max_env_partitions, 0, rec.warnings)


def test_invariants_and_branches_recorded():
    p = parse_program("thread 1 { x <- [0,1]; if x = 0 then { y <- 1; } }")
    r = analyze_program_seq(p)
    body = p.threads[0].body
    if_stmt = body.body[1]
    then_ok, else_ok = r.per_thread[1].branches[if_stmt.sid]
    assert then_ok and else_ok
    # invariant at the then-branch assignment has x pinned to 0
    inner = if_stmt.body
    assert unpartitioned(r.per_thread[1].invariants[inner.sid]).get(
        "x") == iv(0, 0)


def test_branch_infeasible_else():
    p = parse_program("thread 1 { x <- 1; if x > 0 then { y <- 1; } }")
    r = analyze_program_seq(p)
    if_stmt = p.threads[0].body.body[1]
    then_ok, else_ok = r.per_thread[1].branches[if_stmt.sid]
    assert then_ok and not else_ok


@pytest.mark.parametrize("seed", range(60))
def test_seq_soundness_randomized(seed):
    """Oracle errors are always covered by the analyzer's alarms, and the
    final envs cover every oracle env (loop-free, converged runs)."""
    rng = random.Random(9000 + seed)
    p = random_seq_program(rng, GeneratorConfig(div_prob=0.45))
    oracle = exec_stmt(p.threads[0].body, initial_state(p))
    r = analyze_program_seq(p)
    assert oracle.errors <= r.omega
    idx = {v: i for i, v in enumerate(p.variables)}
    for env in oracle.envs:
        assert not final(r).is_bot
        for v in p.variables:
            assert final(r).get(v).contains(env[idx[v]])
