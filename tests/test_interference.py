from fractions import Fraction

import pytest

from racebox.config import AnalysisSettings
from racebox.domains import BOT, BoxEnv, INF, Interval
from racebox.interference import analyze_program_I
from racebox.parser import parse_program
from racebox.randgen import sweep_program
from racebox.sched import (
    C0,
    ISLOCKED_DEGRADED,
    SYNC_SKIPPED,
    AbsStateC,
    SchedRecorder,
    apply_sched,
    outer_fixpoint,
    sparse_join,
    sparse_widen,
    transfer_C,
    unpartitioned,
)
from racebox.seq import analyze_program_seq
from racebox.syntax import Const, Lock, Unlock, Var, Yield, sub_stmts

F = Fraction


def iv(lo, hi):
    return Interval.of(F(lo) if lo != "-inf" else -INF,
                       F(hi) if hi != "inf" else INF)


# the scheduler-blind engine keeps every environment and interference in
# the single configuration C0


def blind_state(env, interf):
    return AbsStateC({C0: env},
                     {(t, C0, x): v for (t, x), v in interf.items()})


def test_apply_replaces_with_join():
    envs = {C0: BoxEnv({"y": iv(0, 0)})}
    interf = {(2, C0, "y"): iv(5, 5)}
    out = apply_sched(1, C0, envs, interf, Var("y"))
    assert out == Const(F(0), F(5))


def test_apply_identity_without_interference():
    envs = {C0: BoxEnv({"y": iv(0, 0), "z": iv(1, 2)})}
    p = parse_program("thread 1 { x <- y + z * 2; }")
    e = p.threads[0].body.expr
    assert apply_sched(1, C0, envs, {}, e) is e
    # own-thread interference is ignored without self-interference
    assert apply_sched(1, C0, envs, {(1, C0, "y"): iv(9, 9)}, e) is e
    # a subtree that reads no interference is kept, not rebuilt
    e = parse_program("thread 1 { x <- (y + z) * w; }").threads[0].body.expr
    envs = {C0: BoxEnv({"y": iv(0, 0), "z": iv(1, 2), "w": iv(0, 0)})}
    out = apply_sched(1, C0, envs, {(2, C0, "w"): iv(3, 3)}, e)
    assert out.left is e.left and out.right == Const(0, 3)


def test_apply_self_interference():
    envs = {C0: BoxEnv({"y": iv(0, 0)})}
    interf = {(1, C0, "y"): iv(9, 9)}
    out = apply_sched(1, C0, envs, interf, Var("y"),
                      self_threads=frozenset({1}))
    assert out == Const(F(0), F(9))


def test_blind_self_interference_reads_own_writes_live():
    # the last assignment reads the first one's write of the same pass;
    # only blind mode reads the thread's own keys
    p = parse_program("thread 1 { x <- 5; x <- 0; y <- x; }")
    st = blind_state(BoxEnv({"x": iv(0, 0), "y": iv(0, 0)}), {})
    selfi = AnalysisSettings(self_interference=frozenset({1}))
    out = transfer_C(p.threads[0].body, 1, st, selfi, mode="interference")
    assert out.envs[C0].get("y") == iv(0, 5)
    out = transfer_C(p.threads[0].body, 1, st, selfi)
    assert out.envs[C0].get("y") == iv(0, 0)


def test_assign_extends_interference():
    p = parse_program("thread 1 { x <- x + 1; }")
    st = blind_state(BoxEnv({"x": iv(0, 0)}), {(2, "x"): iv(1, 1)})
    out = transfer_C(p.threads[0].body, 1, st, mode="interference")
    assert out.envs[C0].get("x") == iv(1, 2)
    assert out.interf[(1, C0, "x")] == iv(1, 2)


def test_blind_sync_primitives_are_skips(corpus):
    p = corpus("priority_mutex")
    st = blind_state(BoxEnv.initial(p), {})
    for t in p.threads:
        rec = SchedRecorder()
        out = transfer_C(t.body, t.tid, st, recorder=rec, mode="interference")
        assert set(out.envs) <= {C0}
        assert not any(s.sid in rec.invariants for s in sub_stmts(t.body)
                       if isinstance(s, (Lock, Unlock, Yield)))
        assert all(set(envs) <= {C0} for envs in rec.invariants.values())
        if any(isinstance(s, Lock) for s in sub_stmts(t.body)):
            assert SYNC_SKIPPED in rec.warnings
    # islocked takes the degraded [0,1] route, with a diagnostic
    q = parse_program("mutex m; thread 1 { x <- islocked(m); }")
    rec = SchedRecorder()
    out = transfer_C(q.threads[0].body, 1, blind_state(BoxEnv.initial(q), {}),
                     recorder=rec, mode="interference")
    assert out.envs == {C0: BoxEnv({"x": iv(0, 1)})}
    assert out.interf == {(1, C0, "x"): iv(0, 1)}
    assert rec.warnings == [ISLOCKED_DEGRADED]


def test_self_interference_models_multiple_instances():
    # a single-instance incrementing thread keeps x at [1,1]; marking it
    # multi-instance feeds its own writes back and the bound diverges
    p = parse_program("thread 1 { x <- x + 1; }")
    single = analyze_program_I(p)
    assert single.interf[(1, C0, "x")] == iv(1, 1)
    multi = analyze_program_I(
        p, AnalysisSettings(self_interference=frozenset({1})))
    assert multi.interf[(1, C0, "x")].hi == INF
    assert multi.interf[(1, C0, "x")].lo == 1


def test_guard_without_interference_matches_seq():
    src = "thread 1 { x <- [0,5]; if x = 0 then { y <- 1 / x; } }"
    p = parse_program(src)
    assert analyze_program_I(p).omega == analyze_program_seq(p).omega


def test_dekker_flags_interference_exact(corpus):
    p = corpus("dekker")
    r = analyze_program_I(p)
    flags = {k: v for k, v in r.interf.items() if k[2].startswith("flag")}
    assert flags == {(1, C0, "flag1"): iv(1, 1), (2, C0, "flag2"): iv(1, 1)}
    # both branches of both conditionals stay satisfiable
    for tid in (1, 2):
        (branch,) = r.per_thread[tid].branches.values()
        assert branch == (True, True)


def test_increment_diverges_upward(corpus):
    p = corpus("increment")
    r = analyze_program_I(p)
    y = r.interf[(1, C0, "y")]
    assert y.hi == INF and y.lo == 1
    assert r.omega == frozenset()


def test_priority_mutex_only_coarse_bound(corpus):
    p = corpus("priority_mutex")
    r = analyze_program_I(p)
    assert unpartitioned(r.per_thread[1].final).get("t") == iv(-1, 1)
    assert r.warnings  # sync primitives were skipped with a diagnostic


def test_single_thread_matches_seq_and_two_rounds():
    src = "thread 1 { x <- [0,1]; y <- 1 / x; while x - 3 < 0 do { x <- x + 1; } }"
    p = parse_program(src)
    ri = analyze_program_I(p)
    rs = analyze_program_seq(p)
    assert ri.omega == rs.omega
    assert ri.iterations <= 2


def blind_round(p, omega, interf, s):
    """One outer round of the blind engine: (new errors, joined writes)."""
    st = AbsStateC({C0: BoxEnv.initial(p)}, interf)
    new_omega, joined = omega, {}
    for t in p.threads:
        rec = SchedRecorder()
        out = transfer_C(t.body, t.tid, st, s, None, "interference", rec)
        new_omega |= rec.errors
        joined = sparse_join(joined, out.interf)
    return new_omega, joined


def test_outer_fixpoint_idempotent(corpus):
    p = corpus("increment")
    s = AnalysisSettings()
    r = outer_fixpoint(p, s, "interference")
    assert analyze_program_I(p, s).interf == r.interf
    # one more full round from the stable pair changes nothing
    new_omega, joined = blind_round(p, r.omega, r.interf, s)
    assert new_omega == r.omega
    assert sparse_widen(r.interf, joined, ()) == r.interf


def test_interference_monotone_across_rounds(corpus):
    p = corpus("increment")
    s = AnalysisSettings()
    omega, interf = frozenset(), {}
    for rounds in range(1, 8):
        new_omega, joined = blind_round(p, omega, interf, s)
        new_interf = (sparse_join(interf, joined) if rounds <= 2
                      else sparse_widen(interf, joined, ()))
        assert all(v.leq(new_interf.get(k, BOT)) for k, v in interf.items())
        if new_interf == interf and new_omega == omega:
            break
        omega, interf = new_omega, new_interf


@pytest.mark.parametrize("seed", [31_002, 31_011, 31_028])
def test_blind_cascade_publishes_only_weak_keys(seed):
    """The cascade-to-top of a blind run writes C0 keys alone: a blind pass
    reads no sync entry, so sync keys would only be dead weight."""
    p = sweep_program(seed)
    assert p.mutexes
    r = outer_fixpoint(p, AnalysisSettings(), "interference")
    assert r.interf and {c for _, c, _ in r.interf} == {C0}
