import os
import pathlib
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

from racebox import config
from racebox.config import AnalysisSettings
from racebox.domains import (
    BOT,
    INF,
    BoxEnv,
    Interval,
    compile_tape,
    guard_in,
    run_tape,
    transfer_assign,
    transfer_guard,
)
from racebox.interference import analyze_program_I
from racebox.parser import parse_program
from racebox.report import RunConfig, analyze_source
from racebox.sched import (
    C0,
    AbsStateC,
    AnalysisDiverged,
    SchedConfig,
    WEAK,
    analyze_program_C,
    _by_config,
    _view_of,
    apply_sched,
    in_sharp,
    intf,
    out_sharp,
    outer_fixpoint,
    read_env,
    sync,
    transfer_C,
    unpartitioned,
)
from racebox.randgen import GeneratorConfig, random_program
from racebox.seq import analyze_program_seq
from racebox.syntax import (
    Assign,
    Const,
    Guard,
    If,
    Lock,
    Var,
    While,
    body_guard,
    collect_lock_sets,
    else_guard,
    exit_guard,
    sub_stmts,
    then_guard,
)

F = Fraction


def iv(lo, hi):
    return Interval.of(F(lo) if lo != "-inf" else -INF,
                       F(hi) if hi != "inf" else INF)


def cfg(l=(), u=(), tag=WEAK):
    return SchedConfig(frozenset(l), frozenset(u), tag)


def joined_final(res, var):
    out = BOT
    for tid, o in res.per_thread.items():
        for c, env in o.final.items():
            out = out.join(env.get(var))
    return out


def hull(res, var):
    out = joined_final(res, var)
    for tid, o in res.per_thread.items():
        for sid, envs in o.invariants.items():
            for c, env in envs.items():
                out = out.join(env.get(var))
    return out


# -- the intf predicate


def test_intf_empty_configs():
    assert intf(cfg(), cfg())


def test_intf_shared_held_mutex():
    assert not intf(cfg(l={"m"}), cfg(l={"m"}))


def test_intf_known_free_vs_held():
    assert not intf(cfg(u={"m"}), cfg(l={"m"}))
    assert not intf(cfg(l={"m"}), cfg(u={"m"}))


def test_intf_requires_weak_tags():
    assert not intf(cfg(tag=sync("m")), cfg())
    assert not intf(cfg(), cfg(tag=sync("m")))


# -- apply under partitioning


def test_apply_excludes_mutually_exclusive_configs():
    envs = {cfg(u={"m"}): BoxEnv({"y": iv(0, 0)}),
            cfg(): BoxEnv({"y": iv(0, 0)})}
    interf = {(1, cfg(l={"m"}), "y"): iv(7, 7)}
    # reader knows m is free: the writer held m, excluded
    assert apply_sched(2, cfg(u={"m"}), envs, interf, Var("y")) == Var("y")
    # reader without knowledge: included
    assert apply_sched(2, cfg(), envs, interf, Var("y")) == Const(F(0), F(7))


def test_apply_ignores_sync_entries():
    envs = {cfg(): BoxEnv({"y": iv(0, 0)})}
    interf = {(1, cfg(tag=sync("m")), "y"): iv(7, 7)}
    assert apply_sched(2, cfg(), envs, interf, Var("y")) == Var("y")


def test_guard_leaves_interfered_variables_unrefined():
    # the guard reads y as [3,6], t2's write joined in; narrowing t1's own
    # y = [6,6] by it would empty the branch and lose the division by
    # z = 0 at label 2
    src = ("var y = [6,6]; var z; thread 1 { if y - 5 < 0 then"
           " { z <- 1 / z; } } thread 2 { y <- 3; }")
    p = parse_program(src)
    for mode in ("interference", "scheduled-mono", "scheduled-multi"):
        res = outer_fixpoint(p, AnalysisSettings(), mode)
        assert [loc.label for loc in res.omega] == [2], mode
        assert res.per_thread[1].invariants[2][C0].get("y") == iv(6, 6)
    rep = analyze_source(src, RunConfig(mode="oracle-interleave",
                                        check_against="interference"))
    assert rep["check"]["verdict"] == "PASS"


def _reads(p):
    """Every (thread, sid, expression, assigned variable or guard cmp) of
    p's Assigns and its Ifs' and Whiles' guards."""
    for t in p.threads:
        for s in sub_stmts(t.body):
            if isinstance(s, Assign):
                yield t.tid, s.sid, s.expr, s.var, None
            elif isinstance(s, (If, While)):
                pair = ((then_guard, else_guard) if isinstance(s, If)
                        else (body_guard, exit_guard))
                for g in (make(s) for make in pair):
                    yield t.tid, g.sid, g.expr, None, g.cmp


def test_engine_reads_match_the_substitution():
    # the engine's read (read_env, then run_tape or guard_in on the
    # widened environment) and the kept substitution (apply_sched, then
    # transfer_assign or transfer_guard) agree at every partition of
    # every read of random programs: value, refined env, errors, and the
    # read events, which both must draw from the compatible foreign writes
    reads = interfered = 0
    for seed in range(40):
        rng = random.Random(seed)
        p = random_program(rng, GeneratorConfig(div_prob=0.5, n_vars=3,
                                                max_branching=3))
        for mode in ("interference", "scheduled-mono", "scheduled-multi"):
            res = outer_fixpoint(p, AnalysisSettings(), mode)
            for tid, sid, e, var, cmp in _reads(p):
                envs = res.per_thread[tid].invariants.get(sid, {})
                tape = compile_tape(e)
                for c, env in envs.items():
                    log = set()
                    e2 = apply_sched(tid, c, envs, res.interf, e, log)
                    view = _view_of(c, _by_config(res.interf, tid))
                    seen, fixed, events = read_env(tid, c, env, view,
                                                   tape.names)
                    if var is not None:
                        vals, errs = run_tape(tape, seen)
                        got = env.set(var, vals[-1]), errs
                        want = transfer_assign(var, e2, env, frozenset())
                    else:
                        got = guard_in(tape, cmp, env, seen, fixed,
                                       frozenset())
                        want = transfer_guard(e2, cmp, env, frozenset())
                    assert got == want, (seed, mode, sid, str(c))
                    # the writes a read sees, from the round's map itself
                    saw = {(tid, t2, x, c, c2)
                           for (t2, c2, x) in res.interf
                           if t2 != tid and intf(c, c2) and x in tape.names}
                    assert set(events) == log == saw
                    assert fixed == {x for _, _, x, _, _ in saw}
                    reads += 1
                    interfered += bool(fixed)
    assert reads > 1000 and interfered > 300


def test_an_analysis_keeps_no_expression_alive(cyclic_garbage):
    # the tapes an analysis compiles die with it, by reference counting
    # alone: nothing outlives the call that holds a program's expressions
    def run():
        p = parse_program("var x = [0,3]; thread 1 { while x - 10 < 0 do"
                          " { x <- x + 1 / x; } }")
        ref = weakref.ref(p.threads[0].body.expr)
        results = [analyze_program_seq(p), analyze_program_I(p),
                   analyze_program_C(p)]
        del p
        assert ref() is None and all(r.omega for r in results)

    assert cyclic_garbage(run) == 0


# -- in/out


def test_in_no_sync_entries_identity():
    env = BoxEnv({"x": iv(1, 2)})
    assert in_sharp(2, frozenset(), frozenset(), "m", env, {}) == env


def test_in_imports_compatible_sync_values():
    env = BoxEnv({"x": iv(0, 0)})
    interf = {(1, cfg(tag=sync("m")), "x"): iv(5, 6)}
    out = in_sharp(2, frozenset(), frozenset(), "m", env, interf)
    assert out.get("x") == iv(0, 6)


def test_in_two_lock_exclusion():
    # values written by thread 1 while holding a mutex in common with the
    # importing thread are not imported
    env = BoxEnv({"x": iv(0, 0)})
    interf = {(1, SchedConfig(frozenset({"m2"}), frozenset(), sync("m1")),
               "x"): iv(5, 5)}
    holding_m2 = in_sharp(2, frozenset({"m2"}), frozenset(), "m1", env, interf)
    assert holding_m2.get("x") == iv(0, 0)
    free = in_sharp(2, frozenset(), frozenset(), "m1", env, interf)
    assert free.get("x") == iv(0, 5)


def test_in_ignores_own_thread():
    env = BoxEnv({"x": iv(0, 0)})
    interf = {(2, cfg(tag=sync("m")), "x"): iv(5, 5)}
    assert in_sharp(2, frozenset(), frozenset(), "m", env, interf) == env


def test_in_reads_only_the_sync_index_of_its_mutex():
    # at every lock of analyze-large programs 0-3, a mutex's sync entries
    # alone give in_sharp exactly what the full round map gives
    locks = 0
    for i in range(4):
        rng = random.Random(i)
        gcfg = GeneratorConfig(max_stmts=rng.choice((12, 24, 48, 96)),
                               max_threads=4, n_vars=12, n_mutexes=4,
                               sync_prob=0.35, max_branching=4)
        p = random_program(rng, gcfg)
        res = analyze_program_C(p, mono=True)
        for t in p.threads:
            inv = res.per_thread[t.tid].invariants
            for s in sub_stmts(t.body):
                if isinstance(s, Lock):
                    for c, env in inv.get(s.sid, {}).items():
                        locks += 1
                        args = (t.tid, c.held, c.free, s.mutex, env)
                        mine = {k: v for k, v in res.interf.items()
                                if k[1].tag == sync(s.mutex)}
                        assert (in_sharp(*args, res.interf)
                                == in_sharp(*args, mine))
    assert locks > 0


def test_out_requires_weak_write_under_mutex():
    env = BoxEnv({"y": iv(1, 1), "z": iv(3, 3)})
    interf = {(1, cfg(l={"m"}), "y"): iv(1, 1)}
    out = out_sharp(1, frozenset(), frozenset(), "m", env, interf)
    assert out == {(1, cfg(tag=sync("m")), "y"): iv(1, 1)}
    # no weak interference under m: nothing published
    assert out_sharp(1, frozenset(), frozenset(), "m", env, {}) == {}


def test_unlock_emits_sync_with_post_removal_lockset():
    p = parse_program(
        "mutex m; thread 1 { lock(m); y <- 1; unlock(m); }")
    res = analyze_program_C(p)
    key = (1, SchedConfig(frozenset(), frozenset(), sync("m")), "y")
    assert res.interf[key] == iv(1, 1)


def test_lock_single_partition_moves_key():
    p = parse_program("mutex m; thread 1 { lock(m); x <- 1; }")
    st = AbsStateC({C0: BoxEnv.initial(p)}, {})
    out = transfer_C(p.threads[0].body, 1, st,
                     lock_sets=collect_lock_sets(p))
    assert set(out.envs) == {cfg(l={"m"})}
    assert out.envs[cfg(l={"m"})].get("x") == iv(1, 1)


def test_pass_returns_only_its_own_keys():
    # the round's map holds thread 2's entries: a sync write of y, which
    # lock(m) imports, and a weak write of z, which the loop reads
    p = parse_program("mutex m; thread 1 { lock(m); x <- y + 1; unlock(m);"
                      " while x > 0 do { x <- z; } }")
    theirs = {(2, cfg(tag=sync("m")), "y"): iv(5, 5),
              (2, C0, "z"): iv(-1, -1)}
    mine = {(1, C0, "x"): iv(9, 9)}
    st = AbsStateC({C0: BoxEnv.initial(p)}, {**theirs, **mine})
    out = transfer_C(p.threads[0].body, 1, st,
                     lock_sets=collect_lock_sets(p))
    assert {k[0] for k in out.interf} == {1}
    assert out.interf[(1, C0, "x")] == iv(-1, 9)
    assert out.interf[(1, cfg(l={"m"}), "x")] == iv(1, 6)
    assert out.interf[(1, cfg(tag=sync("m")), "x")] == iv(1, 6)


def test_relock_is_noop_on_held_set():
    p = parse_program("mutex m; thread 1 { lock(m); lock(m); x <- 1; }")
    res = analyze_program_C(p)
    assert res.omega == frozenset()
    (final,) = res.per_thread[1].final.keys()
    assert final == cfg(l={"m"})


def test_empty_blocks_in_every_mode():
    """An empty block is an always-true guard: each one gets an invariant
    in every analyzer mode, and the alarms cover both oracles' errors."""
    from racebox.oracle import run_interleavings, run_scheduled

    p = parse_program("var x = [-1,1]; thread 1 { if x > 0 then { }"
                      " while x < 0 do { } { } x <- 1 / x; }")
    skips = {s.sid for s in sub_stmts(p.threads[0].body)
             if isinstance(s, Guard)}
    assert len(skips) == 3
    errors = (run_interleavings(p, unroll=2).errors
              | run_scheduled(p, unroll=2).errors)
    assert errors
    for res in (analyze_program_seq(p), analyze_program_I(p),
                analyze_program_C(p, mono=True),
                analyze_program_C(p, mono=False)):
        assert skips <= set(res.per_thread[1].invariants)
        assert errors <= res.omega


def test_transfer_rejects_an_unknown_mode():
    p = parse_program("thread 1 { x <- 1; }")
    st = AbsStateC({C0: BoxEnv.initial(p)}, {})
    with pytest.raises(ValueError, match="unknown engine mode 'blind'"):
        transfer_C(p.threads[0].body, 1, st, mode="blind")


# -- whole-program behavior on the corpus


def test_priority_mutex_mono_exact(corpus):
    p = corpus("priority_mutex")
    res = analyze_program_C(p, mono=True)
    assert joined_final(res, "t") == iv(0, 0)
    assert res.omega == frozenset()
    races = [r for r in res.races_ww + res.races_rw if r.var in ("y", "z")]
    assert races == []


def test_priority_mutex_multi_loses_precision(corpus):
    p = corpus("priority_mutex")
    res = analyze_program_C(p, mono=False)
    assert joined_final(res, "t") == iv(-1, 1)
    # and the scheduled result dominates the non-scheduled analyzer's
    assert joined_final(analyze_program_C(p, mono=True), "t").leq(
        unpartitioned(analyze_program_I(p).per_thread[1].final).get("t"))


def test_priority_mutex_islocked_relation(corpus):
    # in the partition where m is known free, x is exactly 0
    p = corpus("priority_mutex")
    res = analyze_program_C(p, mono=True)
    finals = res.per_thread[2].final
    for c, env in finals.items():
        if "m" in c.free:
            assert env.get("x") == iv(0, 0)


def test_producer_consumer_bounds(corpus):
    thr = tuple(sorted(F(t) for t in (-10_000, -1, 0, 1, 10, 10_000)))
    p = corpus("producer_consumer")
    res = analyze_program_C(p, AnalysisSettings(thresholds=thr), mono=True)
    assert hull(res, "x") == iv(0, 10)
    assert hull(res, "y").hi == INF
    assert res.omega == frozenset()


def test_priority_flow_alarms_both_sites(corpus):
    p = corpus("priority_flow")
    res = analyze_program_C(p, mono=True)
    assert len(res.omega) == 2


def test_well_synchronized_communication_hides_intermediate_writes():
    # inside a critical section the writer stores 0 then 5; a reader that
    # locks the same mutex can only import the final value, so 1/x is
    # provably safe here while the lock-blind analyzer must alarm
    src = """var x = [5,5]; var w; mutex m;
    thread 1 { lock(m); x <- 0; x <- 5; unlock(m); }
    thread 2 { lock(m); w <- 1 / x; unlock(m); }
    """
    p = parse_program(src)
    sched = analyze_program_C(p, mono=True)
    assert sched.omega == frozenset()
    assert joined_final(sched, "w").join(iv(0, 0)) == iv(0, F(1, 5))
    blind = analyze_program_I(p)
    assert len(blind.omega) == 1
    # and the scheduled oracle agrees that no error is reachable
    from racebox.oracle import run_scheduled

    o = run_scheduled(p, unroll=0)
    assert not o.truncated and o.errors == frozenset()


def test_sync_import_spans_initial_value():
    # the reader may also run first: its import must keep the initial 0,
    # so with a zero-crossing initial value the alarm stays
    src = """var x; var w; mutex m;
    thread 1 { lock(m); x <- 5; unlock(m); }
    thread 2 { lock(m); w <- 1 / x; unlock(m); }
    """
    p = parse_program(src)
    sched = analyze_program_C(p, mono=True)
    assert len(sched.omega) == 1  # x in {0, 5}: 0 is reachable
    from racebox.oracle import run_scheduled

    o = run_scheduled(p, unroll=0)
    assert o.errors <= sched.omega and len(o.errors) == 1


def test_degradation_equivalence_without_sync(corpus):
    for name in ("dekker", "increment"):
        p = corpus(name)
        rc = analyze_program_C(p, mono=False)
        ri = analyze_program_I(p)
        assert rc.omega == ri.omega


def test_races_on_increment(corpus):
    p = corpus("increment")
    res = analyze_program_C(p, mono=True)
    ww = {(r.threads, r.var) for r in res.races_ww}
    rw = {(r.threads, r.var) for r in res.races_rw}
    assert ((1, 2), "x") in ww
    assert ((1, 2), "x") in rw  # thread 1 reads x while thread 2 writes it


def test_no_races_single_thread():
    p = parse_program("thread 1 { x <- x + 1; y <- 1 / x; }")
    res = analyze_program_C(p)
    assert res.races_ww == [] and res.races_rw == []


def test_partition_invariant_l_u_disjoint(corpus):
    p = corpus("priority_mutex")
    res = analyze_program_C(p, mono=True)
    for tid, o in res.per_thread.items():
        for sid, envs in o.invariants.items():
            for c in envs:
                assert not (c.held & c.free)
                assert c.tag == WEAK


def test_idempotence_flag(corpus_source):
    for name in ("dekker", "increment", "priority_mutex", "priority_flow"):
        rep = analyze_source(corpus_source(name), RunConfig(mode="scheduled"))
        assert rep["partition_stats"]["idempotent"] is True


def test_partition_cap_coarsens(monkeypatch):
    # three islocked tests in a row would make 2^3 u-partitions; a cap of 2
    # forces joins that only weaken the u component
    src = """mutex a; mutex b; mutex c;
    thread 1 { x <- islocked(a); y <- islocked(b); z <- islocked(c); w <- 1; }
    """
    p = parse_program(src)
    with monkeypatch.context() as m:
        m.setattr(config, "PARTITION_CAP", 2)
        res = analyze_program_C(p, mono=True)
    assert res.max_env_partitions <= 2
    assert joined_final(res, "w") == iv(1, 1)
    # the lost precision is reported, and the uncapped run reports nothing
    assert res.warnings == [
        "partition cap 2 exceeded: partitions differing only in known-free"
        " mutexes were joined"]
    assert analyze_program_C(p, mono=True).warnings == []
    rep = analyze_source(src, RunConfig(mode="scheduled"))
    assert rep["warnings"] == []


def test_diverging_analysis_raises_typed_error_under_optimize():
    # the loop cap is a real exception, not an assert that -O strips
    code = (
        "from racebox import config\n"
        "from racebox.parser import parse_program\n"
        "from racebox.sched import AnalysisDiverged, analyze_program_C\n"
        "p = parse_program('thread 1 { x <- 0;"
        " while x - 10 < 0 do { x <- x + 1; } }')\n"
        "config.LOOP_ITER_CAP = 1\n"
        "try:\n"
        "    analyze_program_C(p)\n"
        "except AnalysisDiverged as e:\n"
        "    print('diverged:', e)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parents[1] / "src")]
        + [x for x in [env.get("PYTHONPATH")] if x])
    r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("diverged: loop")
    assert issubclass(AnalysisDiverged, RuntimeError)


def test_outer_round_cap_raises_typed_error(corpus, monkeypatch):
    monkeypatch.setattr(config, "OUTER_ROUND_CAP", 1)
    for analyze in (analyze_program_I, analyze_program_C):
        try:
            analyze(corpus("increment"))
        except AnalysisDiverged as e:
            assert "within 1 rounds" in str(e)
        else:
            raise AssertionError("the round cap did not fire")
