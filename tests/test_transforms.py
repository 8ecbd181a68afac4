import gc
import hashlib
import os
import random
import sys
import threading
from fractions import Fraction

import pytest

from racebox.concrete import TooManyPaths, paths, sorted_paths
from racebox import transforms
from racebox.config import OracleBudget
from racebox.interference import analyze_program_I
from racebox.oracle import run_interleavings
from racebox.parser import parse_program
from racebox.randgen import GeneratorConfig, fuzz_program, random_program
from racebox.syntax import (
    Assign,
    BinOp,
    Const,
    Guard,
    Location,
    Lock,
    Var,
    pretty_stmt,
    vars_of_stmt,
)
from racebox.transforms import (
    RuleId,
    TransformContext,
    apply_rule,
    check_deterministic,
    check_noerror,
    check_nonblock,
    context_for,
    fuzz_weakmem,
    negative_controls,
)

F = Fraction


def loc():
    return Location(0, 0, 0, "?")


def ctx(fresh=(), local=()):
    return TransformContext(frozenset(fresh), frozenset(local))


def path_of(src, tid=1, unroll=0):
    p = parse_program(src)
    return p, sorted(paths(p.threads[tid - 1].body, unroll).paths,
                     key=len)[-1]


# -- side-condition checks


def test_noerror_simple():
    assert check_noerror(BinOp("+", loc(), Var("x"), Const(F(1), F(1))))
    assert not check_noerror(BinOp("/", loc(), Const(F(1), F(1)), Var("x")))
    assert check_noerror(BinOp("/", loc(), Var("x"), Const(F(2), F(2))))


def test_nonblock():
    one = Const(F(1), F(1))
    assert check_nonblock(BinOp("/", loc(), one, Const(F(2), F(2))))
    # a wide constant divisor always offers a non-zero value
    assert check_nonblock(BinOp("/", loc(), one, Const(F(0), F(1))))
    # a variable divisor may be exactly zero for some environment
    assert not check_nonblock(BinOp("/", loc(), one, Var("x")))
    assert not check_nonblock(BinOp("/", loc(), one, Const(F(0), F(0))))


def test_deterministic():
    assert check_deterministic(BinOp("+", loc(), Var("x"), Const(F(1), F(1))))
    assert not check_deterministic(Const(F(0), F(1)))
    # blocking expressions do not evaluate to exactly one value
    assert not check_deterministic(
        BinOp("/", loc(), Const(F(1), F(1)), Const(F(0), F(0))))


# -- individual rules


def test_redundant_store():
    _, path = path_of("thread 1 { x <- 1; x <- 2; }")
    (app,) = apply_rule(RuleId.RedundantStore, path, ctx())
    assert [pretty_stmt(s).strip() for s in app] == ["x <- 2;"]


def test_redundant_store_blocked_by_nonblock():
    _, path = path_of("thread 1 { x <- 1 / [0,0]; x <- 2; }")
    assert apply_rule(RuleId.RedundantStore, path, ctx()) == []


def test_identity_store():
    _, path = path_of("thread 1 { x <- x; }")
    (app,) = apply_rule(RuleId.IdentityStore, path, ctx())
    assert app == ()


def test_reorder_assigns():
    _, path = path_of("thread 1 { x <- 1; y <- 2; }")
    (app,) = apply_rule(RuleId.ReorderAssigns, path, ctx())
    assert [pretty_stmt(s).strip() for s in app] == \
        ["y <- 2;", "x <- 1;"]


def test_reorder_assigns_dependency_blocks():
    _, path = path_of("thread 1 { x <- 1; y <- x; }")
    assert apply_rule(RuleId.ReorderAssigns, path, ctx()) == []


def test_reorder_guards():
    p, path = path_of("thread 1 { if x = 0 then { if y > 0 then { z <- 1; } } }")
    apps = apply_rule(RuleId.ReorderGuards, path, ctx())
    assert apps and isinstance(apps[0][0], Guard)
    assert apps[0][0].cmp == ">"


def test_guard_before_assign():
    _, path = path_of("thread 1 { x <- 1; if y = 0 then { z <- 1; } }")
    apps = apply_rule(RuleId.GuardBeforeAssign, path, ctx())
    swapped = [a for a in apps if isinstance(a[0], Guard)]
    assert swapped


def _swap(path):
    """path with its first two statements swapped."""
    return (path[1], path[0]) + path[2:]


def _hand_rewrite_misses(src, rewrite=_swap):
    """apply_rule's context for thread 1 of src, its longest path at
    unroll 0, and the outcome of the check fuzz_weakmem runs on the trial
    that rewrites that path by `rewrite`."""
    p, path = path_of(src)
    pools = {1: sorted_paths(paths(p.threads[0].body, 0).paths)}
    alarms = frozenset(analyze_program_I(p).omega)
    outcome, = transforms._check_trials(
        p, pools, alarms, [(1, path, rewrite(path))], OracleBudget(), 0)
    return context_for(p, 1), path, outcome


def test_reorder_guards_requires_noerror():
    """Hoisting a guard that may divide by zero above a guard that never
    holds reaches an error the program cannot: without check_noerror(b)
    ReorderGuards would offer exactly that swap."""
    c, path, outcome = _hand_rewrite_misses(
        "var flag = [1,1]; var x; var y; thread 1 {"
        " if flag = 0 then { if 1 / x < 0 then { y <- 1; } } }")
    assert apply_rule(RuleId.ReorderGuards, path, c) == []
    assert outcome == ("FAIL", [1])


def test_guard_before_assign_requires_nonblock_or_noerror():
    """Hoisting a guard that may divide by zero above an assignment that
    always blocks reaches an error the program cannot: without its
    nonblock(a) or noerror(b) clause GuardBeforeAssign would offer
    exactly that swap."""
    c, path, outcome = _hand_rewrite_misses(
        "var x; var y; thread 1 {"
        " y <- 1 / [0,0]; if 1 / x < 0 then { y <- 2; } }")
    assert apply_rule(RuleId.GuardBeforeAssign, path, c) == []
    assert outcome == ("FAIL", [2])


def test_reorder_assigns_requires_independent_writes():
    """Moving y <- 0 above x <- y, which reads y, makes x 0 where the
    program keeps it 1, so 1 / x divides by zero: without its b.var not
    in vars(a.expr) clause ReorderAssigns would offer exactly that swap
    on the first two statements."""
    c, path, outcome = _hand_rewrite_misses(
        "var x; var y = [1,1]; var z; thread 1 {"
        " x <- y; y <- 0; z <- 1 / x; }")
    assert apply_rule(RuleId.ReorderAssigns, path[:2], c) == []
    assert outcome == ("FAIL", [1])


def test_assign_propagation_requires_local_reads():
    """Propagating x <- y into the guard x - 1 = 0 reads y again, after
    thread 2 may have changed it: the guard can then hold while x is 0,
    and 1 / x divides by zero.  y is not local to thread 1, so without
    its vars(a.expr) <= local clause AssignPropagation would offer
    exactly that rewrite of the guard."""
    def propagate(path):
        g = path[1]
        return (path[0], Guard(g.sid, BinOp(g.expr.op, g.expr.loc, Var("y"),
                                            g.expr.right), g.cmp)) + path[2:]

    c, path, outcome = _hand_rewrite_misses(
        "var x; var y = [1,1]; var z; thread 1 {"
        " x <- y; if x - 1 = 0 then { z <- 1 / x; } }"
        " thread 2 { y <- 0; y <- 1; }", propagate)
    assert [pretty_stmt(s).strip() for s in propagate(path)[:2]] == [
        "x <- y;", "y - 1 = 0 ?"]
    assert apply_rule(RuleId.AssignPropagation, path[:2], c) == []
    assert outcome == ("FAIL", [2])


def test_assign_before_guard_requires_local():
    src = "thread 1 { if y = 0 then { x <- 1; } }"
    _, path = path_of(src)
    # x not local: rejected
    assert apply_rule(RuleId.AssignBeforeGuard, path, ctx(local=())) == []
    apps = apply_rule(RuleId.AssignBeforeGuard, path, ctx(local=("x",)))
    (app,) = apps
    assert isinstance(app[0], Assign)


def test_assign_propagation_subsets():
    _, path = path_of("thread 1 { x <- y + 1; z <- x + x; }")
    apps = apply_rule(RuleId.AssignPropagation, path, ctx(local=("y",)))
    results = {tuple(pretty_stmt(s).strip() for s in a) for a in apps}
    # one, the other, or both occurrences replaced
    assert ("x <- y + 1;", "z <- y + 1 + x;") in results
    assert ("x <- y + 1;", "z <- x + (y + 1);") in results
    assert ("x <- y + 1;", "z <- y + 1 + (y + 1);") in results


def test_assign_propagation_needs_deterministic():
    _, path = path_of("thread 1 { x <- [0,1]; z <- x; }")
    assert apply_rule(RuleId.AssignPropagation, path, ctx(local=())) == []


def test_subexpr_elim_uses_fresh_var():
    _, path = path_of("thread 1 { a <- y + 1; b <- y + 1; }")
    apps = apply_rule(RuleId.SubexprElim, path, ctx(fresh=("tmp",)))
    best = [a for a in apps if len(a) == 3]
    assert any(
        tuple(pretty_stmt(s).strip() for s in a) ==
        ("tmp <- y + 1;", "a <- tmp;", "b <- tmp;")
        for a in best)


def test_subexpr_elim_requires_fresh():
    _, path = path_of("thread 1 { a <- y + 1; }")
    assert apply_rule(RuleId.SubexprElim, path, ctx(fresh=())) == []


def test_expr_simplify_identities():
    _, path = path_of("thread 1 { a <- y + 0; }")
    apps = apply_rule(RuleId.ExprSimplify, path, ctx(local=("y",)))
    assert any(pretty_stmt(a[0]).strip() == "a <- y;" for a in apps)
    # non-local variable: no rewrite
    assert apply_rule(RuleId.ExprSimplify, path, ctx(local=())) == []


def test_expr_simplify_constant_folding():
    _, path = path_of("thread 1 { a <- [1,2] + [3,4]; }")
    apps = apply_rule(RuleId.ExprSimplify, path, ctx())
    assert any(pretty_stmt(a[0]).strip() == "a <- [4,6];"
               for a in apps)


def test_expr_simplify_occurrence_subsets_in_order():
    _, path = path_of("thread 1 { a <- (y + 0) * (y + 0) - --[1,1] * 1; }")
    apps = apply_rule(RuleId.ExprSimplify, path, ctx(local=("y",)))
    assert [pretty_stmt(a[0]).strip() for a in apps] == [
        "a <- y * (y + 0) - (-(-1)) * 1;",
        "a <- (y + 0) * y - (-(-1)) * 1;",
        "a <- y * y - (-(-1)) * 1;",
        "a <- (y + 0) * (y + 0) - (-(-1));",
        "a <- (y + 0) * (y + 0) - 1 * 1;",
        "a <- (y + 0) * (y + 0) - (-[-1,-1]) * 1;",
    ]


def test_windows_never_cross_sync():
    src = "mutex m; thread 1 { x <- 1; lock(m); x <- 2; }"
    _, path = path_of(src)
    # the two stores are separated by lock(m): no rule window may span it
    for rule in RuleId:
        for app in apply_rule(rule, path, context_for(parse_program(src), 1)):
            assert sum(isinstance(s, Lock) for s in app) == 1


# -- fuzzing harness


def test_fuzz_identity_chain_reduces_to_plain_inclusion(corpus):
    p = corpus("increment")
    rep = fuzz_weakmem(p, trials=5, chain=1, seed=1, unroll=0)
    assert not rep.violations


def test_fuzz_dekker_reordering_still_covered(corpus):
    # reordering the flag store and the guard exposes non-SC behaviors;
    # the interference analysis of the original program must still cover
    # every error the transformed interleavings can reach
    p = corpus("dekker")
    rep = fuzz_weakmem(p, trials=40, chain=3, seed=7, unroll=0)
    assert not rep.violations
    assert sum(d["applied"] for d in rep.per_rule.values()) > 0


def test_fuzz_randomized_programs():
    violations = 0
    applied = 0
    for seed in range(12):
        p = random_program(random.Random(7000 + seed),
                           GeneratorConfig(max_stmts=6), sync=False)
        rep = fuzz_weakmem(p, trials=6, chain=3, seed=seed, unroll=2)
        violations += len(rep.violations)
        applied += sum(d["applied"] for d in rep.per_rule.values())
    assert violations == 0
    assert applied > 20


@pytest.mark.parametrize("kw", [{"trials": -1}, {"chain": 0}],
                         ids=["trials", "chain"])
def test_fuzz_rejects_negative_trials_and_empty_chains(corpus, monkeypatch,
                                                       kw):
    """Checked at entry, before the alarms are computed."""
    def no_analysis(*a, **k):
        raise AssertionError("analyzed a rejected call")

    monkeypatch.setattr(transforms, "analyze_program_I", no_analysis)
    (name, value), = kw.items()
    with pytest.raises(ValueError, match=f"{name} must be .*got {value}"):
        fuzz_weakmem(corpus("increment"), **kw)


def test_fuzz_memo_is_empty_before_the_checks(monkeypatch):
    """The draw's tables, its memo of expression facts and its pool
    paths' scans, are empty before the checks, which may fork.  The
    checks compile each primitive once for all their runs, into one
    table that does not outlive them."""
    from racebox import oracle

    real, real_run = transforms._check_trials, transforms.run_interleavings
    real_compile = oracle.compile_prim
    live, tables, compiled = [], [], []

    def check_trials(*a):
        live.extend(o for o in gc.get_objects()
                    if isinstance(o, transforms._Facts)
                    and (any(o.memos.values()) or o.scans))
        out = real(*a)
        # held by `tables` alone: not by a closure, a cycle or a global
        assert gc.get_referrers(tables[0]) == [tables]
        return out

    def run(p, **kw):
        if not any(t is kw["prims"] for t in tables):
            tables.append(kw["prims"])
        return real_run(p, **kw)

    def compile_prim(s, idx):
        compiled.append((id(s.expr), getattr(s, "var", None),
                         getattr(s, "cmp", None)))
        return real_compile(s, idx)

    monkeypatch.setattr(transforms, "_check_trials", check_trials)
    monkeypatch.setattr(transforms, "run_interleavings", run)
    monkeypatch.setattr(oracle, "compile_prim", compile_prim)
    rep = fuzz_weakmem(fuzz_program(88_000), trials=8, chain=4, seed=0,
                       unroll=2)
    assert rep.effective and not live
    # B and the grouped runs, all with one table, each primitive once
    assert len(tables) == 1 and compiled
    assert len(set(compiled)) == len(compiled)


def test_negative_controls_all_detected():
    controls = negative_controls()
    assert len(controls) >= 3
    assert all(c.detected for c in controls)


@pytest.mark.parametrize("k", [1, 2])
def test_negative_controls_run_the_fuzz_plan(cpus, monkeypatch, k):
    """Each control is one _check_trials call with one trial, the plan
    fuzz_weakmem runs, on one CPU or two.  Control (c) rewrites one of
    its thread's two paths: B passes, so its R's outcome stands and no
    P' runs.  The other three rewrite their thread's only path, whose R
    is its P'.  Runs are named as _run_names names them."""
    calls, runs = [], []
    real_check = transforms._check_trials
    real_run = transforms.run_interleavings

    def check_trials(p, pools, alarms, trials, budget, unroll):
        name, _ = _namer(pools, trials)
        calls.append(len(trials))
        runs.append([])

        def run(p, **kw):
            runs[-1].append(name(kw["thread_paths"]))
            return real_run(p, **kw)

        monkeypatch.setattr(transforms, "run_interleavings", run)
        return real_check(p, pools, alarms, trials, budget, unroll)

    monkeypatch.setattr(transforms, "_check_trials", check_trials)
    forks = cpus(k)
    assert all(c.detected for c in negative_controls())
    assert not forks and calls == [1, 1, 1, 1]
    assert runs == [["P0"], ["P0"], ["B", "R0"], ["P0"]]


def test_negative_controls_pinned():
    assert [(c.name, c.detected, c.missing)
            for c in negative_controls()] == [
        ("reorder-assigns without nonblock(e1)", True, [2]),
        ("redundant-store without nonblock(e1)", True, [2]),
        ("assign-before-guard with shared X2", True, [1]),
        ("expr-simplify without containment", True, [1]),
    ]


# thread 2 has 16,384 paths at unroll 3
SEVEN_LOOPS = ("var x; var a; var b; var c;\n"
               "thread 1 { a <- 1; b <- 2; c <- 3; }\n"
               "thread 2 { " + "while x - 3 < 0 do { x <- x + 1; } " * 7
               + "}\n")


def test_runs_list_only_the_thread_they_rewrite(cpus, monkeypatch):
    """B lists no thread, and every other run lists only the thread its
    trials rewrote: the rest step structurally.  Of the seven-loop
    program's 50 trials, B passes and each thread's trials share one run
    U; each negative control lists at most thread 1."""
    p = parse_program(SEVEN_LOOPS)
    listed = []
    real = transforms.run_interleavings

    def run(p, **kw):
        listed.append(sorted(kw["thread_paths"]))
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", run)
    cpus(1)
    rep = fuzz_weakmem(p, trials=50, seed=0, unroll=3)
    assert rep.effective and listed == [[], [2], [1]]
    listed.clear()
    assert all(c.detected for c in negative_controls())
    assert listed and all(tids in ([], [1]) for tids in listed)


def test_stepped_runs_equal_their_listed_runs(cpus, monkeypatch):
    """Every run of the criterion-8 programs at unroll 2, of 88054 with no
    alarms (so that P's run too) and of three looping fuzz programs at
    unroll 3 gives the ExploreResult of the same run with every thread it
    does not list listed through concrete.paths, bar paths_truncated,
    which no verdict reads.  88013 is left out for time: its nine runs
    take 466,000 states."""
    real = transforms.run_interleavings
    seen = []

    def replay(p, **kw):
        res, own = real(p, **kw), kw["thread_paths"]
        listed = real(p, **{**kw, "thread_paths": {
            t.tid: own[t.tid] if t.tid in own
            else paths(t.body, kw["unroll"]).paths for t in p.threads}})
        assert ({f: getattr(res, f) for f in res._fields
                 if f != "paths_truncated"}
                == {f: getattr(listed, f) for f in res._fields
                    if f != "paths_truncated"})
        seen.append(len(own))
        return res

    monkeypatch.setattr(transforms, "run_interleavings", replay)
    cpus(1)
    for n in range(28):
        if n != 13:
            fuzz_weakmem(fuzz_program(88_000 + n), trials=8, chain=4,
                         seed=n, unroll=2)
    fuzz_weakmem(fuzz_program(88_054), trials=8, chain=4, seed=54,
                 unroll=2, alarms=frozenset())
    for n in (7, 25, 37):
        fuzz_weakmem(fuzz_program(88_000 + n), trials=8, chain=4, seed=n,
                     unroll=3)
    assert set(seen) == {0, 1} and len(seen) > 100


# -- checking trials in forked children


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes k CPUs usable; returns the list to which os.fork
    appends, at each call, the number of threads this process had."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(k)))
        forks.clear()
        return forks

    return use


def _assert_no_children():
    """Every child was reaped: waitpid finds none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fuzz_both_ways(cpus, p, **kw):
    cpus(1)
    alone = fuzz_weakmem(p, **kw)
    forks = cpus(2)
    shared = fuzz_weakmem(p, **kw)
    assert forks
    _assert_no_children()
    return alone, shared


@pytest.mark.parametrize("n", [11, 25, 37])
def test_fuzz_report_equal_with_children(cpus, n):
    """Programs whose first job, B, crosses FORK_MIN_STATES give the same
    report checked in one process and with children."""
    alone, shared = _fuzz_both_ways(cpus, fuzz_program(88_000 + n), trials=8,
                                    chain=4, seed=n, unroll=2)
    assert shared == alone and alone.effective > 1


@pytest.mark.parametrize("n", [0, 5])
def test_fuzz_report_equal_with_children_below_threshold(cpus, monkeypatch,
                                                         n):
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    alone, shared = _fuzz_both_ways(cpus, fuzz_program(88_000 + n), trials=8,
                                    chain=4, seed=n, unroll=2)
    assert shared == alone and alone.effective > 1


def test_fuzz_violations_in_trial_order_with_children(cpus, monkeypatch,
                                                     corpus):
    """With no alarms to cover them, the oracle's errors are violations:
    the same ones, in the same order, whichever process found them."""

    class NoAlarms:
        omega = frozenset()

    monkeypatch.setattr(transforms, "analyze_program_I",
                        lambda p, settings=None: NoAlarms)
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    alone, shared = _fuzz_both_ways(cpus, corpus("dekker"), trials=12,
                                    chain=4, seed=3, unroll=1)
    assert [v.missing for v in alone.violations] == [[1, 3], [3]]
    assert shared.violations == alone.violations and shared == alone


class _Local(Exception):
    """An error that does not pickle once its module attribute is gone."""


def _drawn(cpus, monkeypatch, p, **kw):
    """The base paths of every thread, as the set of its pool, and the
    trials (tid, old path, new path), in order, that fuzz_weakmem(p, **kw)
    checks, from a run with one CPU."""
    got = []
    real = transforms._check_trials

    def record(p, pools, alarms, trials, budget, unroll):
        got.append((pools, trials))
        return real(p, pools, alarms, trials, budget, unroll)

    monkeypatch.setattr(transforms, "_check_trials", record)
    cpus(1)
    fuzz_weakmem(p, **kw)
    monkeypatch.setattr(transforms, "_check_trials", real)
    (pools, trials), = got
    return {tid: frozenset(pool) for tid, pool in pools.items()}, trials


def _reduced(tid, new):
    """A trial's reduced run R: tid has only its new path, and every other
    thread steps structurally."""
    return {tid: frozenset({new})}


def _full(base, tid, old, new):
    """A trial's full check P': tid's path old replaced by new."""
    return {tid: (frozenset(base[tid]) - {old}) | {new}}


def _units(trials):
    """Each rewritten thread's grouped run U, in the order of the
    threads' first trials: tid has the new path of every trial of tid,
    and every other thread steps structurally."""
    news = {}
    for tid, _, new in trials:
        news.setdefault(tid, set()).add(new)
    return {tid: {tid: frozenset(ps)} for tid, ps in news.items()}


def _run_names(cpus, monkeypatch, p, **kw):
    """A function that names each oracle run fuzz_weakmem(p, **kw) can
    make, in any process, by the thread paths it lists: "B" for the
    untransformed program's run, which lists none, and for trial i,
    in trial order, "P{i}" for its full check P' and "R{i}" for its
    reduced run R, and for a rewritten thread tid, "U{tid}" for its
    grouped run U.  A run that is several of these takes the first name
    in the order B, P0, R0, P1, R1, ..., U: a trial whose R is its P'
    names the run "P{i}", trials that share a run name it by the first
    of them, and a U of one new path is that path's R.  Also returns the
    number of trials and of distinct runs other than the Us."""
    base, trials = _drawn(cpus, monkeypatch, p, **kw)
    name, distinct = _namer(base, trials)
    return name, len(trials), distinct


def _namer(base, trials):
    """The naming function of _run_names for the runs that check
    `trials` against `base`, and the number of distinct runs."""
    first = {}
    for i, (tid, old, new) in enumerate(trials):
        for label, q in (("B", {}), (f"P{i}", _full(base, tid, old, new)),
                         (f"R{i}", _reduced(tid, new))):
            first.setdefault(frozenset(q.items()), label)
    units = {frozenset(q.items()): f"U{tid}"
             for tid, q in _units(trials).items()}

    def name(thread_paths) -> str:
        key = frozenset(thread_paths.items())
        return first[key] if key in first else units[key]

    return name, len(first)


def _raise_on(cpus, monkeypatch, raising, exc=ValueError):
    """Make the oracle runs of the trials numbered in `raising` (in trial
    order), their R as well as their P', raise exc("trial i").  A run is
    recognised by its thread paths, so the same runs raise in every
    process."""
    p = fuzz_program(88_001)
    name, n, distinct = _run_names(cpus, monkeypatch, p, trials=8, chain=4,
                                   seed=1, unroll=2)
    # no two trials share a run, nor does B, so each name is one trial's
    assert n == 8 and distinct == 2 * n + 1
    real = transforms.run_interleavings

    def run(p, **kw):
        run_name = name(kw["thread_paths"])
        if run_name != "B" and int(run_name[1:]) in raising:
            raise exc(f"trial {run_name[1:]}")
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", run)
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    return p


@pytest.mark.parametrize("raising", [[3], [2, 3], [3, 4], [5, 7], [6], [0],
                                     [0, 3]])
def test_fuzz_raises_the_first_trial_error_with_children(cpus, monkeypatch,
                                                         raising):
    """A trial that raises, in the probe or in a child, in its R or its
    P', raises what the sequential check raises: the error of the first
    such trial in order."""
    p = _raise_on(cpus, monkeypatch, raising)
    errors = []
    for k in (1, 2):
        forks = cpus(k)
        with pytest.raises(ValueError) as e:
            fuzz_weakmem(p, trials=8, chain=4, seed=1, unroll=2)
        assert bool(forks) == (k == 2)
        _assert_no_children()
        errors.append(str(e.value))
    assert errors == [f"trial {raising[0]}"] * 2


def test_fuzz_child_error_that_does_not_pickle(cpus, monkeypatch):
    p = _raise_on(cpus, monkeypatch, [3], exc=_Local)
    monkeypatch.setattr(sys.modules[__name__], "_Local", None)
    cpus(2)
    with pytest.raises(RuntimeError, match=r"_Local\('trial 3'\)"):
        fuzz_weakmem(p, trials=8, chain=4, seed=1, unroll=2)
    _assert_no_children()


def test_fuzz_child_that_dies_is_an_error(cpus, monkeypatch):
    parent = os.getpid()
    real = transforms.run_interleavings

    def die_in_child(p, **kw):
        if os.getpid() != parent:
            os._exit(7)
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", die_in_child)
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    cpus(2)
    with pytest.raises(RuntimeError, match="exited without its result"):
        fuzz_weakmem(fuzz_program(88_012), trials=8, chain=4, seed=12,
                     unroll=2)
    _assert_no_children()


def test_fuzz_draw_error_waits_for_earlier_checks(cpus, monkeypatch):
    """An error while drawing a trial is raised after the trials drawn
    before it were checked, unless one of those checks raised first."""
    p = fuzz_program(88_001)  # all 8 trials effective
    real_run = transforms.run_interleavings
    runs = []

    def run(p, **kw):
        runs.append(1)
        return real_run(p, **kw)

    class FailsAtTrial5(random.Random):
        started = 0

        def choice(self, seq):  # once, as each trial starts
            self.started += 1
            if self.started == 6:
                raise KeyError("draw")
            return super().choice(seq)

    cpus(1)
    monkeypatch.setattr(transforms, "run_interleavings", run)
    monkeypatch.setattr(transforms.random, "Random", FailsAtTrial5)
    with pytest.raises(KeyError, match="draw"):
        fuzz_weakmem(p, trials=8, chain=4, seed=1, unroll=2)
    # B, then one run for the five trials' one rewritten thread
    assert len(runs) == 2

    def fail(p, **kw):
        raise ValueError("check")

    monkeypatch.setattr(transforms, "run_interleavings", fail)
    with pytest.raises(ValueError, match="check"):
        fuzz_weakmem(p, trials=8, chain=4, seed=1, unroll=2)


def test_fuzz_one_cpu_never_forks(cpus, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    cpus(1)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    rep = fuzz_weakmem(fuzz_program(88_012), trials=8, chain=4, seed=12,
                       unroll=2)
    assert rep.effective > 1


def _log_runs(cpus, monkeypatch, log, p, **kw):
    """Make every oracle run of fuzz_weakmem(p, **kw), in any process,
    append a line `pid name max_states` to the file `log`, with the name
    _run_names gives it.  Returns the number of trials."""
    name, n, _ = _run_names(cpus, monkeypatch, p, **kw)
    real = transforms.run_interleavings

    def logged(p, **kw):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {name(kw['thread_paths'])}"
                    f" {kw['budget'].max_states}\n")
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", logged)
    log.write_text("")
    return n


def _runs(log):
    """The (name, max_states) of each logged run of this process, in
    order, and those of the other processes, sorted."""
    runs = [line.split() for line in log.read_text().splitlines()]
    me = str(os.getpid())
    return ([(name, int(m)) for pid, name, m in runs if pid == me],
            sorted((name, int(m)) for pid, name, m in runs if pid != me))


FULL = OracleBudget().max_states


def test_fuzz_children_check_every_trial_once(cpus, monkeypatch, tmp_path):
    """With two CPUs and a first job, B, larger than FORK_MIN_STATES,
    this process runs only the probe of B.  The children run B once and
    each trial's R once, all under the full budget, and no P': B covers
    every base path here."""
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(2)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert len(forks) == 2 and rep.effective == n > 2
    assert _runs(log) == ([("B", transforms.FORK_MIN_STATES)],
                          [("B", FULL)] + [(f"R{t}", FULL) for t in range(n)])


@pytest.mark.parametrize("k", [1, 2])
def test_fuzz_small_trials_are_checked_once_in_process(cpus, monkeypatch,
                                                       tmp_path, k):
    """With one CPU there is no probe; with two, a first job, B, that
    ends within FORK_MIN_STATES states is its own probe.  Either way B
    runs once, then one run per rewritten thread, all in this process;
    no P' runs and nothing forks.  88001's eight trials rewrite its one
    thread to eight paths, which one run U1 checks."""
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_001), dict(trials=8, chain=4, seed=1, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(k)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert not forks and rep.effective == n > 1
    probe = transforms.FORK_MIN_STATES if k == 2 else FULL
    assert _runs(log) == ([("B", probe), ("U1", FULL)], [])


def test_fuzz_one_cpu_checks_each_trial_once(cpus, monkeypatch, tmp_path):
    """With one CPU even large trials are checked in process, by the
    plan the children follow, with no probe: B once and each trial's R
    once, in order, no P' (B covers every base path here) and no
    fork."""
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(1)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert not forks and rep.effective == n
    assert _runs(log) == (
        [("B", FULL)] + [(f"R{t}", FULL) for t in range(n)], [])


def test_fuzz_one_trial_is_checked_in_process(cpus, monkeypatch, tmp_path):
    """A lone trial that rewrites its thread's only path is one job, its
    R, which is its P': this process runs it, with no probe, however
    large it is, since a child would only add a fork."""
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_004), dict(trials=1, chain=4, seed=0, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(2)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert not forks and rep.effective == n == 1
    assert _runs(log) == ([("P0", FULL)], [])


@pytest.mark.parametrize("extra", [0, -1, -500])
def test_fuzz_budget_within_the_probe_never_forks(cpus, monkeypatch,
                                                  tmp_path, extra):
    """A budget of at most FORK_MIN_STATES states is no larger than the
    probe's: every job runs in order in process, with no probe, and the
    report is the one a single CPU gives.  The budget cuts B off, so no
    R's outcome stands: B and each R run, then each P'."""
    log = tmp_path / "runs"
    budget = OracleBudget(transforms.FORK_MIN_STATES + extra)
    p = fuzz_program(88_011)
    kw = dict(trials=8, chain=4, seed=11, unroll=2, budget=budget)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    cpus(1)
    alone = fuzz_weakmem(p, **kw)
    log.write_text("")
    forks = cpus(2)
    shared = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert not forks and shared == alone and alone.inconclusive > 0
    runs = ["B"] + [f"R{t}" for t in range(n)] + [f"P{t}" for t in range(n)]
    assert _runs(log) == ([(run, budget.max_states) for run in runs], [])


def test_fuzz_child_that_dies_mid_run_is_an_error(cpus, monkeypatch):
    """A child that dies while running trial 5's R loses its result,
    while the other child runs the rest: the call raises, without
    waiting on the lost run, and leaves no child."""
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    name, _, _ = _run_names(cpus, monkeypatch, p, **kw)
    real = transforms.run_interleavings
    parent = os.getpid()

    def die_on_trial_5(p, **kw):
        if os.getpid() != parent and name(kw["thread_paths"]) == "R5":
            os._exit(7)
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", die_on_trial_5)
    forks = cpus(2)
    with pytest.raises(RuntimeError, match="exited without its result"):
        fuzz_weakmem(p, **kw)
    assert len(forks) == 2
    _assert_no_children()


@pytest.mark.parametrize("case", ["alarms", "budget", "base cut off",
                                  "base raises"])
def test_fuzz_children_fall_back_to_full_checks(cpus, monkeypatch, tmp_path,
                                                case):
    """A trial takes its R's outcome only when B ended within the budget
    with alarms alone as errors, and R ended within it with R.states +
    B.states within it too.  Here no trial may: the alarms miss an error
    of B (program 88190, with no alarms), or the budget is B's own states
    (88011), or it cuts B off (88011), or B raises (88011).  Then B and
    every R run, then every P', and the report is the one a single CPU
    gives.  The children run them after a probe of B that is cut off;
    a probe that raises is B's full run, and this process runs the rest.
    Three trials of 88190 rewrite their thread's only path: their R is
    their P', which runs once and stands whatever B found."""
    n = 190 if case == "alarms" else 11
    p, kw = fuzz_program(88_000 + n), dict(trials=8, chain=4, seed=n,
                                           unroll=2)
    if case == "alarms":
        kw["alarms"] = frozenset()
        monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    base, trials = _drawn(cpus, monkeypatch, p, **kw)
    b = run_interleavings(p, thread_paths=base, collect_witnesses=False)
    assert not b.truncated
    if case == "alarms":
        assert b.errors
    elif case == "budget":
        kw["budget"] = OracleBudget(b.states)
    elif case == "base cut off":
        kw["budget"] = OracleBudget((b.states + transforms.FORK_MIN_STATES)
                                    // 2)
    assert b.states > transforms.FORK_MIN_STATES + 1
    log = tmp_path / "runs"
    _log_runs(cpus, monkeypatch, log, p, **kw)
    if case == "base raises":
        logged = transforms.run_interleavings

        def run(p, **kw):
            res = logged(p, **kw)
            if kw["thread_paths"] == {}:
                raise ValueError("B")
            return res

        monkeypatch.setattr(transforms, "run_interleavings", run)
    cpus(1)
    alone = fuzz_weakmem(p, **kw)
    log.write_text("")
    forks = cpus(2)
    shared = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert bool(forks) != (case == "base raises") and shared == alone
    whole = [base[tid] == {old} for tid, old, _ in trials]
    assert len(whole) == 8 and sum(whole) == (3 if case == "alarms" else 0)
    # in job order: B, each R (named P if it is its trial's P'), each P'
    max_states = kw.get("budget", OracleBudget()).max_states
    runs = [(run, max_states) for run in ["B"] + [
        f"P{t}" if whole[t] else f"R{t}" for t in range(8)] + [
        f"P{t}" for t in range(8) if not whole[t]]]
    probe = ("B", transforms.FORK_MIN_STATES)
    assert _runs(log) == (([probe] + runs[1:], []) if case == "base raises"
                          else ([probe], sorted(runs)))


@pytest.mark.parametrize("n", [1, 11, 12, 25, 54])
def test_reduced_runs_give_the_full_checks_verdicts(cpus, monkeypatch, n):
    """The argument that lets a trial take its R's outcome, trial by
    trial on fuzz programs whose B reaches the children (88011, 88025)
    or ends within FORK_MIN_STATES (88001, 88012, 88054): B ends within
    its budget with alarms alone as errors, errors(R) <= errors(P') <=
    errors(R) | errors(B), so errors(P') - alarms == errors(R) - alarms,
    and states(P') <= states(R) + states(B).  Where B is that small, a
    thread's trials share its grouped run U, of which each of their R is
    a sub-run: errors(R) <= errors(U) and states(R) <= states(U).  So
    each R of a U that passed passes too, and fits in B's room when U
    does.  Of those three, only 88054's runs have errors."""
    p = fuzz_program(88_000 + n)
    base, trials = _drawn(cpus, monkeypatch, p, trials=8, chain=4, seed=n,
                          unroll=2)
    alarms = frozenset(analyze_program_I(p).omega)

    def run(thread_paths):
        res = run_interleavings(p, unroll=2, thread_paths=thread_paths,
                                collect_witnesses=False)
        assert not res.truncated
        return res

    b = run({})
    assert b.errors <= alarms
    small = b.states <= transforms.FORK_MIN_STATES
    assert small == (n in (1, 12, 54))
    units = ({tid: run(q) for tid, q in _units(trials).items()}
             if small else {})
    for tid, old, new in trials:
        r, full = run(_reduced(tid, new)), run(_full(base, tid, old, new))
        assert r.errors <= full.errors <= r.errors | b.errors
        assert full.errors - alarms == r.errors - alarms
        assert full.states <= r.states + b.states
        if small:
            assert r.errors <= units[tid].errors
            assert r.states <= units[tid].states
    assert any(u.errors for u in units.values()) == (n == 54)


def _outcomes(check):
    """("ok", check()), or ("raises", its message) if it raised a
    ValueError."""
    try:
        return "ok", check()
    except ValueError as e:
        return "raises", str(e)


# the criterion-8 programs whose every trial rewrites its thread's only
# path: they run no B
SINGLE_PATH = (4, 6, 10, 16, 19, 23, 26)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n,case", [
    (11, "alarms"), (12, "alarms"), (25, "alarms"),
    (53, "no alarms"), (54, "no alarms"), (12, "U1 raises"),
    (12, "U1, P3 and P6 raise")] + [(n, "alarms") for n in SINGLE_PATH],
    ids=["11", "12", "25", "53-no-alarms", "54-no-alarms", "12-U1-raises",
         "12-U1-P3-P6-raise"] + [str(n) for n in SINGLE_PATH])
def test_check_trials_give_the_full_checks_outcomes(cpus, monkeypatch, n,
                                                    case, k):
    """On one CPU or two, every trial gets the outcome of the reference,
    its full check P' run alone, or the call raises what the first P'
    that raises, in trial order, raises.  88011 and 88025 fork with two
    CPUs.  In the SINGLE_PATH programs every trial rewrites its thread's
    only path, so its R is its P' and no B runs: the first job is trial
    0's R, and since it ends within FORK_MIN_STATES states, one grouped
    run per rewritten thread then checks every trial, as each trial's
    own R would.  B ends within FORK_MIN_STATES on the rest, so their
    trials are checked one run per rewritten thread.  With no alarms,
    every such run with an error fails, and its trials go to their P':
    in 88053 no trial rewrote its thread's only path, and 88054 has both
    kinds of trial.  In 88012, thread 1's run U1 (trials 1, 3 and 6) raises,
    alone or with the P' of trials 3 and 6: its trials get their P',
    and trial 3's error is raised."""
    p = fuzz_program(88_000 + n)
    base, trials = _drawn(cpus, monkeypatch, p, trials=8, chain=4, seed=n,
                          unroll=2)
    alarms = (frozenset() if case == "no alarms"
              else frozenset(analyze_program_I(p).omega))
    budget = OracleBudget()
    name, _ = _namer(base, trials)
    raising = case.replace(",", "").split()[:-1] if "raise" in case else []
    ran, raised = [], []

    def run(p, **kw):
        ran.append(kw["thread_paths"])
        if name(ran[-1]) in raising:
            raised.append(name(ran[-1]))
            raise ValueError(raised[-1])
        return run_interleavings(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", run)
    reference = _outcomes(lambda: [transforms._outcome(run(
        p, unroll=2, budget=budget, thread_paths=_full(base, *t),
        collect_witnesses=False), alarms) for t in trials])
    assert reference[0] == ("raises" if "P3" in raising else "ok")
    ran.clear()
    raised.clear()
    forks = cpus(k)
    assert _outcomes(lambda: transforms._check_trials(
        p, base, alarms, trials, budget, 2)) == reference
    assert raised[:1] == raising[:1]
    assert bool(forks) == (k == 2 and n in (11, 25))
    _assert_no_children()
    if n in SINGLE_PATH:
        # trial 0's R, then the grouped runs that are not that R
        r0 = _reduced(trials[0][0], trials[0][2])
        units = [q for q in _units(trials).values() if q != r0]
        assert all(len(base[tid]) == 1 for tid, _, _ in trials)
        assert units and ran == [r0] + units
    if n in (12, 53, 54):
        # B, one run per rewritten thread, some of several new paths,
        # and then, unless each of those runs settled its trials, P's
        units = _units(trials)
        assert ran[:len(units) + 1] == [{}] + list(units.values())
        assert any(len(q[tid]) > 1 for tid, q in units.items())
        assert (len(ran) > len(units) + 1) == (case != "alarms")
    if case == "no alarms":
        # B and every run failed: a one-path run stands for its trials
        # only when it is their P', and the rest go to their P', in order
        stands = {tid for tid, q in units.items()
                  if len(base[tid]) == len(q[tid]) == 1}
        assert ran[len(units) + 1:] == [
            _full(base, *t) for t in trials if t[0] not in stands]


@pytest.mark.parametrize("k", [1, 2])
def test_fuzz_trials_that_share_a_rewrite_share_its_run(cpus, monkeypatch,
                                                        tmp_path, k):
    """88004 has one thread with one base path, and its eight trials
    rewrite that path to three distinct paths, so no B runs.  The first
    job is trial 0's R, which is its P'; it ends within FORK_MIN_STATES
    states, so one grouped run U1 of the three paths checks every trial.
    With two CPUs the first is its own probe."""
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_004), dict(trials=8, chain=4, seed=4, unroll=2)
    _, trials = _drawn(cpus, monkeypatch, p, **kw)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(k)
    rep = fuzz_weakmem(p, **kw)
    assert not forks and rep.effective == n == 8
    assert len({new for _, _, new in trials}) == 3
    probe = transforms.FORK_MIN_STATES if k == 2 else FULL
    assert _runs(log) == ([("P0", probe), ("U1", FULL)], [])


def test_fuzz_refuses_a_path_pool_past_the_budget(corpus):
    """Each thread's paths are counted before any is made: a count past
    the state budget raises TooManyPaths, naming the thread, the bound
    and the unroll; a count at the budget is checked as usual."""
    dekker = corpus("dekker")  # two paths a thread
    rep = fuzz_weakmem(dekker, trials=4, unroll=1, budget=OracleBudget(2))
    assert rep.trials == 4
    with pytest.raises(TooManyPaths, match="thread 1 spawns more than 1"
                                           " control paths at unroll 1"):
        fuzz_weakmem(dekker, trials=4, unroll=1, budget=OracleBudget(1))


MANY = 20_000


def test_children_pull_every_index_once(cpus):
    """Three children on two CPUs pull many indices, one at a time:
    every index is checked once, in its place."""
    forks = cpus(2)
    out = transforms._check_in_children(lambda i: ("PASS", [i]), MANY, 3)
    _assert_no_children()
    assert len(forks) == 3 and out == [("PASS", [i]) for i in range(MANY)]


def test_children_gone_before_any_index_is_read(cpus):
    """Children that exit at their first check, before any result comes
    back, make the call raise the lost result instead of blocking, and
    leave no child."""
    forks = cpus(2)
    with pytest.raises(RuntimeError, match="exited without its result"):
        transforms._check_in_children(lambda i: os._exit(7), MANY, 2)
    assert len(forks) == 2
    _assert_no_children()


@pytest.mark.parametrize("dies", [False, True], ids=["raises", "dies"])
def test_fuzz_forks_only_with_one_thread(cpus, monkeypatch, dies):
    """Every child is forked while this process has one thread, and a
    forked check that raises, by a trial error or by a dead child, leaves
    no thread behind: the next call forks again.  A pool that forked a
    child on demand, once its own threads run, fails the first check.
    Trial 5's R and P' fail in a child: a death ends the first round of
    children, which runs B and the Rs; an error sends the trial to its
    P', which one more child runs, and raises there."""
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    name, _, _ = _run_names(cpus, monkeypatch, p, **kw)
    real = transforms.run_interleavings
    parent = os.getpid()

    def fail_on_trial_5(p, **kw):
        if (os.getpid() != parent
                and name(kw["thread_paths"]) in ("R5", "P5")):
            if dies:
                os._exit(7)
            raise ValueError("trial 5")
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", fail_on_trial_5)
    forks = cpus(2)
    with pytest.raises(RuntimeError if dies else ValueError,
                       match="exited without" if dies else "trial 5"):
        fuzz_weakmem(p, **kw)
    assert forks == [1] * (2 if dies else 3)
    assert threading.active_count() == 1
    _assert_no_children()
    monkeypatch.setattr(transforms, "run_interleavings", real)
    forks = cpus(2)
    fuzz_weakmem(p, **kw)
    assert forks == [1, 1] and threading.active_count() == 1
    _assert_no_children()


def test_error_cancels_the_pending_indices(cpus, tmp_path):
    """A check that raises cancels the indices no child has taken: the
    call raises long before the children could check them all."""
    log = tmp_path / "runs"

    def check(i):
        with open(log, "a") as f:
            f.write(f"{i}\n")
        if i == 0:
            raise ValueError("index 0")
        return ("PASS", [])

    cpus(2)
    with pytest.raises(ValueError, match="index 0"):
        transforms._check_in_children(check, MANY, 2)
    _assert_no_children()
    assert len(log.read_text().split()) < MANY // 2


# -- pinned outputs: a change to how rules are applied or trials drawn
# must keep every application and every fuzz report


def test_apply_rule_applications_pinned():
    """One sha256 over every application of every rule, in order, on every
    base path of criterion-8 programs 88000-88011 at unroll 2."""
    h = hashlib.sha256()
    for n in range(12):
        p = fuzz_program(88_000 + n)
        for t in p.threads:
            for path in sorted_paths(paths(t.body, 2).paths):
                ctx = context_for(p, t.tid, {
                    v for s in path for v in vars_of_stmt(s)})
                for rule in RuleId:
                    h.update(repr([[f"{s.sid} {pretty_stmt(s)}" for s in app]
                                   for app in apply_rule(rule, path, ctx)]
                                  ).encode())
    assert h.hexdigest() == (
        "58c60e7921c59d1527491503517c28331487b76bae5c50a67a2b7f098edd511e")


def test_fuzz_reports_pinned():
    """One sha256 over the reports of criterion-8 programs 88000-88009 at
    the block's settings and of random programs 90100-90139 with longer
    chains at unroll 1.  Every rule applies somewhere in the set, so
    SubexprElim's windows, AssignPropagation's occurrence subsets and
    ExprSimplify's rewrites are pinned too."""
    runs = [(fuzz_program(88_000 + n),
             dict(trials=8, chain=4, seed=n, unroll=2)) for n in range(10)]
    for seed in range(90_100, 90_140):
        runs.append((fuzz_program(seed),
                     dict(trials=20, chain=6, seed=seed, unroll=1)))
    h = hashlib.sha256()
    applied = dict.fromkeys((r.value for r in RuleId), 0)
    for p, kw in runs:
        rep = fuzz_weakmem(p, **kw)
        h.update(repr(rep).encode())
        for rule, d in rep.per_rule.items():
            applied[rule] += d["applied"]
    assert all(applied.values()), applied
    assert h.hexdigest() == (
        "a52ab039ee572d0e82aff350987626c1cb76a6051d607c95abae14d10f36bfe1")


def test_fuzz_draws_pinned(monkeypatch):
    """One sha256 over the trials fuzz_weakmem draws on the criterion-8
    block, programs 88000-88027 at its settings, in order: each trial's
    thread, rules and pretty-printed paths before and after.  The checks
    are stubbed out to fail every trial, which puts each effective trial
    in the report's violations, so the draw alone is pinned."""
    monkeypatch.setattr(
        transforms, "_check_trials",
        lambda p, pools, alarms, trials, budget, unroll:
        [("FAIL", [])] * len(trials))
    h = hashlib.sha256()
    for n in range(28):
        rep = fuzz_weakmem(fuzz_program(88_000 + n), trials=8, chain=4,
                           seed=n, unroll=2, alarms=frozenset())
        h.update(repr([(v.thread, v.rules, v.path_before, v.path_after)
                       for v in rep.violations]).encode())
    assert h.hexdigest() == (
        "517d5b5275b68f055abdb937bc884bc670cbf8e5622b0280cabba37db3b57f56")
