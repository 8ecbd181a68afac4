import gc
import hashlib
import os
import random
import sys
import threading
from fractions import Fraction

import pytest

from racebox.concrete import paths, sorted_paths
from racebox import transforms
from racebox.config import OracleBudget
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
    return p, sorted(paths(p.thread(tid).body, unroll).paths,
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
    assert rep.ok


def test_fuzz_dekker_reordering_still_covered(corpus):
    # reordering the flag store and the guard exposes non-SC behaviors;
    # the interference analysis of the original program must still cover
    # every error the transformed interleavings can reach
    p = corpus("dekker")
    rep = fuzz_weakmem(p, trials=40, chain=3, seed=7, unroll=0)
    assert rep.ok
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
    """The draw's memo of expression facts does not reach the checks,
    which may fork."""
    real = transforms._check_trials
    live = []

    def check_trials(*a):
        live.extend(o for o in gc.get_objects()
                    if isinstance(o, transforms._Facts) and o.memos)
        return real(*a)

    monkeypatch.setattr(transforms, "_check_trials", check_trials)
    rep = fuzz_weakmem(fuzz_program(88_000), trials=8, chain=4, seed=0,
                       unroll=2)
    assert rep.effective and not live


def test_negative_controls_all_detected():
    controls = negative_controls()
    assert len(controls) >= 3
    assert all(c.detected for c in controls)


def test_negative_controls_pinned():
    assert [(c.name, c.detected, c.missing)
            for c in negative_controls()] == [
        ("reorder-assigns without nonblock(e1)", True, [2]),
        ("redundant-store without nonblock(e1)", True, [2]),
        ("assign-before-guard with shared X2", True, [1]),
        ("expr-simplify without containment", True, [1]),
    ]


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


@pytest.mark.parametrize("n", [11, 12, 25])
def test_fuzz_report_equal_with_children(cpus, n):
    """The block programs whose first trial crosses FORK_MIN_STATES give
    the same report checked in one process and with a child."""
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


def _raise_on(cpus, monkeypatch, raising, exc=ValueError):
    """Make the oracle runs of the trials numbered in `raising` (in trial
    order, counted in a first untouched run) raise exc("trial i").  A
    trial is recognised by its thread paths, so the same trials raise in
    every process."""
    seen = []
    real = transforms.run_interleavings

    def record(p, **kw):
        seen.append(kw["thread_paths"])
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", record)
    p = fuzz_program(88_001)
    cpus(1)
    fuzz_weakmem(p, trials=8, chain=4, seed=1, unroll=2)
    assert len(seen) == 8 and all(seen[i] not in seen[:i] for i in raising)
    marked = {i: seen[i] for i in raising}

    def run(p, **kw):
        for i, paths in marked.items():
            if kw["thread_paths"] == paths:
                raise exc(f"trial {i}")
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", run)
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    return p


@pytest.mark.parametrize("raising", [[3], [2, 3], [3, 4], [5, 7], [6], [0],
                                     [0, 3]])
def test_fuzz_raises_the_first_trial_error_with_children(cpus, monkeypatch,
                                                         raising):
    """A trial that raises, in the probe or in a child, raises what the
    sequential check raises: the error of the first such trial in
    order."""
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
    assert len(runs) == 5

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


def _trial_paths(cpus, monkeypatch, p, **kw):
    """The thread paths of each trial of fuzz_weakmem(p, **kw), in trial
    order, from a run with one CPU."""
    seen = []
    real = transforms.run_interleavings

    def record(p, **kw):
        seen.append(kw["thread_paths"])
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", record)
    cpus(1)
    fuzz_weakmem(p, **kw)
    monkeypatch.setattr(transforms, "run_interleavings", real)
    return seen


def _log_runs(cpus, monkeypatch, log, p, **kw):
    """Make every oracle run of a trial of fuzz_weakmem(p, **kw), in any
    process, append a line `pid trial max_states` to the file `log`.
    Returns the number of trials."""
    seen = _trial_paths(cpus, monkeypatch, p, **kw)
    real = transforms.run_interleavings

    def logged(p, **kw):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {seen.index(kw['thread_paths'])}"
                    f" {kw['budget'].max_states}\n")
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", logged)
    log.write_text("")
    return len(seen)


def _runs(log):
    """The (trial, max_states) of each logged run of this process, in
    order, and those of the other processes, sorted."""
    runs = [line.split() for line in log.read_text().splitlines()]
    me = str(os.getpid())
    return ([(int(t), int(m)) for pid, t, m in runs if pid == me],
            sorted((int(t), int(m)) for pid, t, m in runs if pid != me))


FULL = OracleBudget().max_states


def test_fuzz_children_check_every_trial_once(cpus, monkeypatch, tmp_path):
    """With two CPUs and a first trial larger than FORK_MIN_STATES, this
    process runs only the probe of the first trial, and the children
    check every trial, the first included, exactly once, under the full
    budget."""
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(2)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert len(forks) == 2 and rep.effective == n > 2
    assert _runs(log) == ([(0, transforms.FORK_MIN_STATES)],
                          [(t, FULL) for t in range(n)])


@pytest.mark.parametrize("k", [1, 2])
def test_fuzz_small_trials_are_checked_once_in_process(cpus, monkeypatch,
                                                       tmp_path, k):
    """With one CPU there is no probe; with two, a first trial that ends
    within FORK_MIN_STATES states is its own probe.  Either way each
    trial is checked once, in this process, and nothing forks."""
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_001), dict(trials=8, chain=4, seed=1, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(k)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert not forks and rep.effective == n > 1
    probe = transforms.FORK_MIN_STATES if k == 2 else FULL
    assert _runs(log) == ([(0, probe)] + [(t, FULL) for t in range(1, n)],
                          [])


def test_fuzz_one_cpu_checks_each_trial_once(cpus, monkeypatch, tmp_path):
    """With one CPU even large trials are checked in order in process,
    with no probe: `effective` oracle runs and no fork."""
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(1)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert not forks and rep.effective == n
    assert _runs(log) == ([(t, FULL) for t in range(n)], [])


def test_fuzz_one_trial_is_checked_in_process(cpus, monkeypatch, tmp_path):
    """A lone trial is checked in this process, with no probe, however
    large it is: a child would only add a fork."""
    monkeypatch.setattr(transforms, "FORK_MIN_STATES", 0)
    log = tmp_path / "runs"
    p, kw = fuzz_program(88_011), dict(trials=1, chain=4, seed=0, unroll=2)
    n = _log_runs(cpus, monkeypatch, log, p, **kw)
    forks = cpus(2)
    rep = fuzz_weakmem(p, **kw)
    _assert_no_children()
    assert not forks and rep.effective == n == 1
    assert _runs(log) == ([(0, FULL)], [])


@pytest.mark.parametrize("extra", [0, -1, -500])
def test_fuzz_budget_within_the_probe_never_forks(cpus, monkeypatch,
                                                  tmp_path, extra):
    """A budget of at most FORK_MIN_STATES states is no larger than the
    probe's: every trial is checked in order in process, with no probe,
    and the report is the one a single CPU gives."""
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
    assert _runs(log) == ([(t, budget.max_states) for t in range(n)], [])


def test_fuzz_child_that_dies_mid_run_is_an_error(cpus, monkeypatch):
    """A child that dies while checking trial 5 loses its result, while
    the other child checks the rest: the call raises, without waiting on
    the lost trial, and leaves no child."""
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    seen = _trial_paths(cpus, monkeypatch, p, **kw)
    real = transforms.run_interleavings
    parent = os.getpid()

    def die_on_trial_5(p, **kw):
        if os.getpid() != parent and kw["thread_paths"] == seen[5]:
            os._exit(7)
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", die_on_trial_5)
    forks = cpus(2)
    with pytest.raises(RuntimeError, match="exited without its result"):
        fuzz_weakmem(p, **kw)
    assert len(forks) == 2
    _assert_no_children()


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
    child on demand, once its own threads run, fails the first check."""
    p, kw = fuzz_program(88_011), dict(trials=8, chain=4, seed=11, unroll=2)
    seen = _trial_paths(cpus, monkeypatch, p, **kw)
    real = transforms.run_interleavings
    parent = os.getpid()

    def fail_on_trial_5(p, **kw):
        if os.getpid() != parent and kw["thread_paths"] == seen[5]:
            if dies:
                os._exit(7)
            raise ValueError("trial 5")
        return real(p, **kw)

    monkeypatch.setattr(transforms, "run_interleavings", fail_on_trial_5)
    forks = cpus(2)
    with pytest.raises(RuntimeError if dies else ValueError,
                       match="exited without" if dies else "trial 5"):
        fuzz_weakmem(p, **kw)
    assert forks == [1, 1] and threading.active_count() == 1
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
