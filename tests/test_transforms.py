import random
from fractions import Fraction

import pytest

from racebox.concrete import paths
from racebox.parser import parse_program
from racebox.randgen import GeneratorConfig, random_program
from racebox.syntax import (
    Assign,
    BinOp,
    Const,
    Guard,
    Location,
    Lock,
    Var,
    pretty_stmt,
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


def ctx(tid=1, fresh=(), local=()):
    return TransformContext(tid, frozenset(fresh), frozenset(local))


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


def test_negative_controls_all_detected():
    controls = negative_controls()
    assert len(controls) >= 3
    assert all(c.detected for c in controls)
