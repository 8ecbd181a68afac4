import random
from fractions import Fraction

import pytest

from racebox.concrete import UnsupportedMode, paths, start_envs
from racebox.parser import parse_program
from racebox.randgen import GeneratorConfig, random_seq_program
from racebox.syntax import Assign, Guard, sub_exprs
from reference_semantics import (
    ConcreteState,
    FixpointBudgetExceeded,
    eval_concrete,
    exec_stmt,
    initial_state,
    join,
    run_paths,
    to_json,
)


def env(**kv):
    return {k: Fraction(v) for k, v in kv.items()}


def first_div_loc(p):
    from racebox.syntax import BinOp, stmt_exprs

    for e in stmt_exprs(p.threads[0].body):
        for x in sub_exprs(e):
            if isinstance(x, BinOp) and x.op == "/":
                return x.loc
    raise AssertionError("no division")


def test_eval_variable_lookup():
    p = parse_program("thread 1 { y <- x; }")
    vals, errs = eval_concrete(p.threads[0].body.expr, env(x=3))
    assert vals == frozenset({Fraction(3)}) and errs == frozenset()


def test_eval_division_by_zero_only():
    p = parse_program("thread 1 { y <- 1 / [0,0]; }")
    vals, errs = eval_concrete(p.threads[0].body.expr, env(y=0))
    assert vals == frozenset()
    assert errs == frozenset({first_div_loc(p)})


def test_eval_interval_sum_integer_points():
    # all sums of integer points {1,2} x {3,4} = {4,5,6}; frozen from the
    # brute-force enumeration the semantics itself performs
    p = parse_program("thread 1 { y <- [1,2] + [3,4]; }")
    vals, errs = eval_concrete(p.threads[0].body.expr, env(y=0))
    assert vals == frozenset({Fraction(4), Fraction(5), Fraction(6)})
    assert errs == frozenset()


def test_eval_unbounded_interval_unsupported():
    p = parse_program("var q = [0,inf]; thread 1 { y <- [0,inf]; }")
    with pytest.raises(UnsupportedMode):
        eval_concrete(p.threads[0].body.expr, env(y=0))


def test_division_keeps_exact_rationals():
    p = parse_program("thread 1 { y <- 1 / 3; }")
    vals, _ = eval_concrete(p.threads[0].body.expr, env(y=0))
    assert vals == frozenset({Fraction(1, 3)})


def test_exec_assign_enumerates_interval():
    p = parse_program("thread 1 { x <- [0,1]; }")
    st = initial_state(p)
    out = exec_stmt(p.threads[0].body, st)
    assert out.envs == frozenset({(0,), (1,)})


def test_exec_guard_filters():
    p = parse_program("thread 1 { x <- [0,1]; if x = 0 then { x <- 5; } }")
    st = initial_state(p)
    out = exec_stmt(p.threads[0].body, st)
    assert out.envs == frozenset({(5,), (1,)})


def test_exec_loop_converges():
    p = parse_program("thread 1 { while x - 10 < 0 do { x <- x + 1; } }")
    out = exec_stmt(p.threads[0].body, initial_state(p))
    assert out.envs == frozenset({(10,)})
    assert out.errors == frozenset()


def test_exec_loop_budget_exceeded():
    p = parse_program("thread 1 { while x >= 0 do { x <- x + 1; } }")
    with pytest.raises(FixpointBudgetExceeded) as ei:
        exec_stmt(p.threads[0].body, initial_state(p), budget=50)
    assert len(ei.value.partial.envs) > 50


def test_error_monotonicity():
    p = parse_program("thread 1 { x <- 1 / [0,0]; y <- 2; }")
    pre_loc = first_div_loc(p)
    st = ConcreteState(p.variables, frozenset({(0, 0)}),
                       frozenset({pre_loc}))
    out = exec_stmt(p.threads[0].body, st)
    assert st.errors <= out.errors


def test_paths_sequence():
    p = parse_program("thread 1 { x <- 1; y <- 2; }")
    ps = paths(p.threads[0].body, 0)
    assert len(ps.paths) == 1 and not ps.truncated
    (path,) = ps.paths
    assert [type(s) for s in path] == [Assign, Assign]


def test_paths_if_spawns_two():
    p = parse_program("thread 1 { if x = 0 then { x <- 1; } }")
    ps = paths(p.threads[0].body, 0)
    assert len(ps.paths) == 2
    lens = sorted(len(q) for q in ps.paths)
    assert lens == [1, 2]  # negated guard alone, guard then assign


def test_paths_rejects_negative_unroll():
    p = parse_program("thread 1 { x <- 1; }")
    with pytest.raises(ValueError):
        paths(p.threads[0].body, -1)


def test_paths_while_unroll_one():
    p = parse_program("thread 1 { while x = 0 do { x <- 1; } }")
    ps = paths(p.threads[0].body, 1)
    assert ps.truncated
    lens = sorted(len(q) for q in ps.paths)
    assert lens == [1, 3]  # exit only; one iteration plus exit
    for q in ps.paths:
        assert isinstance(q[-1], Guard) and q[-1].cmp == "!="


def test_state_dump_sorted_json():
    p = parse_program("var b; var a; thread 1 { a <- [0,1]; b <- 1/3; }")
    out = exec_stmt(p.threads[0].body, initial_state(p))
    dump = to_json(out)
    assert dump["vars"] == ["a", "b"]  # lexicographic variable order
    assert dump["envs"] == sorted(dump["envs"])
    assert dump["envs"][0][1] == "1/3"


def test_run_paths_empty_set_keeps_errors():
    p = parse_program("thread 1 { x <- 1; }")
    st = initial_state(p)
    out = run_paths(frozenset(), st)
    assert out.envs == frozenset()
    assert out.errors == st.errors


def test_run_paths_unsatisfiable_guard():
    p = parse_program("thread 1 { x <- 1; if x = 0 then { x <- 2; } }")
    st = initial_state(p)
    ps = paths(p.threads[0].body, 0)
    taken = frozenset(q for q in ps.paths if len(q) == 3)
    out = run_paths(taken, st)
    assert out.envs == frozenset()
    assert out.errors == st.errors


def test_run_paths_rejects_sync():
    p = parse_program("mutex m; thread 1 { lock(m); }")
    with pytest.raises(ValueError):
        run_paths(paths(p.threads[0].body, 0), initial_state(p))


# Structured semantics equals the path-based one on loop-free statements,
# in both components, for randomized programs (theorem-level equality).
@pytest.mark.parametrize("seed", range(40))
def test_path_equivalence_randomized(seed):
    rng = random.Random(seed)
    p = random_seq_program(rng, GeneratorConfig(div_prob=0.5))
    st = initial_state(p)
    direct = exec_stmt(p.threads[0].body, st)
    ps = paths(p.threads[0].body, 0)
    assert not ps.truncated
    via_paths = run_paths(ps, st)
    assert direct.envs == via_paths.envs
    assert direct.errors == via_paths.errors


@pytest.mark.parametrize("seed", range(20))
def test_join_morphism_randomized(seed):
    rng = random.Random(1000 + seed)
    p = random_seq_program(rng)
    st = initial_state(p)
    envs = sorted(st.envs) or [tuple(Fraction(0) for _ in p.variables)]
    extra = tuple(Fraction(rng.randint(-2, 2)) for _ in p.variables)
    st1 = ConcreteState(p.variables, frozenset({extra}), frozenset())
    st2 = ConcreteState(p.variables, frozenset(envs), frozenset())
    lhs = exec_stmt(p.threads[0].body, join(st1, st2))
    rhs = join(exec_stmt(p.threads[0].body, st1),
               exec_stmt(p.threads[0].body, st2))
    assert lhs.envs == rhs.envs and lhs.errors == rhs.errors


def test_start_envs_first_n_are_their_prefix():
    p = parse_program("var a = [1/2,4]; var b = [0,1/3]; var c = [-1,1];"
                      " thread 1 { y <- a - b + c; }")
    every = list(start_envs(p))
    assert every == sorted(initial_state(p).envs)
    for n in range(len(every) + 2):
        assert list(start_envs(p, n)) == every[:n]
