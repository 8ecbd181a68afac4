"""One number format from the parser to the interval domain: an int
whenever the value is integral, a Fraction otherwise, and the floats
+/-inf only as interval bounds."""

import random
from fractions import Fraction

import pytest

from racebox.concrete import const_points
from racebox.domains import BoxEnv, Interval, eval_abs
from racebox.interference import analyze_program_I
from racebox.parser import parse_program
from racebox.randgen import (
    GeneratorConfig, random_program, random_seq_program, sweep_program)
from racebox.sched import analyze_program_C
from racebox.seq import analyze_program_seq
from racebox.syntax import (
    INF,
    NEG_INF,
    BinOp,
    Const,
    Location,
    pretty_expr,
    pretty_program,
    stmt_exprs,
    sub_exprs,
)

F = Fraction


def _source(x) -> bool:
    """A number as the parser and randgen write it: an int whenever
    integral, else a Fraction, or +/-inf."""
    return (x.__class__ is int or x in (INF, NEG_INF)
            or (x.__class__ is Fraction and x.denominator != 1))


def _bound(x) -> bool:
    """An analyzer bound: exact (arithmetic on Fractions may give an
    integral Fraction), or +/-inf, but never any other float."""
    return x.__class__ in (int, Fraction) or x in (INF, NEG_INF)


def test_division_of_int_endpoints_is_exact():
    q, had_zero = Interval.of(1, 1).div(Interval.of(3, 3))
    assert (q.lo, q.hi, had_zero) == (F(1, 3), F(1, 3), False)
    assert q.lo.__class__ is Fraction
    q, _ = Interval.of(6, 6).div(Interval.of(3, 3))
    assert (q.lo, q.hi) == (2, 2) and q.lo.__class__ is int
    third = BinOp("/", Location(1, 1, 1, "/"), Const(1, 1), Const(3, 3))
    v, errs = eval_abs(third, BoxEnv({}))
    assert (v.lo, v.hi, errs) == (F(1, 3), F(1, 3), frozenset())


def test_int_constants_are_finite():
    assert const_points(3, 3) == [3]
    assert pretty_expr(Const(3, 3)) == "3"
    assert str(Interval.of(NEG_INF, F(1, 2))) == "[-inf,1/2]"


@pytest.mark.parametrize("lo,hi", [(0, 6), (-2, 2), (F(1, 2), 5), (2, F(7)),
                                   (F(-7, 3), F(5, 2)), (F(3), F(9, 2)),
                                   (F(1, 3), F(2, 3)), (F(4), F(4))])
def test_const_points_first_n_are_their_prefix(lo, hi):
    every = const_points(lo, hi)
    for n in range(len(every) + 2):
        first = const_points(lo, hi, n)
        assert first == every[:n]
        assert list(map(type, first)) == list(map(type, every[:n]))


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("[6/3,6/3]", 2), ("1.5", F(3, 2)), ("[-4/6,-4/6]", F(-2, 3)),
])
def test_parser_reads_ints_when_integral(text, value):
    e = parse_program(f"thread 1 {{ x <- {text}; }}").threads[0].body.expr
    assert (e.lo, e.hi) == (value, value)
    assert e.lo.__class__ is (int if F(value).denominator == 1 else Fraction)


def _analyzer_bounds(p, seq):
    """Every bound in the invariants and interference maps of the
    analyzers that take p."""
    def env_bounds(env):
        for v in env.variables:
            yield env.get(v).lo
            yield env.get(v).hi

    results = [analyze_program_seq(p)] if seq else [
        analyze_program_I(p), analyze_program_C(p, mono=True),
        analyze_program_C(p, mono=False)]
    for r in results:
        for o in r.per_thread.values():
            for envs in o.invariants.values():
                for env in envs.values():
                    yield from env_bounds(env)
        for v in r.interf.values():
            yield from (v.lo, v.hi)


def _programs():
    for seed in range(31_000, 31_100):  # the soundness sweep's programs
        yield sweep_program(seed), False
    for seed in range(6):  # perfbench analyze-large's, at their smallest
        rng = random.Random(seed)
        cfg = GeneratorConfig(max_stmts=rng.choice((12, 24)), max_threads=4,
                              n_vars=12, n_mutexes=4, sync_prob=0.35,
                              max_branching=4)
        yield random_program(rng, cfg), False
        yield random_seq_program(rng, cfg, loop_free=False), True


def test_one_number_format_from_parser_to_analyzers():
    """Parsed programs hold ints for integral constants, and the analyzers
    carry no float but +/-inf, so no int / int slipped through."""
    for p, seq in _programs():
        p = parse_program(pretty_program(p))
        for lo, hi in p.initial_map().values():
            assert _source(lo) and _source(hi), pretty_program(p)
        for t in p.threads:
            for e in stmt_exprs(t.body):
                for x in sub_exprs(e):
                    if isinstance(x, Const):
                        assert _source(x.lo) and _source(x.hi), pretty_expr(x)
        bounds = list(_analyzer_bounds(p, seq))
        assert bounds and all(map(_bound, bounds)), pretty_program(p)
