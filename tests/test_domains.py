import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebox.domains import (
    BOT,
    BoxEnv,
    Interval,
    eval_abs,
    transfer_assign,
    transfer_guard,
)
from racebox.parser import parse_program
from racebox.randgen import GeneratorConfig, random_expr
from racebox.syntax import CMP_OPS, INF, NEG_INF, Builder, Const, Var
from reference_semantics import HOLDS, eval_concrete

F = Fraction


def iv(lo, hi):
    lo = NEG_INF if lo == "-inf" else F(lo)
    hi = INF if hi == "inf" else F(hi)
    return Interval.of(lo, hi)


# -- basic lattice operations


def test_join_is_hull():
    assert iv(0, 1).join(iv(2, 3)) == iv(0, 3)
    a = iv(0, 3)
    assert a.join(iv(1, 2)) is a


def test_interval_is_an_immutable_value():
    # the (lo, hi) tuple hash keeps set and dict orders as they were
    assert hash(Interval(1, 2)) == hash((1, 2))
    assert Interval(1, 2) == Interval(F(2, 2), 2)
    with pytest.raises(AttributeError):
        iv(0, 1).lo = 5


def test_widen_unstable_upper_no_thresholds():
    assert iv(0, 1).widen(iv(0, 2)) == iv(0, "inf")


def test_widen_bottom_identity():
    x = iv(3, 4)
    assert BOT.widen(x) == x
    assert x.widen(BOT) == x


def test_widen_threshold_ladder():
    thr = (F(-1), F(0), F(10))
    assert iv(0, 1).widen(iv(0, 5), thr) == iv(0, 10)
    assert iv(0, 1).widen(iv(-3, 1), thr) == iv("-inf", 1)
    assert iv(0, 1).widen(iv(-1, 11), thr) == iv(-1, "inf")


def test_widening_stabilizes_within_thresholds_plus_two():
    rng = random.Random(7)
    thr = tuple(sorted(F(x) for x in (-10, -1, 0, 1, 10)))
    for _ in range(200):
        x = iv(rng.randint(-5, 0), rng.randint(0, 5))
        steps = 0
        while True:
            y = iv(rng.randint(-20, 0), rng.randint(0, 20))
            nxt = x.widen(y, thr)
            steps += 1
            if nxt == x:
                break
            x = nxt
            assert steps <= 2 * (len(thr) + 2)
        # per-bound guarantee: each bound moves at most #thresholds+1 times


def test_printing_formats():
    assert str(iv(0, 5)) == "[0,5]"
    assert str(iv("-inf", 3)) == "[-inf,3]"
    assert str(BOT) == "⊥"
    assert str(BoxEnv.bot()) == "⊥"
    assert str(BoxEnv({"x": iv(0, 1)})) == "{x: [0,1]}"
    assert str(Interval.of(F(1, 2), F(3, 2))) == "[1/2,3/2]"


def test_leq_partial_order():
    a, b, c = iv(0, 1), iv(0, 2), iv(-1, 2)
    assert a.leq(b) and b.leq(c) and a.leq(c)
    assert not b.leq(a)
    assert BOT.leq(a) and not a.leq(BOT)


@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_join_sound_hypothesis(a, b, c, d):
    x = Interval.of(F(min(a, b)), F(max(a, b)))
    y = Interval.of(F(min(c, d)), F(max(c, d)))
    j = x.join(y)
    for v in (a, b, c, d):
        if x.contains(v) or y.contains(v):
            assert j.contains(v)
    assert x.leq(j) and y.leq(j)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=300)
def test_interval_arithmetic_sound_hypothesis(a, b, c, d, u, v):
    x = Interval.of(F(min(a, b)), F(max(a, b)))
    y = Interval.of(F(min(c, d)), F(max(c, d)))
    pu = F(min(a, b) + abs(u) % (abs(max(a, b) - min(a, b)) + 1))
    pv = F(min(c, d) + abs(v) % (abs(max(c, d) - min(c, d)) + 1))
    assert x.add(y).contains(pu + pv)
    assert x.sub(y).contains(pu - pv)
    assert x.mul(y).contains(pu * pv)
    if pv != 0:
        q, had0 = x.div(y)
        assert q.contains(pu / pv)
        assert had0 == y.contains(0)


# -- the direct-tuple kernels against their former definitions, which went
# through is_bot, Interval.of, is_finite and the named tuple's __new__


def _ref_add_ext(a, b):
    if not isinstance(a, float) and not isinstance(b, float):
        return a + b
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return INF if a == INF or b == INF else a + b


def _ref_mul_ext(a, b):
    if a == 0 or b == 0:
        return 0
    if not isinstance(a, float) and not isinstance(b, float):
        return a * b
    return NEG_INF if (a < 0) != (b < 0) else INF


def _ref_neg(x):
    return BOT if x.is_bot else Interval(-x.hi, -x.lo)


def _ref_add(x, y):
    if x.is_bot or y.is_bot:
        return BOT
    return Interval(_ref_add_ext(x.lo, y.lo), _ref_add_ext(x.hi, y.hi))


REFERENCE_KERNELS = {
    "join": lambda x, y: (
        x if y.is_bot or not x.is_bot and x.lo <= y.lo and y.hi <= x.hi
        else y if x.is_bot
        else Interval(y.lo if y.lo < x.lo else x.lo,
                      y.hi if y.hi > x.hi else x.hi)),
    "meet": lambda x, y: (
        BOT if x.is_bot or y.is_bot
        else Interval.of(max(x.lo, y.lo), min(x.hi, y.hi))),
    "add": _ref_add,
    "sub": lambda x, y: _ref_add(x, _ref_neg(y)),
    "mul": lambda x, y: BOT if x.is_bot or y.is_bot else Interval(
        min(c := [_ref_mul_ext(a, b) for a in x for b in y]), max(c)),
}


def _ref_widen(x, y, thresholds):
    if x.is_bot:
        return y
    if y.is_bot:
        return x
    lo, hi = x
    if y.lo < x.lo:
        below = [t for t in thresholds if t <= y.lo]
        lo = max(below) if below else NEG_INF
    if y.hi > x.hi:
        above = [t for t in thresholds if t >= y.hi]
        hi = min(above) if above else INF
    return Interval(lo, hi)


# ints, Fractions (F(4, 2) is an integral Fraction, equal to the int 2) and
# an int too large to convert to a float, so that finite + inf must not
BOUNDS = (-3, -1, 0, 1, 2, 5, F(1, 2), F(-7, 3), F(4, 2), F(0), 10 ** 400)


def _random_interval(rng: random.Random) -> Interval:
    if rng.random() < 0.1:
        return BOT
    lo, hi = sorted(rng.sample(BOUNDS, 2)) if rng.random() < 0.8 else \
        [rng.choice(BOUNDS)] * 2
    return Interval(NEG_INF if rng.random() < 0.2 else lo,
                    INF if rng.random() < 0.2 else hi)


def _typed(x: Interval) -> tuple:
    """x's bounds with their types: 2 and F(2) are equal, not the same."""
    return type(x), tuple((type(b), b) for b in x)


def test_interval_kernels_match_their_reference_definitions():
    rng = random.Random(20261020)
    for _ in range(4000):
        x, y = _random_interval(rng), _random_interval(rng)
        for name, ref in REFERENCE_KERNELS.items():
            assert _typed(getattr(x, name)(y)) == _typed(ref(x, y)), \
                (name, x, y)
        assert _typed(-x) == _typed(_ref_neg(x)), x
        thresholds = tuple(sorted(rng.sample(BOUNDS, rng.randint(0, 4))))
        for thr in ((), thresholds):
            assert _typed(x.widen(y, thr)) == _typed(_ref_widen(x, y, thr)), \
                (x, y, thr)


# -- get, and constants


def test_get_on_box():
    env = BoxEnv({"x": iv(1, 2), "y": iv(0, 0)})
    assert env.get("x") == iv(1, 2)
    assert BoxEnv.bot().get("x") == BOT


def test_get_initial_defaults_to_zero():
    p = parse_program("thread 1 { x <- 1; }")
    assert BoxEnv.initial(p).get("x") == iv(0, 0)


def test_as_expr_concrete_coverage():
    # concrete evaluation of a constant interval covers the interval
    vals, errs = eval_concrete(Const(-2, 2), {"x": F(0)})
    assert errs == frozenset()
    assert {F(-2), F(0), F(2)} <= vals


# -- transfer functions


def test_assign_interval_sum():
    p = parse_program("thread 1 { x <- [1,2] + [3,4]; }")
    env0 = BoxEnv.initial(p)
    env, errs = transfer_assign("x", p.threads[0].body.expr, env0, frozenset())
    assert env.get("x") == iv(4, 6)
    assert errs == frozenset()


def test_assign_division_split_at_zero():
    p = parse_program("thread 1 { x <- 1 / [-1,1]; }")
    env0 = BoxEnv.initial(p)
    env, errs = transfer_assign("x", p.threads[0].body.expr, env0, frozenset())
    assert env.get("x") == iv("-inf", "inf")
    assert len(errs) == 1


def test_assign_definite_zero_divisor_blocks():
    p = parse_program("thread 1 { x <- 1 / [0,0]; }")
    env, errs = transfer_assign("x", p.threads[0].body.expr,
                                BoxEnv.initial(p), frozenset())
    assert env.is_bot
    assert len(errs) == 1


def test_division_of_bottom_alarms_when_the_divisor_holds_zero():
    # as in the concrete semantics, which adds the label whenever 0 is a
    # divisor value, whether or not the dividend has one
    assert iv(1, 2).div(BOT) == (BOT, False)
    assert BOT.div(iv(-1, 0)) == (BOT, True)
    p = parse_program("var c = [-2,-2]; thread 1 { x <- c / 0 / [-1,0]; }")
    e = p.threads[0].body.expr
    val, errs = eval_abs(e, BoxEnv.initial(p))
    assert val.is_bot and errs == {e.loc, e.left.loc}
    assert eval_concrete(e, {"c": F(-2)})[1] == errs


def test_guard_clamps_bound():
    env = BoxEnv({"x": iv(-5, 10)})
    out, errs = transfer_guard(Var("x"), "<=", env, frozenset())
    assert out.get("x") == iv(-5, 0)


def test_guard_unsat_gives_bottom():
    env = BoxEnv({"x": iv(1, 5)})
    out, _ = transfer_guard(Var("x"), "=", env, frozenset())
    assert out.is_bot


def test_guard_refines_through_arithmetic():
    p = parse_program("thread 1 { if x - 10 < 0 then { x <- x; } }")
    env = BoxEnv({"x": iv(0, 100)})
    out, _ = transfer_guard(p.threads[0].body.expr, "<", env, frozenset())
    assert out.get("x") == iv(0, 10)


def test_guard_on_bottom_is_bottom():
    out, errs = transfer_guard(Var("x"), "=", BoxEnv.bot(), frozenset())
    assert out.is_bot and errs == frozenset()


# -- abstract evaluation vs the concrete oracle, in volume


def test_abstract_soundness_bulk():
    """For >= 10^4 random (expression, environment) pairs, every concrete
    value lies in the abstract interval and every concrete error is an
    abstract alarm."""
    rng = random.Random(20240817)
    cfg = GeneratorConfig(div_prob=0.5, wide_const_prob=0.4)
    names = ["a", "b", "c"]
    checked = 0
    while checked < 10_000:
        e = Builder().expr(random_expr(rng, names, cfg, depth=2))
        rho = {n: F(rng.randint(-4, 4)) for n in names}
        cvals, cerrs = eval_concrete(e, rho)
        box = BoxEnv({n: Interval(v, v) for n, v in rho.items()})
        aval, aerrs = eval_abs(e, box)
        for v in cvals:
            assert aval.contains(v), (e, rho, v, str(aval))
        assert cerrs <= aerrs, (e, rho)
        checked += 1


def test_guard_refinement_soundness_bulk():
    """The backward HC4 sweep drops no integer point of the box at which
    some concrete value of e satisfies `e cmp 0`; so a bottom result means
    no such point exists."""
    rng = random.Random(20261018)
    cfg = GeneratorConfig(div_prob=0.5, wide_const_prob=0.4)
    names = ["a", "b", "c"]
    kept = 0
    for _ in range(300):
        e = Builder().expr(random_expr(rng, names, cfg, depth=3))
        box = {}
        for n in names:
            lo = rng.randint(-3, 3)
            box[n] = (lo, lo + rng.randint(0, 3))
        env = BoxEnv({n: iv(lo, hi) for n, (lo, hi) in box.items()})
        points = [dict(zip(names, map(F, pt))) for pt in
                  product(*(range(lo, hi + 1) for lo, hi in box.values()))]
        values = [eval_concrete(e, rho)[0] for rho in points]
        for cmp in CMP_OPS:
            out, _ = transfer_guard(e, cmp, env, frozenset())
            for rho, vals in zip(points, values):
                if any(HOLDS[cmp](v, 0) for v in vals):
                    assert not out.is_bot, (e, cmp, rho)
                    assert all(out.get(n).contains(rho[n]) for n in names), \
                        (e, cmp, rho, str(out))
                    kept += 1
    assert kept > 10_000
