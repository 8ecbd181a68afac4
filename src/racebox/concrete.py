"""Concrete semantics for the oracles: compiled primitives, start states
and control paths.

States are finite sets of exact rational environments plus an error set.
To keep the state sets finite, constant intervals enumerate only their
integer points and their endpoints, which must be finite;
division results stay exact rationals.  This restricted semantics
under-approximates the real-valued one, which is the right direction for
an oracle whose errors are compared against analyzer alarms.  The
structured semantics of the sequential fragment, which the tests check
the path semantics and the analyzers against, is in
tests/reference_semantics.py.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain, islice, product

from .syntax import (
    Assign,
    Block,
    Const,
    ControlPath,
    Expr,
    Guard,
    If,
    Location,
    Neg,
    Num,
    Program,
    Record,
    Stmt,
    Var,
    While,
    body_guard,
    else_guard,
    exit_guard,
    fold_expr,
    is_finite,
    ratdiv,
    sub_stmts,
    then_guard,
)


class UnsupportedMode(Exception):
    pass


Env = tuple[Num, ...]  # values in the order of Program.variables
VarIndex = dict[str, int]


# guard tests on the value of e in `e cmp 0`
_HOLDS = {
    "=": lambda v: v == 0,
    "!=": lambda v: v != 0,
    "<": lambda v: v < 0,
    ">": lambda v: v > 0,
    "<=": lambda v: v <= 0,
    ">=": lambda v: v >= 0,
}

_NOERR: frozenset[Location] = frozenset()

_ARITH = {
    "+": lambda v1, v2: frozenset(a + b for a in v1 for b in v2),
    "-": lambda v1, v2: frozenset(a - b for a in v1 for b in v2),
    "*": lambda v1, v2: frozenset(a * b for a in v1 for b in v2),
}


def const_points(lo, hi, n: int | None = None) -> list[Num]:
    """The integer points and the endpoints of a constant interval, in
    ascending order; with n, only the first n, made without the rest
    (past its first n integers, no point can be among the first n)."""
    if not (is_finite(lo) and is_finite(hi)):
        raise UnsupportedMode(
            f"unbounded constant [{lo},{hi}] has no finite set of points")
    if lo.__class__ is int and hi.__class__ is int:
        return list(range(lo, hi + 1)[:n])
    ints = range(math.ceil(lo), math.floor(hi) + 1)[:n]
    return sorted({lo, hi, *ints})[:n]


def _operator(x: Expr):
    """x's outcome as a function of its operands' outcomes."""
    if isinstance(x, Neg):
        return lambda a: (frozenset(-v for v in a[0]), a[1])
    if x.op in _ARITH:
        arith = _ARITH[x.op]
        return lambda a, b: (arith(a[0], b[0]), a[1] | b[1])
    div0 = frozenset({x.loc})
    return lambda a, b: (
        frozenset(ratdiv(u, v) for u in a[0] for v in b[0] if v != 0),
        a[1] | b[1] | (div0 if 0 in b[0] else _NOERR))


def _compile(e: Expr, slots: VarIndex):
    """Compile e once into a closure env -> (set of values, error labels),
    where env[slots[v]] is v's value.  A variable that slots lacks gets
    the next slot.

    The closure runs a flat tape of (arity, function) steps on a value
    stack, so no expression depth makes it recurse.  Subtrees that read no
    variable are folded into one constant step here, and constant points
    are enumerated here, so an unbounded constant raises UnsupportedMode at
    compile time."""
    tape: list = []  # in fold order: a right operand's steps come first

    def emit(x: Expr, *consts):
        """Append x's step; return x's outcome if it reads no variable."""
        if isinstance(x, Var):
            k = slots.setdefault(x.name, len(slots))
            tape.append((0, lambda env: (frozenset((env[k],)), _NOERR)))
            return None
        if isinstance(x, Const):
            c = frozenset(const_points(x.lo, x.hi)), _NOERR
        elif None in consts:
            tape.append((len(consts), _operator(x)))
            return None
        else:
            del tape[-len(consts):]  # the operands' constant steps
            c = _operator(x)(*consts)
        tape.append((0, lambda env: c))
        return c

    fold_expr(e, emit)

    def run(env):
        vals = []
        for arity, f in tape:
            if arity == 0:
                vals.append(f(env))
            elif arity == 1:
                vals[-1] = f(vals[-1])
            else:
                left = vals.pop()
                vals[-1] = f(left, vals[-1])
        return vals[0]
    return run


def compile_prim(s: Stmt, idx: VarIndex):
    """Compile one Assign/Guard into (reads, written, outcome): the indices
    of the variables it reads; the index of the variable it writes, None
    for a Guard; and outcome(values of reads), which is (the written
    values in value order, error labels) for an Assign and (whether the
    guard holds, error labels) for a Guard."""
    if not isinstance(s, (Assign, Guard)):
        raise TypeError(f"not an assign/guard: {s}")
    slots: VarIndex = {}
    ev = _compile(s.expr, slots)
    reads = tuple(map(idx.__getitem__, slots))
    if isinstance(s, Assign):
        def assign(vals: tuple) -> tuple[list[Num], frozenset[Location]]:
            out, errs = ev(vals)
            return sorted(out), errs
        return reads, idx[s.var], assign
    holds = _HOLDS[s.cmp]

    def guard(vals: tuple) -> tuple[bool, frozenset[Location]]:
        out, errs = ev(vals)
        return any(map(holds, out)), errs
    return reads, None, guard


def start_envs(p: Program, n: int | None = None) -> Iterator[Env]:
    """The combinations of the points of the declared initial intervals,
    made one at a time in ascending order: all of them, or the first n.
    The k-th combination takes no variable's point past its k-th, so for
    the first n each variable makes only its first n points."""
    init = p.initial_map()
    return islice(product(*[const_points(*init[v], n) for v in p.variables]),
                  n)


# ---------------------------------------------------------------------------
# Control paths


class PathSet(Record):
    paths: frozenset[ControlPath]
    truncated: bool


def paths(s: Stmt, unroll: int) -> PathSet:
    """Control paths spawned by s, with loops unrolled at most `unroll`
    times.  truncated is set when some longer unrolling exists, that is,
    when s holds a loop."""
    if unroll < 0:
        raise ValueError(f"unroll must be >= 0, got {unroll}")
    return PathSet(frozenset(_paths(s, unroll)),
                   any(isinstance(x, While) for x in sub_stmts(s)))


def _paths(s: Stmt, unroll: int) -> list[ControlPath]:
    """paths(s, unroll) as a list: the structure spawns each path once."""
    if isinstance(s, Block):
        subs = [_paths(sub, unroll) for sub in s.body]
        # one product: a fold over the block would rebuild every prefix
        return [tuple(chain.from_iterable(combo)) for combo in product(*subs)]
    if isinstance(s, If):
        g = then_guard(s)
        return [(g,) + p for p in _paths(s.body, unroll)] + [(else_guard(s),)]
    if isinstance(s, While):
        body = _paths(s.body, unroll)
        g, x = body_guard(s), exit_guard(s)
        loops, out = [()], [(x,)]
        for _ in range(unroll):
            loops = [p + (g,) + q for p in loops for q in body]
            out += [p + (x,) for p in loops]
        # some (unroll+1)-iteration path always exists syntactically
        return out
    # primitive statements, including synchronization
    return [(s,)]


def sorted_paths(path_set) -> list[ControlPath]:
    """The canonical order of a path set: shorter paths first, then by
    statement ids."""
    return sorted(path_set, key=lambda p: (len(p), [str(s.sid) for s in p]))
