"""Concrete semantics for the oracles: primitives, start states and
control paths.

A primitive's expression runs as the analyzers' post-order tape
(domains.compile_tape), evaluated over sets of values instead of
intervals, so one module decides how an expression becomes flat code.

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
from itertools import islice, product

from .config import LimitReached
from .domains import compile_tape
from .syntax import (
    Assign,
    Block,
    ControlPath,
    Guard,
    If,
    Location,
    Num,
    Program,
    Record,
    Stmt,
    Thread,
    While,
    body_guard,
    else_guard,
    exit_guard,
    is_finite,
    ratdiv,
    sub_stmts,
    then_guard,
)


class UnsupportedMode(LimitReached):
    """A constant the oracles cannot enumerate: an unbounded interval."""


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


def _step(op: str, loc: Location | None, a, b):
    """A tape node's outcome, (set of values, error labels), from its
    operands' outcomes a and b; a negation reads only a."""
    (u, ea), (w, eb) = a, b
    if op == "neg":
        return frozenset(-x for x in u), ea
    if op == "/":
        return (frozenset(ratdiv(x, y) for x in u for y in w if y != 0),
                ea | eb | (frozenset((loc,)) if 0 in w else _NOERR))
    if op == "+":
        out = frozenset(x + y for x in u for y in w)
    elif op == "-":
        out = frozenset(x - y for x in u for y in w)
    else:
        out = frozenset(x * y for x in u for y in w)
    return out, ea | eb


def compile_prim(s: Stmt, idx: VarIndex):
    """Compile one Assign/Guard into (reads, written, outcome): the indices
    of the variables it reads; the index of the variable it writes, None
    for a Guard; and outcome(values of reads), which is (the written
    values in value order, error labels) for an Assign and (whether the
    guard holds, error labels) for a Guard.

    The expression runs as its post-order tape (domains.compile_tape)
    over sets of values.  Nodes that read no variable are evaluated here,
    once, so an unbounded constant raises UnsupportedMode here."""
    if not isinstance(s, (Assign, Guard)):
        raise TypeError(f"not an assign/guard: {s}")
    tape = compile_tape(s.expr)
    fixed: list = []  # each node's outcome; None where it reads a variable
    steps = []  # (node, op, a, b, loc) of the nodes that read one
    for i, (op, a, b, loc) in enumerate(tape.code):
        if op == "var":
            a = tape.names.index(a)
        elif op == "const":
            if a.is_bot:
                raise UnsupportedMode("unbounded constant [inf,inf] or"
                                      " [-inf,-inf] has no point")
            fixed.append((frozenset(const_points(a.lo, a.hi)), _NOERR))
            continue
        else:
            b = a if b is None else b
            if fixed[a] is not None and fixed[b] is not None:
                fixed.append(_step(op, loc, fixed[a], fixed[b]))
                continue
        fixed.append(None)
        steps.append((i, op, a, b, loc))

    def ev(vals: tuple):
        out = fixed.copy()
        for i, op, a, b, loc in steps:
            out[i] = ((frozenset((vals[a],)), _NOERR) if op == "var"
                      else _step(op, loc, out[a], out[b]))
        return out[-1]

    reads = tuple(map(idx.__getitem__, tape.names))
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


class TooManyPaths(LimitReached):
    """A statement spawns more control paths than a cap allows."""


class PathSet(Record):
    paths: frozenset[ControlPath]
    truncated: bool


def control_step(unroll: int):
    """A thread's control flow, loops unrolled at most `unroll` times: a
    step maps a continuation, the rest of a thread as a linked stack
    (stmt, loop count, rest) or None at its end, to (whether a path may
    stop here, [(primitive, next continuation)]).  Blocks are flattened;
    an `if`, and a loop below `unroll` iterations, gives two edges, the
    shorter else/exit guard first.  Guards are made once per stepper."""
    if unroll < 0:
        raise ValueError(f"unroll must be >= 0, got {unroll}")
    guards: dict[int, tuple[Guard, Guard]] = {}  # id(If/While) -> (skip, take)

    def step(k):
        while k is not None and isinstance(k[0], Block):
            block, _, k = k
            for s in reversed(block.body):
                k = (s, 0, k)
        if k is None:
            return True, []
        s, n, rest = k
        if not isinstance(s, (If, While)):  # a primitive, or sync
            return False, [(s, rest)]
        skip, take = guards.get(id(s)) or guards.setdefault(id(s), (
            (else_guard(s), then_guard(s)) if isinstance(s, If)
            else (exit_guard(s), body_guard(s))))
        if isinstance(s, If):
            return False, [(skip, rest), (take, (s.body, 0, rest))]
        if n < unroll:
            return False, [(skip, rest),
                           (take, (s.body, 0, (s, n + 1, rest)))]
        return False, [(skip, rest)]  # a longer unrolling still exists
    return step


def paths(s: Stmt, unroll: int, cap: int | None = None) -> PathSet:
    """The control paths of s, walked with control_step(unroll); truncated
    when s holds a loop.  With cap, path cap + 1 raises TooManyPaths."""
    step, out, path = control_step(unroll), [], []
    todo: list = [(0, None, (s, 0, None))]  # (prefix length, edge, rest)
    while todo:
        n, stmt, k = todo.pop()
        path[n:] = () if stmt is None else (stmt,)
        while edges := step(k)[1]:  # first edges inline, the others wait
            todo += [(len(path), *e) for e in edges[1:]]
            stmt, k = edges[0]
            path.append(stmt)
        out.append(tuple(path))  # a structural path stops at no edge
        if cap is not None and len(out) > cap:
            raise TooManyPaths(f"more than {cap} control paths")
    return PathSet(frozenset(out),
                   any(isinstance(x, While) for x in sub_stmts(s)))


def capped_paths(t: Thread, unroll: int, max_states: int) -> PathSet:
    """paths(t.body, unroll, max_states): the state budget bounds every
    thread's path walk too, and the refusal names the thread."""
    try:
        return paths(t.body, unroll, max_states)
    except TooManyPaths:
        raise TooManyPaths(f"thread {t.tid} spawns more than {max_states}"
                           f" control paths at unroll {unroll}, over the"
                           f" state budget of {max_states}") from None


def sorted_paths(path_set) -> list[ControlPath]:
    """The canonical order of a path set: shorter paths first, then by
    statement ids."""
    return sorted(path_set, key=lambda p: (len(p), [str(s.sid) for s in p]))
