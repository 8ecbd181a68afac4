"""Abstract domains: exact-rational intervals and interval boxes.

Intervals abstract sets of reals (bottom, or closed bounds that may be
infinite); boxes map every program variable to a non-bottom interval, with
an explicit bottom element.  Bounds are exact rationals so soundness tests
never hinge on rounding.  Expressions are evaluated from a post-order
tape (compile_tape), and guard transfer refines variable bounds with a
single HC4-style backward sweep over the same tape; neither recurses.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .syntax import (
    INF,
    NEG_INF,
    Const,
    Expr,
    Ext,
    Location,
    Neg,
    Num,
    Program,
    Var,
    fmt_ext,
    is_finite,
    ratdiv,
    sub_exprs,
)


# ---------------------------------------------------------------------------
# Extended-rational helpers (Num plus +/-inf floats)


def _add(a: Ext, b: Ext) -> Ext:
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    if a == INF or b == INF:
        return INF
    return a + b


def _mul(a: Ext, b: Ext) -> Ext:
    if a == 0 or b == 0:
        return 0
    if is_finite(a) and is_finite(b):
        return a * b
    neg = (a < 0) != (b < 0)
    return NEG_INF if neg else INF


# ---------------------------------------------------------------------------
# Intervals


class Interval(NamedTuple):
    """Either bottom (lo is None) or [lo, hi] with lo <= hi.  A tuple, so
    that equality and hashing run without Python calls; the operations
    build theirs with _new, not the named tuple's Python-level __new__."""

    lo: Optional[Ext]
    hi: Optional[Ext]

    @staticmethod
    def of(lo: Ext, hi: Ext) -> "Interval":
        if lo > hi or lo == INF or hi == NEG_INF:
            return BOT
        return Interval(lo, hi)

    @staticmethod
    def top() -> "Interval":
        return Interval(NEG_INF, INF)

    @property
    def is_bot(self) -> bool:
        return self.lo is None

    def contains(self, v) -> bool:
        return not self.is_bot and self.lo <= v <= self.hi

    def join(self, other: "Interval") -> "Interval":
        (lo, hi), (olo, ohi) = self, other
        if olo is None or lo is not None and lo <= olo and ohi <= hi:
            return self  # other is bottom or lies inside self
        if lo is None:
            return other
        return _new(Interval, (olo if olo < lo else lo,
                               ohi if ohi > hi else hi))

    def meet(self, other: "Interval") -> "Interval":
        (lo, hi), (olo, ohi) = self, other
        if lo is None or olo is None:
            return BOT
        # on a tie, self's bound, as max and min keep their first argument
        lo, hi = (olo if olo > lo else lo), (ohi if ohi < hi else hi)
        if lo > hi or lo == INF or hi == NEG_INF:
            return BOT
        return _new(Interval, (lo, hi))

    def leq(self, other: "Interval") -> bool:
        if self.is_bot:
            return True
        if other.is_bot:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def widen(self, other: "Interval",
              thresholds: tuple[Num, ...] = ()) -> "Interval":
        """Unstable bounds jump to the nearest covering threshold, then to
        infinity; guarantees stabilization in #thresholds + 2 steps per
        bound."""
        (lo, hi), (olo, ohi) = self, other
        if lo is None:
            return other
        if olo is None or lo <= olo and ohi <= hi:
            return self  # stable
        if olo < lo:
            below = [t for t in thresholds if t <= olo]
            lo = max(below) if below else NEG_INF
        if ohi > hi:
            above = [t for t in thresholds if t >= ohi]
            hi = min(above) if above else INF
        return _new(Interval, (lo, hi))

    # arithmetic: a float bound is infinite, and only then does _add run

    def __neg__(self) -> "Interval":
        lo, hi = self  # float negation maps inf to -inf
        return BOT if lo is None else _new(Interval, (-hi, -lo))

    def add(self, other: "Interval") -> "Interval":
        (lo, hi), (olo, ohi) = self, other
        if lo is None or olo is None:
            return BOT
        if float in (lo.__class__, hi.__class__, olo.__class__, ohi.__class__):
            return _new(Interval, (_add(lo, olo), _add(hi, ohi)))
        return _new(Interval, (lo + olo, hi + ohi))

    def sub(self, other: "Interval") -> "Interval":
        """self.add(-other), without building -other."""
        (lo, hi), (olo, ohi) = self, other
        if lo is None or olo is None:
            return BOT
        if float in (lo.__class__, hi.__class__, olo.__class__, ohi.__class__):
            return _new(Interval, (_add(lo, -ohi), _add(hi, -olo)))
        return _new(Interval, (lo - ohi, hi - olo))

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bot or other.is_bot:
            return BOT
        corners = [_mul(a, b) for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners))

    def div(self, other: "Interval") -> tuple["Interval", bool]:
        """Quotient and whether the divisor may be zero, which holds even
        when the dividend is bottom, as in the concrete semantics.  The
        quotient is computed against the divisor with 0 excluded (split
        at zero)."""
        had_zero = other.contains(0)
        if self.is_bot or other.is_bot:
            return BOT, had_zero
        parts: list[Interval] = []
        if other.hi > 0:  # positive part (max(lo,0), hi], open at zero
            parts.append(self._div_pos(max(other.lo, 0), other.hi))
        if other.lo < 0:  # negative part [lo, min(hi,0)), mirrored
            parts.append(-self._div_pos(max(-other.hi, 0), -other.lo))
        out = BOT
        for q in parts:
            out = out.join(q)
        return out, had_zero

    def _div_pos(self, dlo: Ext, dhi: Ext) -> "Interval":
        """self / (dlo, dhi] where 0 <= dlo < dhi; dlo acts as 0+."""

        def f(x: Ext, d: Ext) -> Ext:
            if x == 0:
                return 0
            if d == 0:  # limit towards the open zero endpoint
                return INF if x > 0 else NEG_INF
            if d == INF:
                return 0
            if not is_finite(x):
                return x  # sign of x / positive d
            return ratdiv(x, d)

        corners = [f(x, d) for x in (self.lo, self.hi) for d in (dlo, dhi)]
        return Interval(min(corners), max(corners))

    # guard support

    def sat(self, cmp: str) -> bool:
        """Does some value in the interval compare cmp against 0?"""
        if self.is_bot:
            return False
        if cmp == "=":
            return self.lo <= 0 <= self.hi
        if cmp == "!=":
            return not (self.lo == 0 == self.hi)
        if cmp == "<":
            return self.lo < 0
        if cmp == ">":
            return self.hi > 0
        if cmp == "<=":
            return self.lo <= 0
        return self.hi >= 0

    def refine_cmp(self, cmp: str) -> "Interval":
        """Hull of the subset satisfying `cmp 0` (assumes sat(cmp))."""
        if cmp == "=":
            return self.meet(Interval(0, 0))
        if cmp in ("<", "<="):
            return self.meet(Interval(NEG_INF, 0))
        if cmp in (">", ">="):
            return self.meet(Interval(0, INF))
        return self  # != : holes are not representable

    def __str__(self) -> str:
        lo, hi = self
        return "⊥" if lo is None else f"[{fmt_ext(lo)},{fmt_ext(hi)}]"


_new = tuple.__new__
BOT = Interval(None, None)


# ---------------------------------------------------------------------------
# Box environments


class BoxEnv:
    """Total map var -> non-bottom Interval, or the bottom environment."""

    __slots__ = ("_m",)

    def __init__(self, m: Optional[dict[str, Interval]]):
        self._m = m

    @staticmethod
    def bot() -> "BoxEnv":
        return _BOT_ENV

    @staticmethod
    def initial(p: Program) -> "BoxEnv":
        init = p.initial_map()
        return BoxEnv({v: Interval.of(*init[v]) for v in p.variables})

    @property
    def is_bot(self) -> bool:
        return self._m is None

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self._m) if self._m is not None else ()

    def get(self, var: str) -> Interval:
        if self._m is None:
            return BOT
        return self._m[var]

    def set(self, var: str, v: Interval) -> "BoxEnv":
        if self._m is None or v.lo is None:
            return _BOT_ENV
        m = dict(self._m)
        m[var] = v
        return BoxEnv(m)

    def join(self, other: "BoxEnv") -> "BoxEnv":
        if self.is_bot:
            return other
        if other.is_bot:
            return self
        return BoxEnv({v: self._m[v].join(other._m[v]) for v in self._m})

    def widen(self, other: "BoxEnv",
              thresholds: tuple[Num, ...] = ()) -> "BoxEnv":
        if self.is_bot:
            return other
        if other.is_bot:
            return self
        return BoxEnv({v: self._m[v].widen(other._m[v], thresholds)
                       for v in self._m})

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoxEnv):
            return NotImplemented
        return self._m == other._m

    def show(self, text: Callable[[Interval], str] = str) -> str:
        """The environment with its variables in order, each value
        written by text."""
        m = self._m
        if m is None:
            return "⊥"
        return "{" + ", ".join([f"{v}: {text(m[v])}" for v in sorted(m)]) + "}"

    __str__ = show


_BOT_ENV = BoxEnv(None)


# ---------------------------------------------------------------------------
# Transfer functions


class Tape(NamedTuple):
    """An expression's nodes in post-order, as (op, a, b, loc): "var" reads
    variable a, "const" is interval a, "neg" negates slot a, and an
    operator combines slots a and b.  `names` are the variables read, and
    `expr` lives as long as the tape, so id-keyed tapes never collide."""

    expr: Expr
    code: tuple[tuple, ...]
    names: tuple[str, ...]


def compile_tape(e: Expr) -> Tape:
    code: list[tuple] = []
    slots: list[int] = []  # operands not yet consumed, the left one on top
    for x in reversed(sub_exprs(e)):
        if isinstance(x, Var):
            code.append(("var", x.name, None, None))
        elif isinstance(x, Const):
            code.append(("const", Interval.of(x.lo, x.hi), None, None))
        elif isinstance(x, Neg):
            code.append(("neg", slots.pop(), None, None))
        else:
            left = slots.pop()
            code.append((x.op, left, slots.pop(), x.loc))
        slots.append(len(code) - 1)
    names = dict.fromkeys(a for op, a, _, _ in code if op == "var")
    return Tape(e, tuple(code), tuple(names))


def run_tape(tape: Tape, env: BoxEnv,
             ) -> tuple[list[Interval], frozenset[Location]]:
    """Bottom-up interval evaluation: every node's value, in tape order
    (the root last), and the divisions that may divide by zero."""
    get = env.get
    vals: list[Interval] = []
    errs: set[Location] = set()
    for op, a, b, loc in tape.code:
        if op == "var":
            v = get(a)
        elif op == "const":
            v = a
        elif op == "neg":
            v = -vals[a]
        elif op == "+":
            v = vals[a].add(vals[b])
        elif op == "-":
            v = vals[a].sub(vals[b])
        elif op == "*":
            v = vals[a].mul(vals[b])
        else:
            v, had_zero = vals[a].div(vals[b])
            if had_zero:
                errs.add(loc)
        vals.append(v)
    return vals, frozenset(errs)


def eval_abs(e: Expr, env: BoxEnv) -> tuple[Interval, frozenset[Location]]:
    """The interval of e in env, and its divisions that may divide by 0."""
    vals, errs = run_tape(compile_tape(e), env)
    return vals[-1], errs


def _refine(tape: Tape, target: Interval, vals: list[Interval],
            bounds: dict[str, Interval], fixed: frozenset[str]) -> bool:
    """One backward HC4 sweep from the root, narrowing `bounds` in place
    (but not the variables in `fixed`), over a stack of (slot, target)
    pairs.  Returns False on contradiction (the guard is unsatisfiable
    through some node)."""
    code = tape.code
    stack = [(len(code) - 1, target)]
    while stack:
        i, target = stack.pop()
        target = target.meet(vals[i])
        if target.lo is None:
            return False
        op, a, b, _ = code[i]
        if op == "var":
            if a not in fixed:
                newv = bounds[a].meet(target)
                if newv.lo is None:
                    return False
                bounds[a] = newv
        elif op == "neg":
            stack.append((a, -target))
        elif op != "const":  # a constant needs nothing: its meet was checked
            # push the right operand first: the left one is narrowed first
            l, r = vals[a], vals[b]
            if op == "+":
                stack += ((b, target.sub(l)), (a, target.sub(r)))
            elif op == "-":
                stack += ((b, l.sub(target)), (a, target.add(r)))
            elif op == "*":
                if not l.contains(0):
                    stack.append((b, target.div(l)[0]))
                if not r.contains(0):
                    stack.append((a, target.div(r)[0]))
            else:
                # division: left = target * right is exact for the
                # contributing pairs
                if not target.contains(0):
                    stack.append((b, l.div(target)[0]))
                stack.append((a, target.mul(r)))
    return True


def guard_in(tape: Tape, cmp: str, env: BoxEnv, seen: BoxEnv,
             fixed: frozenset[str], errors: frozenset[Location],
             ) -> tuple[BoxEnv, frozenset[Location]]:
    """Guard `tape cmp 0` on env, evaluated in `seen`; the variables in
    `fixed` (those `seen` widened) are not refined."""
    if env._m is None:
        return env, errors
    vals, errs = run_tape(tape, seen)
    errors = errors | errs
    val = vals[-1]
    if val.lo is None or not val.sat(cmp):
        return BoxEnv.bot(), errors
    bounds = dict(env._m)
    if not _refine(tape, val.refine_cmp(cmp), vals, bounds, fixed):
        return BoxEnv.bot(), errors
    return BoxEnv(bounds), errors


def transfer_assign(var: str, e: Expr, env: BoxEnv,
                    errors: frozenset[Location],
                    ) -> tuple[BoxEnv, frozenset[Location]]:
    if env.is_bot:
        return env, errors
    val, errs = eval_abs(e, env)
    return env.set(var, val), errors | errs


def transfer_guard(e: Expr, cmp: str, env: BoxEnv,
                   errors: frozenset[Location],
                   ) -> tuple[BoxEnv, frozenset[Location]]:
    return guard_in(compile_tape(e), cmp, env, env, frozenset(), errors)
