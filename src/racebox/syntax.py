"""Labeled AST for the small concurrent language.

Programs are a fixed set of integer-priority threads over shared rational
variables and mutexes.  Every unary/binary operator carries a unique
location label; alarms are reported as sets of those labels.  Guards
(`e cmp 0 ?`) never appear in source text: they are synthesized when
conditionals and loops are desugared and when control paths are extracted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterator, TypeVar, Union

# The one number format: exact rationals, written as an int whenever the
# value is integral and as a Fraction otherwise (Fraction arithmetic may
# still give an integral Fraction, which prints, hashes, compares and sorts
# as the equal int).  Interval endpoints (Ext) may also be the floats
# +/-inf, the only floats there are.
Num = Union[int, Fraction]
Ext = Union[Num, float]
T = TypeVar("T")

INF = math.inf
NEG_INF = -math.inf

CMP_OPS = ("=", "!=", "<", ">", "<=", ">=")
BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}  # a unary - binds at 3

# negation table: =, !=, <, >, <=, >= negate to !=, =, >=, <=, >, <
_NEGATE = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


def negate_cmp(cmp: str) -> str:
    return _NEGATE[cmp]


# the guards an If (then/else) or a While (body/exit) desugars into


def then_guard(s: If) -> Guard:
    return Guard(f"{s.sid}:then", s.expr, s.cmp)


def else_guard(s: If) -> Guard:
    return Guard(f"{s.sid}:else", s.expr, negate_cmp(s.cmp))


def body_guard(s: While) -> Guard:
    return Guard(f"{s.sid}:body", s.expr, s.cmp)


def exit_guard(s: While) -> Guard:
    return Guard(f"{s.sid}:exit", s.expr, negate_cmp(s.cmp))


def num(x) -> Num:
    """The one number constructor: an int, a Fraction, or a decimal or
    p/q string, as a Num."""
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def ratdiv(a: Num, b: Num) -> Num:
    """The one division: a / b (b != 0) as a Num, never a float."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def is_finite(x: Ext) -> bool:
    return x.__class__ is not float


# instance attributes are set with object's __setattr__, which keeps
# them in the object's compact layout; Record's own refuses assignment
_set = object.__setattr__


class Record:
    """The base of the AST nodes, the program, and the configuration and
    result records.  A subclass's fields are its own annotations, in
    order, and its class-level values are their defaults.  One __init__
    takes the fields by position or by name (then calls __post_init__ if
    the class has one); a subclass that builds many records gets its own
    (_counting_init), which takes the calls with every field by position.
    Records are immutable, equal when of the same class with equal
    compared fields (all of them unless the class names them with
    `compare=`), and hash as the tuple of those fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, compare: tuple[str, ...] = (), **kw):
        super().__init_subclass__(**kw)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls._defaults = {**cls._defaults, **{
            n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        names = compare or cls._fields
        get = attrgetter(*names) if names else lambda x: ()
        # a tuple even for one field, so that hashes are tuple hashes
        cls._key = staticmethod(get if len(names) != 1
                                else lambda x: (get(x),))
        cls._post_init = hasattr(cls, "__post_init__")
        cls.__init__ = _counting_init(cls)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # the fields after args, from kwargs or else the defaults
            rest = fields[len(args):]
            values = {**self._defaults, **kwargs}
            if (len(args) > len(fields) or not kwargs.keys() <= set(rest)
                    or not values.keys() >= set(rest)):
                raise TypeError(f"{self.__class__.__name__} takes the"
                                f" fields {fields}")
            args = [*args, *(values[n] for n in rest)]
        for name, value in zip(fields, args):
            _set(self, name, value)
        if self._post_init:
            self.__post_init__()

    def _replace(self, **changes) -> Record:
        return self.__class__(**{**{n: getattr(self, n)
                                    for n in self._fields}, **changes})

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = (f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"


# records a class builds through the generic __init__ before it compiles
# its own: the compile (about 90 us) costs what the compiled one saves
# over about as many
COMPILE_AFTER = 256


def _counting_init(cls: type[Record]) -> Callable[..., None]:
    """cls's __init__ until it has built COMPILE_AFTER records: the generic
    one, counting; then cls's own (_positional_init) replaces it.  A run
    that builds few records of a class, as a cold CLI start does, never
    pays the compile."""
    built = 0

    def __init__(self, *args, **kwargs) -> None:
        nonlocal built
        built += 1
        if built == COMPILE_AFTER:
            cls.__init__ = _positional_init(cls)
        Record.__init__(self, *args, **kwargs)
    return __init__


def _positional_init(cls: type[Record]) -> Callable[..., None]:
    """cls's constructor, generated as a dataclass's __init__ is: it sets
    every field given by position directly, and passes other calls on."""
    fields = cls._fields
    src = (f"def __init__(self, *args, **kwargs):\n"
           f"    if kwargs or len(args) != {len(fields)}:\n"
           f"        return _generic(self, *args, **kwargs)\n"
           f"    ({''.join(f'a{i}, ' for i in range(len(fields)))}) = args\n"
           + "".join(f"    _set(self, {n!r}, a{i})\n"
                     for i, n in enumerate(fields))
           + ("    self.__post_init__()\n" if cls._post_init else ""))
    ns = {"_set": _set, "_generic": Record.__init__}
    exec(src, ns)
    return ns["__init__"]


class Location(Record, compare=("label",)):
    """Unique syntactic label of an operator, plus source position.

    Identity is the label alone; the position is reporting metadata and
    does not participate in equality (so reformatting a program does not
    change its AST)."""

    label: int
    line: int
    col: int
    op: str

    def sort_key(self) -> tuple:
        return (self.line, self.col, self.label)

    def __str__(self) -> str:
        return f"L{self.label}@{self.line}:{self.col}({self.op})"


# ---------------------------------------------------------------------------
# Expressions


class Expr(Record):
    __slots__ = ()


class Var(Expr):
    name: str


class Const(Expr):
    """Constant interval [lo, hi]; evaluates to a fresh value each time."""

    lo: Ext
    hi: Ext

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"constant interval with lo > hi: [{self.lo},{self.hi}]")

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi


class _Tree:
    """A node with children: an operator, or an if, while or block.  It
    hashes once, at construction, from its fields and its children's
    cached hashes, and compares node by node along sub_exprs or sub_stmts:
    neither recurses, however deep the tree."""

    def __post_init__(self):
        _set(self, "_hash", Record.__hash__(self))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        walk = sub_exprs if isinstance(self, Expr) else sub_stmts
        return self._hash == other._hash and all(
            map(_same_node, walk(self), walk(other)))


def _same_node(x: Record, y: Record) -> bool:
    """x and y are equal apart from their children."""
    if x.__class__ is not y.__class__:
        return False
    if isinstance(x, BinOp):
        return x.op == y.op and x.loc == y.loc
    if isinstance(x, (If, While)):
        return (x.sid, x.expr, x.cmp) == (y.sid, y.expr, y.cmp)
    if isinstance(x, Block):
        return x.sid == y.sid and len(x.body) == len(y.body)
    if isinstance(x, Neg):
        return x.loc == y.loc
    # any other tree is the fieldless _Op, for which `==` would come back
    return Record.__eq__(x, y) if isinstance(x, _Tree) else x == y


class _Op(_Tree, Expr):
    """An operator node; it shows as its source text, which does not
    recurse either."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({pretty_expr(self)!r})"


class Neg(_Op):
    loc: Location
    sub: Expr


class BinOp(_Op):
    op: str
    loc: Location
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Statements

Sid = Union[int, str]


class Stmt(Record):
    __slots__ = ()


class Assign(Stmt):
    sid: Sid
    var: str
    expr: Expr


class Guard(Stmt):
    """Internal filter statement `e cmp 0 ?`; never parsed from source."""

    sid: Sid
    expr: Expr
    cmp: str


class If(_Tree, Stmt):
    sid: Sid
    expr: Expr
    cmp: str
    body: Stmt


class While(_Tree, Stmt):
    sid: Sid
    expr: Expr
    cmp: str
    body: Stmt


class Block(_Tree, Stmt):
    """Statements run in order; recursion over a block follows nesting,
    not length."""

    sid: Sid
    body: tuple[Stmt, ...]


class Lock(Stmt):
    sid: Sid
    mutex: str


class Unlock(Stmt):
    sid: Sid
    mutex: str


class Yield(Stmt):
    sid: Sid


class IsLocked(Stmt):
    """X <- islocked(m): stores 1 if some thread holds m, else 0."""

    sid: Sid
    var: str
    mutex: str


# the body of an empty block: an always-true guard acts as a no-op
SKIP = Guard(0, Const(0, 0), "=")


def _is_skip(s: Stmt) -> bool:
    return isinstance(s, Guard) and (s.expr, s.cmp) == (SKIP.expr, SKIP.cmp)


SYNC_TYPES = (Lock, Unlock, Yield, IsLocked)

# A control path is a finite sequence of primitive statements.
ControlPath = tuple[Stmt, ...]


# ---------------------------------------------------------------------------
# Programs


class Thread(Record):
    tid: int  # doubles as the priority: higher tid = higher priority
    body: Stmt


class Program(Record):
    threads: tuple[Thread, ...]
    mutexes: tuple[str, ...]
    variables: tuple[str, ...]  # sorted lexicographically
    initial: tuple[tuple[str, tuple[Ext, Ext]], ...]  # var -> initial interval

    def thread(self, tid: int) -> Thread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise KeyError(tid)

    @property
    def tids(self) -> tuple[int, ...]:
        return tuple(t.tid for t in self.threads)

    def initial_map(self) -> dict[str, tuple[Ext, Ext]]:
        init = {v: (0, 0) for v in self.variables}
        init.update(dict(self.initial))
        return init


# ---------------------------------------------------------------------------
# Traversals


def sub_exprs(e: Expr) -> list[Expr]:
    """All sub-expressions of e, including e itself, in pre-order (each
    node before its operands, left before right).  This and fold_expr are
    the one expression walk: an explicit stack, so no expression depth
    makes a walker recurse."""
    out, stack = [], [e]
    while stack:
        e = stack.pop()
        out.append(e)
        if isinstance(e, BinOp):
            stack.append(e.right)
            stack.append(e.left)
        elif isinstance(e, Neg):
            stack.append(e.sub)
    return out


def fold_expr(e: Expr, f: Callable[..., T]) -> T:
    """Bottom-up fold: f(x) at a Var or Const, f(x, sub) at a Neg and
    f(x, left, right) at a BinOp, given the folds of its operands.  Nodes
    are visited in reverse pre-order, so the right operand's subtree comes
    before the left one's."""
    if not isinstance(e, (BinOp, Neg)):
        return f(e)
    vals: list[T] = []
    for x in reversed(sub_exprs(e)):
        if isinstance(x, BinOp):
            left = vals.pop()
            vals[-1] = f(x, left, vals[-1])
        elif isinstance(x, Neg):
            vals[-1] = f(x, vals[-1])
        else:
            vals.append(f(x))
    return vals[0]


def sub_stmts(s: Stmt) -> Iterator[Stmt]:
    stack = [s]  # pre-order; a stack, not nested generators, keeps it O(n)
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, (If, While)):
            stack.append(s.body)
        elif isinstance(s, Block):
            stack += reversed(s.body)


def stmt_exprs(s: Stmt) -> Iterator[Expr]:
    for sub in sub_stmts(s):
        if isinstance(sub, (Assign, Guard, If, While)):
            yield sub.expr


def vars_of_expr(e: Expr) -> frozenset[str]:
    return frozenset(x.name for x in sub_exprs(e) if isinstance(x, Var))


def lvals_of_stmt(s: Stmt) -> frozenset[str]:
    """Variables a primitive statement may modify."""
    if isinstance(s, (Assign, IsLocked)):
        return frozenset((s.var,))
    return frozenset()


def vars_of_stmt(s: Stmt) -> frozenset[str]:
    """All variables occurring in s (read or written)."""
    out: set[str] = set()
    for sub in sub_stmts(s):
        if isinstance(sub, (Assign, IsLocked)):
            out.add(sub.var)
        if isinstance(sub, (Assign, Guard, If, While)):
            out |= vars_of_expr(sub.expr)
    return frozenset(out)


def expr_locations(e: Expr) -> frozenset[Location]:
    return frozenset(x.loc for x in sub_exprs(e) if isinstance(x, (Neg, BinOp)))


# ---------------------------------------------------------------------------
# Canonical labeling: the one builder of labeled programs

# Labels are assigned 1,2,3,... walking threads in id order, statements in
# program order, expressions depth-first left-to-right.  Reparsing pretty
# printed output therefore reproduces the labels exactly.
#
# The builder reads trees of plain tuples.  A statement tree is (record
# class, fields but the sid...), with a Block's statements in a list; an
# operator tree is (op, line, col, operand) for a negation, whose op is
# "-u", and (op, line, col, left, right) for a binary one.  Variables and
# constants carry no label, so they are records in the tree.


class Builder:
    """Builds each record of a tree once, with its canonical sid and
    labels, numbered on from the last tree it built."""

    def __init__(self):
        self.sid = 1  # the next statement id and operator label to build
        self.label = 1

    def program(self, bodies: list[tuple], mutexes: tuple[str, ...],
                variables: tuple[str, ...],
                initial: tuple[tuple[str, tuple[Ext, Ext]], ...]) -> Program:
        """The program whose threads 1..n have the statement trees
        bodies, in order."""
        threads = tuple(Thread(tid, self.stmt(body))
                        for tid, body in enumerate(bodies, 1))
        return Program(threads, mutexes, variables, initial)

    def stmt(self, s: tuple) -> Stmt:
        """The record of the statement tree s.  A Block runs its
        statements in order: one of none is SKIP, one of one statement
        is that statement."""
        while s[0] is Block and len(s[1]) == 1:
            s = s[1][0]
        cls = s[0]
        sid = self.sid
        self.sid += 1
        if cls is Assign:
            return Assign(sid, s[1], self.expr(s[2]))
        if cls is If or cls is While:
            e = self.expr(s[1])
            return cls(sid, e, s[2], self.stmt(s[3]))
        if cls is Block:
            if not s[1]:
                return Guard(sid, SKIP.expr, SKIP.cmp)
            # one sid before each statement but the last, the first being
            # the block's own: the numbering of a right-nested binary chain
            body, last = s[1], len(s[1]) - 1
            out = []
            for i, sub in enumerate(body):
                if 0 < i < last:
                    self.sid += 1
                out.append(self.stmt(sub))
            return Block(sid, tuple(out))
        return cls(sid, *s[1:])

    def expr(self, e: tuple | Expr) -> Expr:
        """The record of the expression tree e, its operators labelled in
        pre-order from the next label, without recursion: Locations go in
        pre-order, then the operators in reverse pre-order, where each
        comes after its operands."""
        if e.__class__ is not tuple:
            return e
        label = self.label
        nodes: list[Record] = []
        stack = [e]
        while stack:
            x = stack.pop()
            if x.__class__ is tuple:
                nodes.append(Location(label, x[1], x[2], x[0]))
                label += 1
                stack += x[:2:-1]  # the left operand on top
            else:
                nodes.append(x)
        self.label = label
        vals: list[Expr] = []
        for x in reversed(nodes):
            if x.__class__ is not Location:
                vals.append(x)
            elif x.op == "-u":
                vals[-1] = Neg(x, vals[-1])
            else:
                left = vals.pop()
                vals[-1] = BinOp(x.op, x, left, vals[-1])
        return vals[0]


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through the parser)


def fmt_ext(x: Ext) -> str:
    """x as the parser reads it back: 3, 1/2, inf or -inf."""
    return str(x)


def pretty_expr(e: Expr) -> str:
    def show(x: Expr, *subs: tuple[str, int]) -> tuple[str, int]:
        """x's text, and how tightly it binds as an operand: 4 for a leaf,
        0 for a negation, which any operator parenthesizes."""
        if isinstance(x, Var):
            return x.name, 4
        if isinstance(x, Const):
            if (x.is_singleton and is_finite(x.lo) and x.lo.denominator == 1
                    and x.lo >= 0):
                return str(x.lo), 4
            return f"[{fmt_ext(x.lo)},{fmt_ext(x.hi)}]", 4
        if isinstance(x, Neg):
            (s, p), = subs
            return "-" + (f"({s})" if p < 3 else s), 0
        (ls, lp), (rs, rp) = subs
        prec = BIN_PREC[x.op]
        # left associativity: a right operand at equal precedence needs parens
        left = f"({ls})" if lp < prec else ls
        right = f"({rs})" if rp <= prec else rs
        return f"{left} {x.op} {right}", prec

    return fold_expr(e, show)[0]


def pretty_stmt(s: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, Assign):
        return f"{pad}{s.var} <- {pretty_expr(s.expr)};"
    if isinstance(s, Guard):
        # internal form; printed only in traces (SKIP bodies print as `{ }`)
        return f"{pad}{pretty_expr(s.expr)} {s.cmp} 0 ?"
    if isinstance(s, (If, While, Block)):
        return _pretty([(s, indent, False)])
    if isinstance(s, Lock):
        return f"{pad}lock({s.mutex});"
    if isinstance(s, Unlock):
        return f"{pad}unlock({s.mutex});"
    if isinstance(s, Yield):
        return f"{pad}yield;"
    if isinstance(s, IsLocked):
        return f"{pad}{s.var} <- islocked({s.mutex});"
    raise TypeError(s)


def _pretty(todo: list) -> str:
    """The text of a stack of items, printed without recursion: an item is
    a string, or (statement, indent, braced), braced closing at indent."""
    out: list[str] = []
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        s, indent, braced = item
        pad = "  " * indent
        if braced:
            todo += (["{ }"] if _is_skip(s)
                     else [f"\n{pad}}}", (s, indent + 1, False), "{\n"])
        elif isinstance(s, (If, While)):
            head = "if {} then " if isinstance(s, If) else "while {} do "
            todo += [(s.body, indent, True),
                     pad + head.format(f"{pretty_expr(s.expr)} {s.cmp} 0")]
        elif isinstance(s, Block):
            for k, sub in enumerate(reversed(s.body)):  # the last one first
                nest = isinstance(sub, Block) or _is_skip(sub)
                todo += [(sub, indent, nest), pad if nest else "",
                         "\n" if k < len(s.body) - 1 else ""]
        else:
            out.append(pretty_stmt(s, indent))
    return "".join(out)


def pretty_program(p: Program) -> str:
    lines: list[str] = []
    init = dict(p.initial)
    for v in p.variables:
        if v in init:
            lo, hi = init[v]
            lines.append(f"var {v} = [{fmt_ext(lo)},{fmt_ext(hi)}];")
        else:
            lines.append(f"var {v};")
    for m in p.mutexes:
        lines.append(f"mutex {m};")
    for t in p.threads:
        lines.append(f"thread {t.tid} " + _pretty([(t.body, 0, True)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Syntactic metadata


def collect_lock_sets(p: Program) -> dict[int, frozenset[str]]:
    """Per thread, the set of mutexes m with a lock(m) anywhere in its body.

    Syntactic over-approximation of the mutexes the thread may ever hold;
    used to decide when islocked() can be modeled precisely.
    """
    out: dict[int, frozenset[str]] = {}
    for t in p.threads:
        out[t.tid] = frozenset(
            s.mutex for s in sub_stmts(t.body) if isinstance(s, Lock))
    return out


def var_threads(p: Program) -> dict[str, set[int]]:
    """Per declared variable, the ids of the threads in which it occurs."""
    occ: dict[str, set[int]] = {v: set() for v in p.variables}
    for t in p.threads:
        for v in vars_of_stmt(t.body):
            occ[v].add(t.tid)
    return occ
