"""The structured concrete semantics of the sequential fragment: the
reference that the path semantics (`racebox.concrete.paths`), the oracles
and the analyzers are checked against.  No racebox run uses it."""

from __future__ import annotations

import operator

from racebox.concrete import Env, PathSet, VarIndex, const_points, start_envs
from racebox.syntax import (
    Assign,
    BinOp,
    Block,
    Const,
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
    ratdiv,
    stmt_exprs,
    sub_exprs,
    then_guard,
    vars_of_expr,
)


class ConcreteState(Record):
    vars: tuple[str, ...]
    envs: frozenset[Env]
    errors: frozenset[Location]

    def index(self) -> VarIndex:
        return {v: i for i, v in enumerate(self.vars)}


def initial_state(p: Program) -> ConcreteState:
    """All combinations of the points of the declared initial intervals."""
    return ConcreteState(p.variables, frozenset(start_envs(p)), frozenset())


class FixpointBudgetExceeded(Exception):
    """Loop iteration exceeded the state budget; .partial holds the
    accumulated (non-converged) state."""

    def __init__(self, partial: ConcreteState):
        super().__init__("concrete loop fixpoint exceeded its state budget")
        self.partial = partial


def join(a: ConcreteState, b: ConcreteState) -> ConcreteState:
    return ConcreteState(a.vars, a.envs | b.envs, a.errors | b.errors)


def to_json(st: ConcreteState) -> dict:
    """Sorted, lexicographic-variable-order state dump."""
    return {
        "vars": list(st.vars),
        "envs": [[str(v) for v in env] for env in sorted(st.envs)],
        "errors": sorted(l.label for l in st.errors),
    }


# the reference's own operator tables: it shares no compiled form with the
# oracles and the analyzers that it checks
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
HOLDS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
         ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def eval_concrete(e: Expr, rho: dict[str, Num]
                  ) -> tuple[frozenset[Num], frozenset[Location]]:
    """Values and error labels of e in one dict-based environment, by
    structural recursion over e."""
    if isinstance(e, Var):
        return frozenset((rho[e.name],)), frozenset()
    if isinstance(e, Const):
        return frozenset(const_points(e.lo, e.hi)), frozenset()
    if isinstance(e, Neg):
        vals, errs = eval_concrete(e.sub, rho)
        return frozenset(-v for v in vals), errs
    lvals, lerrs = eval_concrete(e.left, rho)
    rvals, rerrs = eval_concrete(e.right, rho)
    errs = lerrs | rerrs
    if e.op != "/":
        f = _ARITH[e.op]
        return frozenset(f(a, b) for a in lvals for b in rvals), errs
    if 0 in rvals:
        errs |= {e.loc}
    return (frozenset(ratdiv(a, b) for a in lvals for b in rvals if b != 0),
            errs)


def _prim(s: Stmt, st: ConcreteState) -> ConcreteState:
    """An Assign or a Guard on every environment, through eval_concrete:
    not through the oracles' compiled primitives, which this checks."""
    if not st.envs:
        return st
    idx = st.index()
    names = tuple(vars_of_expr(s.expr))
    reads = [idx[x] for x in names]
    w = idx[s.var] if isinstance(s, Assign) else None
    memo: dict = {}  # eval_concrete per values of the variables s reads
    envs: set[Env] = set()
    errors = set(st.errors)
    for env in st.envs:
        key = tuple(env[i] for i in reads)
        out = memo.get(key)
        if out is None:
            out = memo[key] = eval_concrete(s.expr, dict(zip(names, key)))
        vals, errs = out
        errors |= errs
        if w is None:
            if any(HOLDS[s.cmp](v, 0) for v in vals):
                envs.add(env)
        else:
            envs.update(env[:w] + (v,) + env[w + 1:] for v in vals)
    return ConcreteState(st.vars, frozenset(envs), frozenset(errors))


def exec_stmt(s: Stmt, st: ConcreteState,
              budget: int = 10_000) -> ConcreteState:
    """Structured concrete semantics of the sequential fragment.

    Loops are computed as Kleene iterations of their least fixpoint; if the
    accumulated state grows past `budget` environments the iteration aborts
    with FixpointBudgetExceeded carrying the partial state.
    """
    if isinstance(s, (Assign, Guard)):
        return _prim(s, st)
    if isinstance(s, Block):
        for sub in s.body:
            st = exec_stmt(sub, st, budget)
        return st
    if isinstance(s, If):
        taken = exec_stmt(s.body, _prim(then_guard(s), st), budget)
        skipped = _prim(else_guard(s), st)
        return join(taken, skipped)
    if isinstance(s, While):
        acc = ConcreteState(st.vars, frozenset(), frozenset())
        while True:
            step = exec_stmt(s.body, _prim(body_guard(s), acc), budget)
            new = join(st, step)
            if new.envs == acc.envs and new.errors == acc.errors:
                break
            acc = new
            if len(acc.envs) > budget:
                raise FixpointBudgetExceeded(acc)
        return _prim(exit_guard(s), acc)
    raise ValueError(f"synchronization primitive in sequential fragment: {s}")


def run_paths(path_set, st: ConcreteState) -> ConcreteState:
    """Join of the primitive transfer compositions over a set of paths."""
    ps = path_set.paths if isinstance(path_set, PathSet) else path_set
    out = ConcreteState(st.vars, frozenset(), st.errors)
    for path in ps:
        cur = st
        for prim in path:
            if not isinstance(prim, (Assign, Guard)):
                raise ValueError(f"run_paths only handles assign/guard: {prim}")
            cur = _prim(prim, cur)
        out = join(out, cur)
    return out


def expr_locations(e: Expr) -> frozenset[Location]:
    """The operator locations of e."""
    return frozenset(x.loc for x in sub_exprs(e) if isinstance(x, (Neg, BinOp)))


def program_locations(p: Program) -> frozenset[Location]:
    """The operator locations of every thread of p."""
    out: set[Location] = set()
    for t in p.threads:
        for e in stmt_exprs(t.body):
            out |= expr_locations(e)
    return frozenset(out)
