"""Elementary control-path transformations and the weak-memory fuzzer.

Nine peephole-style rewrites over per-thread control paths model the
reorderings a compiler or memory system may perform.  Side conditions are
checked conservatively by abstract evaluation over the top environment:
a check may reject a transformation that is actually fine, but it never
accepts one that is not.  An interference-based analysis of the original
program stays sound for any program transformed under verified conditions;
the fuzzer exercises exactly that inclusion, and its negative controls
prove it can detect violations when conditions are knowingly broken.
"""

from __future__ import annotations

import enum
import itertools
import random

from .config import AnalysisSettings, OracleBudget
from .domains import BoxEnv, Interval, eval_abs
from .interference import analyze_program_I
from .oracle import inclusion, run_interleavings
from .syntax import (
    Assign,
    BinOp,
    Const,
    ControlPath,
    Expr,
    Guard,
    Neg,
    Program,
    Record,
    Stmt,
    Var,
    classify_vars,
    fold_expr,
    lvals_of_stmt,
    sub_exprs,
    vars_of_expr,
)


class RuleId(enum.Enum):
    RedundantStore = "redundant-store"
    IdentityStore = "identity-store"
    ReorderAssigns = "reorder-assigns"
    ReorderGuards = "reorder-guards"
    GuardBeforeAssign = "guard-before-assign"
    AssignBeforeGuard = "assign-before-guard"
    AssignPropagation = "assign-propagation"
    SubexprElim = "subexpr-elim"
    ExprSimplify = "expr-simplify"


_OCCURRENCE_CAP = 4  # occurrence-subset enumeration bound per statement


# ---------------------------------------------------------------------------
# Side-condition checks (conservative: false negatives allowed, false
# positives forbidden)


def _top_env(e: Expr) -> BoxEnv:
    return BoxEnv.top(sorted(vars_of_expr(e)) or ["_"])


def check_noerror(e: Expr) -> bool:
    """No evaluation of e, in any environment, can raise an error."""
    _, errs = eval_abs(e, _top_env(e))
    return not errs


def check_nonblock(e: Expr) -> bool:
    """No evaluation of e can block (produce an empty value set).  Every
    division must have a divisor that either excludes 0 over the top
    environment or is a literal constant interval other than [0,0] (a wide
    literal always offers a non-zero value)."""
    env = _top_env(e)
    for node in sub_exprs(e):
        if isinstance(node, BinOp) and node.op == "/":
            d = node.right
            if isinstance(d, Const) and not (d.lo == 0 and d.hi == 0):
                continue
            v, _ = eval_abs(d, env)
            if v.is_bot or v.contains(0):
                return False
    return True


def check_deterministic(e: Expr) -> bool:
    """Every evaluation of e yields exactly one value: no wide constant
    intervals, and no possibility of blocking."""
    if any(isinstance(x, Const) and not x.is_singleton for x in sub_exprs(e)):
        return False
    return check_nonblock(e)


# ---------------------------------------------------------------------------
# Occurrence matching and substitution (modulo operator labels)


def strip(e: Expr) -> tuple:
    """e modulo operator labels, as a flat pre-order key."""
    return tuple(x.op if isinstance(x, BinOp) else "neg" if isinstance(x, Neg)
                 else ("var", x.name) if isinstance(x, Var)
                 else ("const", x.lo, x.hi) for x in sub_exprs(e))


def _matches(e: Expr, key) -> list[bool]:
    """Per node of e, in pre-order: whether it matches key.  A flat
    pre-order key spans exactly its own subtree, so a slice of e's key
    decides a match."""
    flat = strip(e)
    return [flat[i:i + len(key)] == key for i in range(len(flat))]


def _replace(e: Expr, key, chosen: frozenset[int], replacement: Expr,
             counter: list[int]) -> Expr:
    """e with the occurrences of key whose numbers are in `chosen` replaced.
    counter[0] numbers the occurrences in pre-order, across calls; they
    never nest, since key cannot match a strict sub-expression of itself."""
    hits = _matches(e, key)
    if not any(hits):
        return e
    occ: list[int | None] = []  # per pre-order node: its occurrence number
    for hit in hits:
        occ.append(counter[0] if hit else None)
        counter[0] += hit

    def go(x: Expr, *subs: Expr) -> Expr:
        i = occ.pop()  # the fold visits nodes in reverse pre-order
        if i is not None:
            return replacement if i in chosen else x
        if isinstance(x, Neg):
            return Neg(x.loc, *subs)
        return BinOp(x.op, x.loc, *subs) if isinstance(x, BinOp) else x

    return fold_expr(e, go)


def _subst_stmt(s: Stmt, key, chosen: frozenset[int], replacement: Expr,
                counter: list[int]) -> Stmt:
    if isinstance(s, Assign):
        return Assign(s.sid, s.var,
                      _replace(s.expr, key, chosen, replacement, counter))
    if isinstance(s, Guard):
        return Guard(s.sid,
                     _replace(s.expr, key, chosen, replacement, counter),
                     s.cmp)
    return s


def _occurrence_subsets(n: int) -> list[frozenset[int]]:
    n = min(n, _OCCURRENCE_CAP)
    out: list[frozenset[int]] = []
    for r in range(1, n + 1):
        out += [frozenset(c) for c in itertools.combinations(range(n), r)]
    return out


# ---------------------------------------------------------------------------
# Rule application


class TransformContext(Record):
    tid: int
    fresh: frozenset[str]
    local: frozenset[str]


def context_for(p: Program, tid: int,
                extra_paths: dict[int, list[ControlPath]] | None = None,
                ) -> TransformContext:
    fresh, local = classify_vars(p, extra_paths)
    return TransformContext(tid, fresh, local.get(tid, frozenset()))


def apply_rule(rule: RuleId, path: ControlPath,
               ctx: TransformContext) -> list[ControlPath]:
    """The paths made by each single application of `rule` anywhere in
    `path` whose side conditions verify, in position order.  Windows never
    contain synchronization primitives (the statement shapes only match
    assignments and guards)."""
    out: list[ControlPath] = []

    def emit(pos: int, replaced: list[Stmt], span: int) -> None:
        out.append(path[:pos] + tuple(replaced) + path[pos + span:])

    n = len(path)
    for i in range(n):
        a = path[i]
        b = path[i + 1] if i + 1 < n else None

        if rule is RuleId.RedundantStore and b is not None:
            if (isinstance(a, Assign) and isinstance(b, Assign)
                    and a.var == b.var
                    and a.var not in vars_of_expr(b.expr)
                    and check_nonblock(a.expr)):
                emit(i, [b], 2)

        elif rule is RuleId.IdentityStore:
            if (isinstance(a, Assign) and isinstance(a.expr, Var)
                    and a.expr.name == a.var):
                emit(i, [], 1)

        elif rule is RuleId.ReorderAssigns and b is not None:
            if (isinstance(a, Assign) and isinstance(b, Assign)
                    and a.var != b.var
                    and a.var not in vars_of_expr(b.expr)
                    and b.var not in vars_of_expr(a.expr)
                    and check_nonblock(a.expr)):
                emit(i, [b, a], 2)

        elif rule is RuleId.ReorderGuards and b is not None:
            if (isinstance(a, Guard) and isinstance(b, Guard)
                    and check_noerror(b.expr)):
                emit(i, [b, a], 2)

        elif rule is RuleId.GuardBeforeAssign and b is not None:
            if (isinstance(a, Assign) and isinstance(b, Guard)
                    and a.var not in vars_of_expr(b.expr)
                    and (check_nonblock(a.expr) or check_noerror(b.expr))):
                emit(i, [b, a], 2)

        elif rule is RuleId.AssignBeforeGuard and b is not None:
            if (isinstance(a, Guard) and isinstance(b, Assign)
                    and b.var not in vars_of_expr(a.expr)
                    and b.var in ctx.local
                    and check_noerror(b.expr)):
                emit(i, [b, a], 2)

        elif rule is RuleId.AssignPropagation and b is not None:
            if (isinstance(a, Assign) and isinstance(b, (Assign, Guard))
                    and a.var not in vars_of_expr(a.expr)
                    and vars_of_expr(a.expr) <= ctx.local
                    and check_deterministic(a.expr)):
                key = strip(Var(a.var))
                target = b.expr
                cnt = sum(_matches(target, key))
                for chosen in _occurrence_subsets(cnt):
                    s2 = _subst_stmt(b, key, chosen, a.expr, [0])
                    emit(i, [a, s2], 2)

        elif rule is RuleId.SubexprElim:
            for span in (1, 2, 3):
                if i + span > n:
                    break
                window = path[i:i + span]
                if not all(isinstance(s, (Assign, Guard)) for s in window):
                    break  # a sync primitive would enter the window
                lvals = frozenset().union(
                    *(lvals_of_stmt(s) for s in window))
                cands = []
                seen_keys = set()
                for s in window:
                    for x in sub_exprs(s.expr):
                        if isinstance(x, (Neg, BinOp)):
                            k = strip(x)
                            if k not in seen_keys:
                                seen_keys.add(k)
                                cands.append(x)
                for epat in cands:
                    if vars_of_expr(epat) & lvals:
                        continue
                    if not check_noerror(epat):
                        continue
                    for x in sorted(ctx.fresh):
                        key = strip(epat)
                        repl = Var(x)
                        new_window: list[Stmt] = [
                            Assign(f"cse:{x}:{i}", x, epat)]
                        counters = [0]
                        for s in window:
                            new_window.append(
                                _subst_stmt(s, key, frozenset(
                                    range(_OCCURRENCE_CAP)), repl, counters))
                        emit(i, new_window, span)
                        break  # one fresh variable is as good as another

        elif rule is RuleId.ExprSimplify:
            if isinstance(a, (Assign, Guard)):
                for e_old, e_new in _simplify_candidates(a.expr, ctx):
                    key = strip(e_old)
                    cnt = sum(_matches(a.expr, key))
                    for chosen in _occurrence_subsets(cnt):
                        s2 = _subst_stmt(a, key, chosen, e_new, [0])
                        if s2 != a:
                            emit(i, [s2], 1)

    return out


def _simplify_candidates(e: Expr, ctx: TransformContext,
                         ) -> list[tuple[Expr, Expr]]:
    """Catalog of value-containment-safe rewrites found inside e."""
    out = []
    seen = set()
    for x in sub_exprs(e):
        k = strip(x)
        if k in seen:
            continue
        seen.add(k)
        cand: Expr | None = None
        if isinstance(x, BinOp):
            l, r = x.left, x.right
            zero = lambda c: isinstance(c, Const) and c.lo == 0 and c.hi == 0
            one = lambda c: isinstance(c, Const) and c.lo == 1 and c.hi == 1
            if x.op == "+" and zero(r):
                cand = l  # identity: e+0 -> e
            elif x.op == "+" and zero(l):
                cand = r  # identity: 0+e -> e
            elif x.op == "-" and zero(r):
                cand = l  # identity: e-0 -> e
            elif x.op == "*" and one(r):
                cand = l  # identity: e*1 -> e
            elif x.op == "*" and one(l):
                cand = r  # identity: 1*e -> e
            elif x.op == "*" and zero(r) and check_nonblock(l):
                cand = Const(0, 0)  # annihilation: e*0 -> 0
            elif (x.op in ("+", "-", "*") and isinstance(l, Const)
                  and isinstance(r, Const)):
                li = Interval.of(l.lo, l.hi)
                ri = Interval.of(r.lo, r.hi)
                v = (li.add(ri) if x.op == "+"
                     else li.sub(ri) if x.op == "-" else li.mul(ri))
                if not v.is_bot:
                    cand = Const(v.lo, v.hi)  # constant folding
        elif isinstance(x, Neg):
            if isinstance(x.sub, Const):
                v = -Interval.of(x.sub.lo, x.sub.hi)
                if not v.is_bot:
                    cand = Const(v.lo, v.hi)  # constant folding
            elif isinstance(x.sub, Neg):
                cand = x.sub.sub  # involution: --e -> e
        if cand is not None and (vars_of_expr(x)
                                 | vars_of_expr(cand)) <= ctx.local:
            out.append((x, cand))
    return out


# ---------------------------------------------------------------------------
# The differential fuzzer


class FuzzViolation(Record):
    thread: int
    rules: list[str]
    missing: list[int]  # labels the analyzer failed to cover
    path_before: list[str]
    path_after: list[str]


class FuzzReport(Record):
    trials: int
    effective: int  # trials where at least one rule application ran
    seed: int
    oracle: str
    per_rule: dict[str, dict[str, int]]
    violations: list[FuzzViolation]
    inconclusive: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _pretty_path(path: ControlPath) -> list[str]:
    from .syntax import pretty_stmt

    return [pretty_stmt(s).strip() for s in path]


def fuzz_weakmem(p: Program, trials: int = 50, chain: int = 4, seed: int = 0,
                 unroll: int = 3,
                 budget: OracleBudget = OracleBudget(),
                 settings: AnalysisSettings = AnalysisSettings(),
                 ) -> FuzzReport:
    """Transform per-thread paths under verified side conditions, run the
    interleaving oracle on the transformed paths, and require its errors to
    be covered by the untransformed program's interference analysis."""
    from .concrete import paths as mk_paths, sorted_paths

    rng = random.Random(seed)
    alarms = frozenset(analyze_program_I(p, settings).omega)

    base = {t.tid: mk_paths(t.body, unroll).paths for t in p.threads}
    pools = {tid: sorted_paths(ps) for tid, ps in base.items()}

    per_rule = {r.value: {"applied": 0, "skipped": 0, "violations": 0}
                for r in RuleId}
    violations: list[FuzzViolation] = []
    inconclusive = 0
    effective = 0

    for _ in range(trials):
        tid = rng.choice(p.tids)
        pool = pools[tid]
        if not pool:
            continue
        path0 = pool[rng.randrange(len(pool))]
        path = path0
        used: list[str] = []
        for _ in range(rng.randint(1, chain)):
            ctx = context_for(p, tid, {tid: [path]})
            order = list(RuleId)
            rng.shuffle(order)
            apps: list[ControlPath] = []
            for rule in order:
                apps = apply_rule(rule, path, ctx)
                if apps:
                    break
                per_rule[rule.value]["skipped"] += 1
            if not apps:
                break  # nothing applies anywhere on this path
            path = apps[rng.randrange(len(apps))]
            per_rule[rule.value]["applied"] += 1
            used.append(rule.value)
        if not used:
            continue
        effective += 1
        thread_paths = dict(base)
        thread_paths[tid] = (base[tid] - {path0}) | {path}
        inc = inclusion(run_interleavings(p, unroll=unroll, budget=budget,
                                          thread_paths=thread_paths,
                                          collect_witnesses=False), alarms)
        if inc.verdict == "INCONCLUSIVE":
            inconclusive += 1
        elif inc.verdict == "FAIL":
            for r in used:
                per_rule[r]["violations"] += 1
            violations.append(FuzzViolation(
                thread=tid,
                rules=used,
                missing=sorted(l.label for l in inc.missing),
                path_before=_pretty_path(path0),
                path_after=_pretty_path(path),
            ))

    return FuzzReport(trials=trials, effective=effective, seed=seed,
                      oracle="interleave", per_rule=per_rule,
                      violations=violations, inconclusive=inconclusive)


# ---------------------------------------------------------------------------
# Negative controls: break a side condition on purpose, expect detection


class NegativeControl(Record):
    name: str
    detected: bool
    missing: list[int]


def negative_controls(unroll: int = 2,
                      budget: OracleBudget = OracleBudget(),
                      ) -> list[NegativeControl]:
    """Hand-built violations of Def-style side conditions.  Each one must
    produce at least one oracle error not covered by the original
    program's interference analysis, proving the harness has teeth."""
    from .concrete import paths as mk_paths
    from .parser import parse_program

    out: list[NegativeControl] = []

    def check(name: str, src: str, rewrite) -> None:
        p = parse_program(src)
        alarms = analyze_program_I(p).omega
        base = {t.tid: mk_paths(t.body, unroll).paths for t in p.threads}
        tid, old, new = rewrite(p, base)
        thread_paths = dict(base)
        thread_paths[tid] = (base[tid] - {old}) | {new}
        inc = inclusion(run_interleavings(p, unroll=unroll, budget=budget,
                                          thread_paths=thread_paths,
                                          collect_witnesses=False), alarms)
        out.append(NegativeControl(name, inc.verdict == "FAIL",
                                   sorted(l.label for l in inc.missing)))

    # (a) reorder assignments without nonblock(e1): the blocking 1/[0,0]
    # masked the second division's error in the original program
    def swap_first_two(p, base):
        tid = 1
        path = next(iter(base[tid]))
        return tid, path, (path[1], path[0]) + path[2:]

    check("reorder-assigns without nonblock(e1)",
          "var a; var b; var c;\n"
          "thread 1 { a <- 1 / [0,0]; b <- 1 / c; }\n",
          swap_first_two)

    # (b) redundant-store elimination without nonblock(e1): removing the
    # blocking store unmasks the later division by zero
    def drop_first(p, base):
        tid = 1
        path = next(iter(base[tid]))
        return tid, path, path[1:]

    check("redundant-store without nonblock(e1)",
          "var x; var z; var y;\n"
          "thread 1 { x <- 1 / [0,0]; x <- 1; z <- 1 / y; }\n",
          drop_first)

    # (c) assign-before-guard with a non-local variable: hoisting the
    # store above its guard publishes a value other threads must not see
    def hoist_store(p, base):
        tid = 1
        path = next(p for p in base[tid] if len(p) == 2)  # (guard, assign)
        return tid, path, (path[1], path[0])

    check("assign-before-guard with shared X2",
          "var flag = [1,1]; var x; var w;\n"
          "thread 1 { if flag = 0 then { x <- 1; } }\n"
          "thread 2 { w <- 1 / (1 - x); }\n",
          hoist_store)

    # (d) expression simplification without value containment: widening a
    # constant breaks the replaced-by-subset requirement
    def widen_const(p, base):
        tid = 1
        path = next(iter(base[tid]))
        stmt = path[0]
        wide = Assign(stmt.sid, stmt.var,
                      BinOp("/", stmt.expr.loc, Const(1, 1), Const(0, 1)))
        return tid, path, (wide,) + path[1:]

    check("expr-simplify without containment",
          "var b;\nthread 1 { b <- 1 / [1,1]; }\n",
          widen_const)

    return out
