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
import os
import pickle
import random
import threading
from collections import defaultdict
from functools import partial

from .config import UNROLL, AnalysisSettings, OracleBudget
from .domains import BoxEnv, Interval, eval_abs
from .interference import analyze_program_I
from .oracle import ExploreResult, inclusion, run_interleavings
from .syntax import (
    Assign,
    BinOp,
    Const,
    ControlPath,
    Expr,
    Guard,
    Location,
    Neg,
    Program,
    Record,
    Stmt,
    Var,
    fold_expr,
    lvals_of_stmt,
    sub_exprs,
    var_threads,
    vars_of_expr,
    vars_of_stmt,
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
    return BoxEnv({v: Interval.top()
                   for v in sorted(vars_of_expr(e)) or ["_"]})


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


class _Facts:
    """A memo of what the rules ask of expression and statement nodes:
    fact(e) for a fact such as vars_of_expr, strip or a side-condition
    check, computed once per node.  Entries are keyed by node identity,
    not by structure, whose equality walks the tree, and each holds its
    node, so no id is reused while the memo lives.  One memo serves one
    apply_rule or fuzz_weakmem call."""

    def __init__(self) -> None:
        self.memos: dict = defaultdict(dict)  # fact -> id -> (node, value)

    def __call__(self, fact, e):
        memo = self.memos[fact]
        hit = memo.get(id(e))
        if hit is None:
            hit = memo[id(e)] = (e, fact(e))
        return hit[1]


# ---------------------------------------------------------------------------
# Occurrence matching and substitution (modulo operator labels)


def strip(e: Expr) -> tuple:
    """e modulo operator labels, as a flat pre-order key."""
    return tuple(x.op if isinstance(x, BinOp) else "neg" if isinstance(x, Neg)
                 else ("var", x.name) if isinstance(x, Var)
                 else ("const", x.lo, x.hi) for x in sub_exprs(e))


def _matches(e: Expr, key, facts: _Facts) -> list[bool]:
    """Per node of e, in pre-order: whether it matches key.  A flat
    pre-order key spans exactly its own subtree, so a slice of e's key
    decides a match."""
    flat = facts(strip, e)
    return [flat[i:i + len(key)] == key for i in range(len(flat))]


def _replace(e: Expr, key, chosen: frozenset[int], replacement: Expr,
             counter: list[int], facts: _Facts) -> Expr:
    """e with the occurrences of key whose numbers are in `chosen` replaced.
    counter[0] numbers the occurrences in pre-order, across calls; they
    never nest, since key cannot match a strict sub-expression of itself."""
    hits = _matches(e, key, facts)
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
                counter: list[int], facts: _Facts) -> Stmt:
    if isinstance(s, Assign):
        return Assign(s.sid, s.var, _replace(s.expr, key, chosen,
                                             replacement, counter, facts))
    if isinstance(s, Guard):
        return Guard(s.sid, _replace(s.expr, key, chosen, replacement,
                                     counter, facts), s.cmp)
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
    fresh: frozenset[str]
    local: frozenset[str]


def context_for(p: Program, tid: int,
                path_vars: set[str] | frozenset[str] = frozenset(),
                occ: dict[str, set[int]] | None = None) -> TransformContext:
    """Thread tid's rule context: the declared variables that occur in no
    thread (fresh) and those that occur in tid alone (local), counting
    `path_vars`, the variables of tid's transformed path, as tid's.  A
    caller that asks many times passes var_threads(p) as `occ`."""
    occ = var_threads(p) if occ is None else occ
    me = {tid}
    return TransformContext(
        frozenset(v for v, ts in occ.items()
                  if not ts and v not in path_vars),
        frozenset(v for v, ts in occ.items()
                  if ts == me or not ts and v in path_vars))


def apply_rule(rule: RuleId, path: ControlPath,
               ctx: TransformContext) -> list[ControlPath]:
    """The paths made by each single application of `rule` anywhere in
    `path` whose side conditions verify, in position order.  Windows never
    contain synchronization primitives (the statement shapes only match
    assignments and guards)."""
    return [build() for build in _applications(rule, path, ctx, _Facts())]


def _splice(path: ControlPath, pos: int, span: int, make, *args,
            ) -> ControlPath:
    """path with its `span` statements from `pos` on replaced by
    make(*args)."""
    return path[:pos] + make(*args) + path[pos + span:]


def _stmts(*stmts: Stmt) -> tuple[Stmt, ...]:
    return stmts


def _rewrite(s: Stmt, key, chosen: frozenset[int], replacement: Expr,
             facts: _Facts) -> tuple[Stmt, ...]:
    """s with the chosen occurrences of key replaced by `replacement`."""
    return (_subst_stmt(s, key, chosen, replacement, [0], facts),)


def _eliminate(window: ControlPath, x: str, pos: int, epat: Expr,
               facts: _Facts) -> tuple[Stmt, ...]:
    """x <- epat, then the window with the first _OCCURRENCE_CAP
    occurrences of epat replaced by x."""
    key, repl, counter = facts(strip, epat), Var(x), [0]
    every = frozenset(range(_OCCURRENCE_CAP))
    return (Assign(f"cse:{x}:{pos}", x, epat),) + tuple(
        _subst_stmt(s, key, every, repl, counter, facts) for s in window)


def _applications(rule: RuleId, path: ControlPath, ctx: TransformContext,
                  facts: _Facts) -> list:
    """apply_rule's applications, in its order, as builders: calling one
    makes its path.  Each changes its path: even an ExprSimplify rewrite
    replaces an operator node by a strict subterm or a constant."""
    out: list = []

    def emit(pos: int, span: int, make, *args) -> None:
        out.append(partial(_splice, path, pos, span, make, *args))

    n = len(path)
    for i in range(n):
        a = path[i]
        b = path[i + 1] if i + 1 < n else None

        if rule is RuleId.RedundantStore and b is not None:
            if (isinstance(a, Assign) and isinstance(b, Assign)
                    and a.var == b.var
                    and a.var not in facts(vars_of_expr, b.expr)
                    and facts(check_nonblock, a.expr)):
                emit(i, 2, _stmts, b)

        elif rule is RuleId.IdentityStore:
            if (isinstance(a, Assign) and isinstance(a.expr, Var)
                    and a.expr.name == a.var):
                emit(i, 1, _stmts)

        elif rule is RuleId.ReorderAssigns and b is not None:
            if (isinstance(a, Assign) and isinstance(b, Assign)
                    and a.var != b.var
                    and a.var not in facts(vars_of_expr, b.expr)
                    and b.var not in facts(vars_of_expr, a.expr)
                    and facts(check_nonblock, a.expr)):
                emit(i, 2, _stmts, b, a)

        elif rule is RuleId.ReorderGuards and b is not None:
            if (isinstance(a, Guard) and isinstance(b, Guard)
                    and facts(check_noerror, b.expr)):
                emit(i, 2, _stmts, b, a)

        elif rule is RuleId.GuardBeforeAssign and b is not None:
            if (isinstance(a, Assign) and isinstance(b, Guard)
                    and a.var not in facts(vars_of_expr, b.expr)
                    and (facts(check_nonblock, a.expr)
                         or facts(check_noerror, b.expr))):
                emit(i, 2, _stmts, b, a)

        elif rule is RuleId.AssignBeforeGuard and b is not None:
            if (isinstance(a, Guard) and isinstance(b, Assign)
                    and b.var not in facts(vars_of_expr, a.expr)
                    and b.var in ctx.local
                    and facts(check_noerror, b.expr)):
                emit(i, 2, _stmts, b, a)

        elif rule is RuleId.AssignPropagation and b is not None:
            if (isinstance(a, Assign) and isinstance(b, (Assign, Guard))
                    and a.var not in facts(vars_of_expr, a.expr)
                    and facts(vars_of_expr, a.expr) <= ctx.local
                    and facts(check_deterministic, a.expr)):
                key = strip(Var(a.var))
                cnt = sum(_matches(b.expr, key, facts))
                for chosen in _occurrence_subsets(cnt):
                    emit(i + 1, 1, _rewrite, b, key, chosen, a.expr, facts)

        elif rule is RuleId.SubexprElim and ctx.fresh:
            fresh = min(ctx.fresh)  # one fresh variable is as good as another
            lvals: frozenset[str] = frozenset()
            cands: list[Expr] = []  # the window's operators, one per key
            seen_keys = set()
            for span, s in enumerate(path[i:i + 3], 1):
                if not isinstance(s, (Assign, Guard)):
                    break  # a sync primitive would enter the window
                lvals |= lvals_of_stmt(s)
                for x in facts(sub_exprs, s.expr):
                    if isinstance(x, (Neg, BinOp)):
                        k = facts(strip, x)
                        if k not in seen_keys:
                            seen_keys.add(k)
                            cands.append(x)
                for epat in cands:
                    if (not facts(vars_of_expr, epat) & lvals
                            and facts(check_noerror, epat)):
                        emit(i, span, _eliminate, path[i:i + span], fresh,
                             i, epat, facts)

        elif rule is RuleId.ExprSimplify:
            if isinstance(a, (Assign, Guard)):
                for e_old, e_new in facts(_simplifications, a.expr):
                    if not (facts(vars_of_expr, e_old)
                            | facts(vars_of_expr, e_new)) <= ctx.local:
                        continue
                    key = facts(strip, e_old)
                    cnt = sum(_matches(a.expr, key, facts))
                    for chosen in _occurrence_subsets(cnt):
                        emit(i, 1, _rewrite, a, key, chosen, e_new, facts)

    return out


def _simplifications(e: Expr) -> list[tuple[Expr, Expr]]:
    """Catalog of value-containment-safe rewrites found inside e, one per
    distinct sub-expression; the rule applies those whose variables are
    all local."""
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
        if cand is not None:
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


def _pretty_path(path: ControlPath) -> list[str]:
    from .syntax import pretty_stmt

    return [pretty_stmt(s).strip() for s in path]


def fuzz_weakmem(p: Program, trials: int = 50, chain: int = 4, seed: int = 0,
                 unroll: int = UNROLL,
                 budget: OracleBudget = OracleBudget(),
                 settings: AnalysisSettings = AnalysisSettings(),
                 alarms: frozenset[Location] | None = None,
                 ) -> FuzzReport:
    """Transform per-thread paths under verified side conditions, run the
    interleaving oracle on the transformed paths, and require its errors to
    be covered by the untransformed program's interference analysis: its
    alarms, computed here unless the caller passes them.

    Each thread's paths come from concrete.paths, capped by the state
    budget, so the budget bounds the path pool as well as each check; a
    refusal names the thread.  Every trial is drawn before any is
    checked.  Checking never touches the random generator, so the report
    does not depend on where, or by which runs, the checks are made (see
    _check_trials).  The draw computes each
    expression node's variables, key and side conditions once per call,
    and the program's variable occurrences once, and of the applications
    a chain step finds it builds only the one it picks (see
    _applications); its memo is emptied before the checks."""
    from .concrete import TooManyPaths, paths, sorted_paths

    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if chain < 1:
        raise ValueError(f"chain must be >= 1, got {chain}")
    base = {}
    for t in p.threads:
        try:
            base[t.tid] = paths(t.body, unroll, budget.max_states).paths
        except TooManyPaths:
            raise TooManyPaths(
                f"thread {t.tid} spawns more than {budget.max_states}"
                f" control paths at unroll {unroll}, over the state budget"
                f" of {budget.max_states}") from None
    rng = random.Random(seed)
    if alarms is None:
        alarms = frozenset(analyze_program_I(p, settings).omega)
    pools = {tid: sorted_paths(ps) for tid, ps in base.items()}

    per_rule = {r.value: {"applied": 0, "skipped": 0, "violations": 0}
                for r in RuleId}
    # per effective trial: thread, original path, transformed path, rules
    drawn: list[tuple[int, ControlPath, ControlPath, list[str]]] = []
    draw_error: Exception | None = None
    facts = _Facts()
    occ = var_threads(p)

    try:
        for _ in range(trials):
            tid = rng.choice(p.tids)
            pool = pools[tid]
            path0 = pool[rng.randrange(len(pool))]
            path = path0
            used: list[str] = []
            for _ in range(rng.randint(1, chain)):
                ctx = context_for(p, tid, {
                    v for s in path for v in facts(vars_of_stmt, s)}, occ)
                order = list(RuleId)
                rng.shuffle(order)
                apps: list = []
                for rule in order:
                    apps = _applications(rule, path, ctx, facts)
                    if apps:
                        break
                    per_rule[rule.value]["skipped"] += 1
                if not apps:
                    break  # nothing applies anywhere on this path
                path = apps[rng.randrange(len(apps))]()
                per_rule[rule.value]["applied"] += 1
                used.append(rule.value)
            if used:
                drawn.append((tid, path0, path, used))
    except Exception as e:
        draw_error = e  # raised after the trials drawn before it are checked
    finally:
        facts.memos.clear()  # `apps` still holds builders that reference it

    outcomes = _check_trials(p, base, alarms, [d[:3] for d in drawn],
                             budget)
    if draw_error is not None:
        raise draw_error

    violations: list[FuzzViolation] = []
    inconclusive = 0
    for (tid, path0, path, used), (verdict, missing) in zip(drawn, outcomes):
        if verdict == "INCONCLUSIVE":
            inconclusive += 1
        elif verdict == "FAIL":
            for r in used:
                per_rule[r]["violations"] += 1
            violations.append(FuzzViolation(
                thread=tid,
                rules=used,
                missing=missing,
                path_before=_pretty_path(path0),
                path_after=_pretty_path(path),
            ))

    return FuzzReport(trials=trials, effective=len(drawn), seed=seed,
                      oracle="interleave", per_rule=per_rule,
                      violations=violations, inconclusive=inconclusive)


# ---------------------------------------------------------------------------
# Checking trials on every usable CPU

# The probe's budget: a first job that ends within it predicts jobs too
# small to repay a pool of children (on a 2-vCPU virtual machine
# with Python 3.11, a fork pool of two workers that check two trivial
# trials costs about 15 ms from start to shutdown in a 65 MB process,
# two bare forks 7 ms, and the interleaving oracle 2-10 us per state),
# and it is then that job's full run, so the probe repeats no work.  A
# run B that ends within it also predicts runs that cost more to start
# than to explore (over the criterion-8 block on the same machine, runs
# under 1,000 states take about 7 us a state, larger ones 2-3), so
# _check_trials then checks each rewritten thread's trials in one run.
FORK_MIN_STATES = 1_000

Outcome = tuple[str, list[int]]  # a trial's verdict, its uncovered labels


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or
    must not (a process with threads)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() != 1):
        return 1
    return len(os.sched_getaffinity(0))


def _outcome(res: ExploreResult, alarms: frozenset[Location]) -> Outcome:
    inc = inclusion(res, alarms)
    return inc.verdict, sorted(l.label for l in inc.missing)


def _picklable(e: Exception) -> Exception:
    """e, or a RuntimeError with its repr if e does not survive a pickle
    round trip."""
    try:
        pickle.loads(pickle.dumps(e))
    except Exception:
        return RuntimeError(repr(e))
    return e


# The check _check_in_children's workers run, set before they are forked
_worker_check = None


def _run_check(i: int):
    """_worker_check(i), in a forked worker; an error that would not
    reach this process intact comes as _picklable makes it."""
    try:
        return _worker_check(i)
    except Exception as e:
        raise _picklable(e)


def _check_in_children(check, n: int, workers: int) -> list:
    """check(i) for i in range(n), in order, run by a pool of `workers`
    forked processes that each take the next index as they finish one;
    this process only hands out the indices and collects the results.
    The workers inherit `check` by the fork, so it is never pickled."""
    global _worker_check
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # from Python 3.11 on, a fork pool forks every worker at the first
    # submit, before its own thread starts (hence requires-python)
    _worker_check = check
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        # not pool.map: on an error its iterator cancels the futures
        # itself, which races the pool's own handling of a dead worker
        # (Python 3.11.7's pool thread then dies and leaves the workers)
        futures = [pool.submit(_run_check, i) for i in range(n)]
        return [f.result() for f in futures]
    except BrokenProcessPool as e:
        raise RuntimeError(
            "a fuzz checker process exited without its result") from e
    finally:
        pool.shutdown(cancel_futures=True)
        _worker_check = None


def _check_trials(p: Program, base: dict[int, frozenset[ControlPath]],
                  alarms: frozenset[Location], trials: list,
                  budget: OracleBudget) -> list[Outcome]:
    """For every trial (tid, old, new), in order, the inclusion outcome
    against `alarms`, as (verdict, sorted uncovered labels), of its full
    check P': the interleaving oracle, without witnesses, on the base
    paths of every thread, but tid's old path replaced by new.

    A run is named by the thread paths it overrides, and one function
    explores a name: None is B, the untransformed program on the base
    paths of every thread; (tid, {new}) is a reduced run R, in which tid
    has only new; (tid, news) is a grouped run U, in which tid has the
    new paths of all its trials; and (tid, base[tid] - {old} | {new}) is
    P'.  The first round explores B first, unless every trial rewrote
    its thread's only base path.  If B ended within FORK_MIN_STATES
    states and the budget, it then explores one U per rewritten thread,
    which is R where the thread's trials make one new path; otherwise
    one R per distinct (tid, new), since there a U of several paths
    would tend to outgrow the budget and send its trials to P'.  An
    execution of P' is one of R if tid is on a prefix of new, else one
    of B, so errors(R) <= errors(P') <= errors(R) | errors(B) and
    states(P') <= states(R) + states(B).  A trial takes R's outcome if
    old was tid's only base path (R is P'), or if B passed (it ended
    within the budget with alarms alone as errors) and states(R) +
    states(B) <= max_states (a run cut off counts more than max_states
    states): P' would then end within the budget with the same uncovered
    errors.  R is a sub-run of its thread's U, so errors(R) <= errors(U)
    and states(R) <= states(U): a U of several paths that passed passes
    each R and speaks for every trial as R would, but a U that failed
    cannot tell which of its trials' R failed.  Any other trial, and any
    whose R, U or B raised, explores its P' in a second round, so the
    call raises the error of the first P', in trial order, that raised.

    Both rounds run where one choice says.  With one usable CPU, a
    budget of at most FORK_MIN_STATES states or fewer than two jobs,
    this process runs every job.  Otherwise it probes the first job
    under a budget of FORK_MIN_STATES: a probe that ends within it, or
    raises, is that job's full run (the same search, stopped only by an
    empty queue), and this process runs the rest.  A probe cut off means
    large jobs, which forked children, one per usable CPU, run, each
    pulling the next job as it finishes one.  A child's death raises a
    RuntimeError (it loses the result of every job not finished by then,
    in any child).  No child outlives the call: on any exception the
    jobs not yet handed to a child are cancelled, the few handed out are
    finished (after a death the pool terminates every child instead),
    and every child is joined."""
    if not trials:
        return []
    whole = [base[tid] == {old} for tid, old, _ in trials]  # R is P'
    reduced = [(tid, frozenset((new,))) for tid, _, new in trials]
    jobs = ([] if all(whole) else [None]) + list(dict.fromkeys(reduced))

    def explore(name, max_states: int = budget.max_states) -> ExploreResult:
        """The run `name` under max_states."""
        return run_interleavings(
            p, budget=budget._replace(max_states=max_states),
            thread_paths=base if name is None else {**base, name[0]: name[1]},
            collect_witnesses=False)

    def job(name, max_states: int = budget.max_states):
        """The run `name`'s (states, outcome) under max_states, or None if
        it raised."""
        try:
            res = explore(name, max_states)
        except Exception:
            return None
        return res.states, _outcome(res, alarms)

    cpus = _usable_cpus()
    probing = (cpus > 1 and budget.max_states > FORK_MIN_STATES
               and len(jobs) > 1)
    # the first job (B, unless no trial needs it) runs alone: its size
    # chooses where the rest run and, for B, which runs they are
    first = job(jobs[0], FORK_MIN_STATES if probing else budget.max_states)
    forked = probing and first is not None and first[0] > FORK_MIN_STATES
    ran = {} if forked else {jobs[0]: first}
    b, named = ran.get(None), reduced
    if b and b[0] <= min(FORK_MIN_STATES, budget.max_states):  # B is small
        news = defaultdict(set)
        for tid, _, new in trials:
            news[tid].add(new)
        named = [(tid, frozenset(news[tid])) for tid, _, _ in trials]

    def run(check, n: int) -> list:
        """check(k) for k in range(n), in order, where the probe chose."""
        if forked:
            return _check_in_children(check, n, min(cpus, n))
        return [check(k) for k in range(n)]

    todo = [name for name in dict.fromkeys(jobs[:1] + named)
            if name not in ran]
    ran.update(zip(todo, run(lambda k: job(todo[k]), len(todo))))
    b = ran.get(None)
    # the states a passing B leaves R; no R fits beside any other B
    room = budget.max_states - b[0] if b and b[1][0] == "PASS" else -1
    out: dict[int, Outcome] = {}
    for i, name in enumerate(named):
        r = ran[name]
        # a run of several new paths speaks for its trials only if it passed
        if (r is not None and (len(name[1]) == 1 or r[1][0] == "PASS")
                and (whole[i] or r[0] <= room)):
            out[i] = r[1]
    redo = [i for i in range(len(trials)) if i not in out]
    if redo:
        full = [(tid, base[tid] - {old} | {new})
                for tid, old, new in map(trials.__getitem__, redo)]
        out.update(zip(redo, run(lambda k: _outcome(explore(full[k]),
                                                    alarms), len(redo))))
    return [out[i] for i in range(len(trials))]


# ---------------------------------------------------------------------------
# Negative controls: break a side condition on purpose, expect detection


class NegativeControl(Record):
    name: str
    detected: bool
    missing: list[int]


# Per control: its name, a loop-free program, and a rewrite of thread 1's
# longest path that breaks the named rule's side condition
_CONTROLS = (
    # (a) reorder assignments without nonblock(e1): the blocking 1/[0,0]
    # masked the second division's error in the original program
    ("reorder-assigns without nonblock(e1)",
     "var a; var b; var c;\nthread 1 { a <- 1 / [0,0]; b <- 1 / c; }\n",
     lambda path: (path[1], path[0]) + path[2:]),
    # (b) redundant-store elimination without nonblock(e1): removing the
    # blocking store unmasks the later division by zero
    ("redundant-store without nonblock(e1)",
     "var x; var z; var y;\n"
     "thread 1 { x <- 1 / [0,0]; x <- 1; z <- 1 / y; }\n",
     lambda path: path[1:]),
    # (c) assign-before-guard with a non-local variable: hoisting the
    # store above its guard publishes a value other threads must not see
    ("assign-before-guard with shared X2",
     "var flag = [1,1]; var x; var w;\n"
     "thread 1 { if flag = 0 then { x <- 1; } }\n"
     "thread 2 { w <- 1 / (1 - x); }\n",
     lambda path: (path[1], path[0])),  # (guard, assign) -> (assign, guard)
    # (d) expression simplification without value containment: widening a
    # constant breaks the replaced-by-subset requirement
    ("expr-simplify without containment",
     "var b;\nthread 1 { b <- 1 / [1,1]; }\n",
     lambda path: (Assign(path[0].sid, path[0].var, BinOp(
         "/", path[0].expr.loc, Const(1, 1), Const(0, 1))),) + path[1:]),
)


def negative_controls() -> list[NegativeControl]:
    """Hand-built violations of Def-style side conditions, one per row of
    _CONTROLS, each checked as a one-trial _check_trials call, the plan
    fuzz_weakmem runs.  Each one must produce at least one oracle error
    not covered by the original program's interference analysis, proving
    the harness has teeth."""
    from .concrete import paths as mk_paths
    from .parser import parse_program

    out: list[NegativeControl] = []
    for name, src, rewrite in _CONTROLS:
        p = parse_program(src)
        alarms = frozenset(analyze_program_I(p).omega)
        # the control programs have no loops, so no unrolling
        base = {t.tid: mk_paths(t.body, 0).paths for t in p.threads}
        path = max(base[1], key=len)
        (verdict, missing), = _check_trials(
            p, base, alarms, [(1, path, rewrite(path))], OracleBudget())
        out.append(NegativeControl(name, verdict == "FAIL", missing))
    return out
