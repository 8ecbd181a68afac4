"""The abstract analyzer engine: one structural interpreter (recursive
iteration, widening at loop heads) and one outer interference fixpoint.  A
loop iterates from its input, and a loop reached again in a pass with the
same input returns its last result.  A pass keeps no reference to itself
once it returns, so reference counting frees its working set.  A read
(read_env) evaluates its expression's tape, compiled once per
outer_fixpoint call, in the partition's environment with each variable
carrying compatible interference joined with it; a guard refines only the
other variables.  apply_sched renders such a read as an expression; no
analysis runs it, but perfbench's probes time it and the tests compare
the engine's reads against it.

Environments and interferences are partitioned by scheduler configurations
(l = mutexes held by the thread, u = mutexes known free system-wide, and a
weak/sync tag).  Unprotected communications flow through weak
interferences filtered by a mutual-exclusion predicate; communications
protected by a mutex are exported at unlock (out) and imported at lock
(in) as sync-tagged interferences.  islocked() splits partitions on the u
component, which is what recovers priority-based mutual exclusion on
mono-processor real-time systems ("scheduled-mono"); "scheduled-multi"
degrades it to the sound multiprocessor reading X <- [0,1].

The scheduler-blind modes erase synchronization (lock/unlock/yield are
skips, islocked() stores [0,1], every environment stays in configuration
C0).  "interference" lets threads in settings.self_interference read
their own interferences; "seq" records no interferences at all, so
outer_fixpoint stops after its first round.  interference.py and seq.py
return outer_fixpoint's SchedResult as it is.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple

from . import config
from .config import AnalysisSettings, LimitReached
from .domains import (
    BoxEnv,
    Interval,
    Tape,
    compile_tape,
    guard_in,
    run_tape,
)
from .syntax import (
    Assign,
    BinOp,
    Block,
    Const,
    Expr,
    Guard,
    If,
    IsLocked,
    Location,
    Lock,
    Neg,
    Program,
    Record,
    Sid,
    Stmt,
    Unlock,
    Var,
    While,
    Yield,
    body_guard,
    collect_lock_sets,
    else_guard,
    exit_guard,
    fold_expr,
    lvals_of_stmt,
    stmt_exprs,
    sub_stmts,
    then_guard,
    vars_of_expr,
)

WEAK = "weak"
ENGINE_MODES = ("scheduled-mono", "scheduled-multi", "interference", "seq")


class AnalysisDiverged(LimitReached):
    """A safety cap of the engine was hit: a loop lim or the outer
    interference fixpoint did not stabilize, or its final round was not
    idempotent."""


def sync(m: str) -> tuple[str, str]:
    return ("sync", m)


class SchedConfig(NamedTuple):
    """(held mutexes, known-free mutexes, weak/sync tag).  A tuple, so
    that the interference keys holding it hash without Python calls."""

    held: frozenset[str]
    free: frozenset[str]
    tag: object = WEAK

    def __str__(self) -> str:
        l = ",".join(sorted(self.held))
        u = ",".join(sorted(self.free))
        s = "weak" if self.tag == WEAK else f"sync({self.tag[1]})"
        return f"l={{{l}}} u={{{u}}} s={s}"


C0 = SchedConfig(frozenset(), frozenset(), WEAK)


def intf(c: SchedConfig, c2: SchedConfig) -> bool:
    """May two weak accesses under these configurations interleave?"""
    return (not (c.held & c2.held)
            and not (c.free & c2.held)
            and not (c2.free & c.held)
            and c.tag == WEAK and c2.tag == WEAK)


# sparse maps: absent key = bottom
PartitionedEnv = dict[SchedConfig, BoxEnv]
SchedKey = tuple[int, SchedConfig, str]  # (thread, config, variable)
InterferenceMap = dict[SchedKey, Interval]

ReadEvent = tuple[int, int, str, SchedConfig, SchedConfig]  # reader, writer
# per variable: the joined interference a read may see, and its writers
InterferenceView = tuple[dict[str, Interval],
                         dict[str, set[tuple[int, SchedConfig]]]]
ByConfig = dict[SchedConfig, list[tuple[int, str, Interval]]]

SYNC_SKIPPED = ("synchronization primitives are no-ops in this analysis;"
                " use the scheduled analyzer for mutex precision")
ZERO_ONE = Const(0, 1)  # what islocked() stores when degraded
ISLOCKED_DEGRADED = ("islocked() degrades to [0,1] in this analysis;"
                     " use the scheduled analyzer for mutex precision")


def put(m: dict, k, v) -> None:
    """Join v into the sparse map m at key k, in place."""
    m[k] = m[k].join(v) if k in m else v


def sparse_join(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k].join(v) if k in out else v
    return out


def sparse_widen(a: dict, b: dict, thresholds) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k].widen(v, thresholds) if k in out else v
    return out


class AbsStateC(NamedTuple):
    """A thread pass's state; a tuple, so that each step builds it cheaply."""

    envs: PartitionedEnv
    interf: InterferenceMap

    def join(self, other: "AbsStateC") -> "AbsStateC":
        return AbsStateC(sparse_join(self.envs, other.envs),
                         sparse_join(self.interf, other.interf))

    def widen(self, other: "AbsStateC", thresholds) -> "AbsStateC":
        return AbsStateC(sparse_widen(self.envs, other.envs, thresholds),
                         sparse_widen(self.interf, other.interf, thresholds))


def unpartitioned(envs: PartitionedEnv) -> BoxEnv:
    """The environment of a scheduler-blind state: its C0 partition."""
    return envs.get(C0, BoxEnv.bot())


def _by_config(interf: InterferenceMap, skip: int | None = None) -> ByConfig:
    """interf's entries that thread `skip` did not write, grouped by
    configuration as (writer, variable, value)."""
    groups: ByConfig = {}
    for (t2, c2, x), v in interf.items():
        if t2 != skip:
            groups.setdefault(c2, []).append((t2, x, v))
    return groups


def _view_of(c: SchedConfig, groups: ByConfig) -> InterferenceView:
    """What a read under c may see of the grouped entries: intf is asked
    once per configuration."""
    by_var: dict[str, Interval] = {}
    writers: dict[str, set[tuple[int, SchedConfig]]] = {}
    for c2, entries in groups.items():
        if intf(c, c2):
            for t2, x, v in entries:
                put(by_var, x, v)
                writers.setdefault(x, set()).add((t2, c2))
    return by_var, writers


def read_env(t: int, c: SchedConfig, env: BoxEnv, view: InterferenceView,
             names: Iterable[str],
             ) -> tuple[BoxEnv, frozenset[str], list[ReadEvent]]:
    """What a read of the distinct variables `names` by thread t under c
    sees: env, with each variable that carries interference joined with
    it; the set of those variables; and the writes the read saw, as read
    events."""
    by_var, writers = view
    hit = [x for x in names if x in by_var and by_var[x].lo is not None]
    if not hit:
        return env, frozenset(), []
    m = env._m
    if m is not None:
        m = dict(m)
        for x in hit:
            m[x] = m[x].join(by_var[x])
        env = BoxEnv(m)
    events = [(t, t2, x, c, c2) for x in hit for t2, c2 in writers[x]]
    return env, frozenset(hit), events


def apply_sched(t: int, c: SchedConfig, envs: PartitionedEnv,
                interf: InterferenceMap, e: Expr,
                read_log: set[ReadEvent] | None = None,
                self_threads: frozenset[int] = frozenset()) -> Expr:
    """read_env's read of e by thread t under c rendered as an expression:
    each variable carrying interference compatible with c (its own too if
    t is in self_threads) becomes a constant interval covering its
    environment and interference values (others stay, so guards still
    refine them); optionally log which writes each read saw."""
    env = envs[c]
    view = _view_of(c, _by_config(interf, None if t in self_threads else t))
    _, fixed, events = read_env(t, c, env, view, vars_of_expr(e))
    if read_log is not None:
        read_log.update(events)
    if not fixed:
        return e
    # read_env fixes only variables with non-bottom interference, so no
    # joined value is bottom
    consts = {x: Const(*view[0][x].join(env.get(x))) for x in fixed}

    def go(x: Expr, *subs: Expr) -> Expr:
        if isinstance(x, Var):
            return consts.get(x.name, x)
        if isinstance(x, Const):
            return x
        # an operator whose operands came back unchanged is kept as it is
        if isinstance(x, Neg):
            return x if subs[0] is x.sub else Neg(x.loc, *subs)
        if subs[0] is x.left and subs[1] is x.right:
            return x
        return BinOp(x.op, x.loc, *subs)

    return fold_expr(e, go)


def in_sharp(t: int, l: frozenset[str], u: frozenset[str], m: str,
             env: BoxEnv, interf: InterferenceMap) -> BoxEnv:
    """Entering a critical section on m: import well-synchronized values
    written by other threads, unless mutual exclusion rules them out.
    Each import joins one variable, so their order does not matter."""
    imports = [(x, v) for (t2, c2, x), v in interf.items()
               if (c2.tag == sync(m) and t2 != t
                   and not (l & c2.held) and not (l & c2.free)
                   and not (c2.held & u))]
    if not imports or env.is_bot:
        return env
    bounds = {x: env.get(x) for x in env.variables}
    for x, v in imports:
        bounds[x] = bounds[x].join(v)
    return BoxEnv(bounds)


def out_sharp(t: int, l: frozenset[str], u: frozenset[str], m: str,
              env: BoxEnv,
              interf: InterferenceMap) -> InterferenceMap:
    """Leaving a critical section on m: publish the current value of every
    variable this thread wrote while holding m (read off the recorded weak
    interferences, a documented over-approximation)."""
    if env.is_bot:
        return {}
    modified = {
        x for (t2, c2, x), v in interf.items()
        if t2 == t and c2.tag == WEAK and m in c2.held and not v.is_bot}
    key_conf = SchedConfig(l, u, sync(m))
    out: InterferenceMap = {}
    for x in modified:
        v = env.get(x)
        if not v.is_bot:
            out[(t, key_conf, x)] = v
    return out


class SchedRecorder:
    """Collects the invariant before each primitive (partitioned envs are
    never mutated, so they are kept as they are), branch feasibility, the
    errors (Ω), the reads that took interference, and diagnostics."""

    def __init__(self, read_log: set[ReadEvent] | None = None,
                 warnings: list[str] | None = None):
        self.invariants: dict[Sid, PartitionedEnv] = {}
        self.branches: dict[Sid, tuple[bool, bool]] = {}
        self.errors: frozenset[Location] = frozenset()
        self.read_log = read_log
        self.warnings = [] if warnings is None else warnings
        self.max_env_partitions = 0

    def warn(self, msg: str) -> None:
        if msg not in self.warnings:
            self.warnings.append(msg)


def _coarsen(envs: PartitionedEnv) -> PartitionedEnv:
    """Partition-explosion fallback: join partitions differing only in u,
    keeping the intersection of the u components (weaker knowledge)."""
    grouped: dict[frozenset[str], tuple[frozenset[str], BoxEnv]] = {}
    for c, env in envs.items():
        if c.held in grouped:
            u, env0 = grouped[c.held]
            grouped[c.held] = (u & c.free, env0.join(env))
        else:
            grouped[c.held] = (c.free, env)
    return {SchedConfig(l, u, WEAK): env
            for l, (u, env) in grouped.items()}


def transfer_C(s: Stmt, t: int, st: AbsStateC,
               settings: AnalysisSettings = AnalysisSettings(),
               lock_sets: dict[int, frozenset[str]] | None = None,
               mode: str = "scheduled-mono",
               recorder: SchedRecorder | None = None,
               tapes: dict[int, Tape] | None = None) -> AbsStateC:
    """Abstract transfer of thread t for any statement form in `mode`, one
    of ENGINE_MODES (see the module docstring).  st.interf is the round's
    map and is only read; the pass carries, and returns, t's own entries
    alone, the only ones it can change.  The error labels the pass meets
    are collected in recorder.errors.  `tapes` holds each expression's
    compiled tape by id, which the caller that owns it may share between
    passes; nothing else of a pass's working set outlives its return."""
    if mode not in ENGINE_MODES:
        raise ValueError(f"unknown engine mode {mode!r}")
    blind = mode in ("interference", "seq")
    publish = mode != "seq"
    rec = recorder if recorder is not None else SchedRecorder()
    locks = lock_sets if lock_sets is not None else {}
    own = mode == "interference" and t in settings.self_interference
    tapes = {} if tapes is None else tapes
    foreign = _by_config(st.interf, t)  # fixed during the pass
    views: dict[SchedConfig, InterferenceView] = {}
    # each loop's last (input, result), per node: hand-built sids repeat
    last_run: dict[While, tuple[AbsStateC, AbsStateC]] = {}
    # st.interf's sync entries per mutex, all that in_sharp reads of it
    syncs: dict[str, InterferenceMap] = {}
    for k, v in st.interf.items():
        if k[1].tag != WEAK:
            syncs.setdefault(k[1].tag[1], {})[k] = v

    def read(c: SchedConfig, x: AbsStateC, e: Expr,
             ) -> tuple[Tape, BoxEnv, frozenset[str]]:
        if own:  # t reads its own live entries too
            view = _view_of(c, _by_config({**st.interf, **x.interf}))
        elif c in views:
            view = views[c]
        else:
            view = views[c] = _view_of(c, foreign)
        tape = tapes.get(id(e))
        if tape is None:
            tape = tapes[id(e)] = compile_tape(e)
        env, fixed, events = read_env(t, c, x.envs[c], view, tape.names)
        if rec.read_log is not None:
            rec.read_log.update(events)
        return tape, env, fixed

    def seen(x: AbsStateC) -> AbsStateC:
        if len(x.envs) > config.PARTITION_CAP:
            rec.warn(f"partition cap {config.PARTITION_CAP} exceeded:"
                     " partitions differing only in known-free mutexes"
                     " were joined")
            x = AbsStateC(_coarsen(x.envs), x.interf)
        rec.max_env_partitions = max(rec.max_env_partitions, len(x.envs))
        return x

    def assign(sid: Sid, var: str, e: Expr, x: AbsStateC) -> AbsStateC:
        rec.invariants[sid] = x.envs
        envs: PartitionedEnv = {}
        interf = dict(x.interf) if publish else x.interf
        for c, env in x.envs.items():
            tape, widened, _ = read(c, x, e)
            vals, errs = run_tape(tape, widened)
            env = env.set(var, vals[-1])
            rec.errors |= errs
            if env.is_bot:
                continue
            envs[c] = env
            if publish:
                put(interf, (t, c, var), env.get(var))
        return seen(AbsStateC(envs, interf))

    def guard(g: Guard, x: AbsStateC) -> AbsStateC:
        rec.invariants[g.sid] = x.envs
        envs: PartitionedEnv = {}
        for c, env in x.envs.items():
            tape, widened, fixed = read(c, x, g.expr)
            env, rec.errors = guard_in(tape, g.cmp, env, widened, fixed,
                                       rec.errors)
            if not env.is_bot:
                envs[c] = env
        return seen(AbsStateC(envs, x.interf))

    def forget_free(sid: Sid, m: str | None, x: AbsStateC) -> AbsStateC:
        # yield, or lock(m): the known-free set u is lost, so every
        # mutex in it publishes first; lock then enters m's section
        rec.invariants[sid] = x.envs
        envs: PartitionedEnv = {}
        interf = dict(x.interf)
        none: frozenset[str] = frozenset()
        for c, env in x.envs.items():
            for m2 in c.free:
                interf = sparse_join(
                    interf, out_sharp(t, c.held, none, m2, env, x.interf))
            if m is None:
                put(envs, SchedConfig(c.held, none, WEAK), env)
            else:
                put(envs, SchedConfig(c.held | {m}, none, WEAK),
                    in_sharp(t, c.held, none, m, env, syncs.get(m, {})))
        return seen(AbsStateC(envs, interf))

    def unlock(sid: Sid, m: str, x: AbsStateC) -> AbsStateC:
        rec.invariants[sid] = x.envs
        envs: PartitionedEnv = {}
        interf = dict(x.interf)
        for c, env in x.envs.items():
            interf = sparse_join(
                interf, out_sharp(t, c.held - {m}, c.free, m, env, x.interf))
            put(envs, SchedConfig(c.held - {m}, c.free, WEAK), env)
        return seen(AbsStateC(envs, interf))

    def islocked(sid: Sid, var: str, m: str, x: AbsStateC) -> AbsStateC:
        # the degraded route fixes the recorded interferences ({0,1}) and
        # the fallback environments
        degraded = assign(sid, var, ZERO_ONE, x)
        precise = mode == "scheduled-mono" and not any(
            m in locks.get(t2, frozenset()) for t2 in locks if t2 > t)
        if not precise:
            return degraded
        envs: PartitionedEnv = {}
        for c, env in x.envs.items():
            env0 = in_sharp(t, c.held, c.free, m, env,
                            syncs.get(m, {})).set(var, Interval(0, 0))
            if not env0.is_bot:
                put(envs, SchedConfig(c.held, c.free | {m}, WEAK), env0)
            env1 = env.set(var, Interval(1, 1))
            if not env1.is_bot:
                put(envs, SchedConfig(c.held, c.free - {m}, WEAK), env1)
        return seen(AbsStateC(envs, degraded.interf))

    def go(s: Stmt, x: AbsStateC) -> AbsStateC:
        if isinstance(s, Assign):
            return assign(s.sid, s.var, s.expr, x)
        if isinstance(s, Guard):
            return guard(s, x)
        if isinstance(s, Block):
            for sub in s.body:
                x = go(sub, x)
            return x
        if isinstance(s, If):
            entered = guard(then_guard(s), x)
            taken = go(s.body, entered)
            skipped = guard(else_guard(s), x)
            rec.branches[s.sid] = (bool(entered.envs), bool(skipped.envs))
            return taken.join(skipped)
        if isinstance(s, While):
            if s in last_run and last_run[s][0] == x:
                return last_run[s][1]  # the recorder already holds its run
            g = body_guard(s)
            acc = x  # the first iterate from bottom is the input itself
            for _ in range(config.LOOP_ITER_CAP):
                entered = guard(g, acc)
                nxt = acc.widen(go(s.body, entered), settings.thresholds)
                if nxt == acc:
                    break
                acc = nxt
            else:
                raise AnalysisDiverged(
                    f"loop {s.sid} did not stabilize within"
                    f" {config.LOOP_ITER_CAP} iterations")
            if settings.decreasing_pass:
                acc = x.join(go(s.body, entered))
                entered = guard(g, acc)
            exited = guard(exit_guard(s), acc)
            rec.branches[s.sid] = (bool(entered.envs), bool(exited.envs))
            last_run[s] = (x, exited)
            return exited
        if blind and isinstance(s, (Lock, Unlock, Yield)):
            rec.warn(SYNC_SKIPPED)
            return x
        if isinstance(s, Lock):
            return forget_free(s.sid, s.mutex, x)
        if isinstance(s, Unlock):
            return unlock(s.sid, s.mutex, x)
        if isinstance(s, Yield):
            return forget_free(s.sid, None, x)
        if isinstance(s, IsLocked):
            if blind:
                rec.warn(ISLOCKED_DEGRADED)
            return islocked(s.sid, s.var, s.mutex, x)
        raise TypeError(s)

    try:
        return go(s, AbsStateC(st.envs, {k: v for k, v in st.interf.items()
                                         if k[0] == t}))
    finally:
        # go reaches itself through its cell: unbound, the pass's working
        # set is freed on return by reference counting, not left in a cycle
        go = None


class Race(Record):
    kind: str  # "ww" | "rw"
    threads: tuple[int, int]  # rw: (reader, writer); ww: (min, max)
    var: str
    configs: tuple[tuple[str, str], ...]


def extract_races(p: Program, interf: InterferenceMap,
                  read_log: set[ReadEvent]) -> tuple[list[Race], list[Race]]:
    """Write/write races straight from the interference map; read/write
    races from the reads that took interference."""
    show = cache(str)  # each configuration is formatted once per call
    writes: dict[str, list[tuple[int, SchedConfig]]] = {}
    for (t, c, x), v in interf.items():
        if c.tag == WEAK and not v.is_bot:
            writes.setdefault(x, []).append((t, c))
    ww: dict[tuple[int, int, str], set[tuple[str, str]]] = {}
    for x, ws in writes.items():
        for t1, c1 in ws:
            for t2, c2 in ws:
                if t1 < t2 and intf(c1, c2):
                    ww.setdefault((t1, t2, x), set()).add((show(c1), show(c2)))
    rw: dict[tuple[int, int, str], set[tuple[str, str]]] = {}
    for (reader, writer, x, c, c2) in read_log:
        rw.setdefault((reader, writer, x), set()).add((show(c), show(c2)))
    mk = lambda kind, d: [
        Race(kind, (a, b), x, tuple(sorted(cfgs)))
        for (a, b, x), cfgs in sorted(d.items())]
    return mk("ww", ww), mk("rw", rw)


def taint_closure(reads: dict[int, frozenset[str]],
                  writes: dict[int, frozenset[str]],
                  seed_vars: set[str]) -> frozenset[str]:
    """Variables whose interference may still move once `seed_vars` do:
    any thread reading a tainted variable taints everything it writes
    (`reads` and `writes` map each thread to its variables).  Used by the
    outer widening to cut cross-thread instability cascades."""
    tainted = set(seed_vars)
    while True:
        grow = set()
        for tid, rs in reads.items():
            if rs & tainted:
                grow |= writes[tid] - tainted
        if not grow:
            return frozenset(tainted)
        tainted |= grow


class SchedThreadOutcome(Record):
    final: PartitionedEnv
    invariants: dict[Sid, PartitionedEnv]
    branches: dict[Sid, tuple[bool, bool]]


class SchedResult(Record):
    omega: frozenset[Location]
    interf: InterferenceMap
    races_ww: list[Race]
    races_rw: list[Race]
    iterations: int
    per_thread: dict[int, SchedThreadOutcome]
    max_env_partitions: int
    interference_entries: int
    warnings: list[str]


def outer_fixpoint(p: Program,
                   settings: AnalysisSettings = AnalysisSettings(),
                   mode: str = "scheduled-mono") -> SchedResult:
    """Re-analyze every thread in `mode` (see ENGINE_MODES) against the
    round's interferences until they and the errors stabilize.  A round
    records invariants, reads, errors and partition statistics; the last,
    run on the stable pair, is kept and is the idempotence check."""
    blind = mode in ("interference", "seq")
    locks = collect_lock_sets(p)
    r0: PartitionedEnv = {C0: BoxEnv.initial(p)}
    omega: frozenset[Location] = frozenset()
    interf: InterferenceMap = {}
    tapes: dict[int, Tape] = {}  # compiled once for all rounds
    rounds = 0
    while True:
        rounds += 1
        if rounds > config.OUTER_ROUND_CAP:
            raise AnalysisDiverged(
                f"interference fixpoint did not stabilize within"
                f" {config.OUTER_ROUND_CAP} rounds")
        new_omega = omega
        joined: InterferenceMap = {}
        per_thread: dict[int, SchedThreadOutcome] = {}
        read_log: set[ReadEvent] | None = None if blind else set()
        warnings: list[str] = []
        max_parts = 0
        for t in p.threads:
            rec = SchedRecorder(read_log=read_log, warnings=warnings)
            out = transfer_C(t.body, t.tid, AbsStateC(r0, interf),
                             settings, locks, mode, rec, tapes)
            per_thread[t.tid] = SchedThreadOutcome(out.envs, rec.invariants,
                                                   rec.branches)
            max_parts = max(max_parts, rec.max_env_partitions)
            new_omega = new_omega | rec.errors
            joined.update(out.interf)  # a pass returns only its own keys
        if rounds <= settings.widening_delay:
            new_interf = sparse_join(interf, joined)
        else:
            # the outer widening jumps straight to +/-inf: the loop lims
            # inside each round already climb the threshold ladder, and a
            # ladder-free outer widening keeps the round count small and flat
            new_interf = sparse_widen(interf, joined, ())
        if rounds == settings.widening_delay + 2 and new_interf != interf:
            # still unstable after two widening rounds: a cross-thread
            # cascade is propagating hop by hop.  Publish a top
            # interference at the always-compatible empty configuration
            # (weak, and per-mutex sync unless blind) for everything the
            # cascade can still reach, absorbing any later growth.
            seeds = {k[2] for k in new_interf
                     if interf.get(k) != new_interf[k]}
            keys = [C0] + [SchedConfig(frozenset(), frozenset(), sync(m))
                           for m in p.mutexes if not blind]
            reads = {t.tid: frozenset().union(
                *map(vars_of_expr, stmt_exprs(t.body))) for t in p.threads}
            writes = {t.tid: frozenset().union(
                *map(lvals_of_stmt, sub_stmts(t.body))) for t in p.threads}
            for y in taint_closure(reads, writes, seeds):
                for tid, ws in writes.items():
                    if y in ws:
                        for c in keys:
                            new_interf[(tid, c, y)] = Interval.top()
        stable = new_omega == omega and new_interf == interf
        omega, interf = new_omega, new_interf
        if stable or mode == "seq":  # seq's second round repeats its first
            break

    if sparse_join(interf, joined) != interf:
        raise AnalysisDiverged("the last interference round was not"
                               " idempotent")
    ww, rw = ([], []) if blind else extract_races(p, interf, read_log)
    return SchedResult(
        omega=omega,
        interf=interf,
        races_ww=ww,
        races_rw=rw,
        iterations=rounds,
        per_thread=per_thread,
        max_env_partitions=max_parts,
        interference_entries=len(interf),
        warnings=warnings,
    )


def analyze_program_C(p: Program,
                      settings: AnalysisSettings = AnalysisSettings(),
                      mono: bool = True) -> SchedResult:
    """The scheduler-aware analysis: outer_fixpoint in a scheduled mode."""
    return outer_fixpoint(p, settings,
                          "scheduled-mono" if mono else "scheduled-multi")
