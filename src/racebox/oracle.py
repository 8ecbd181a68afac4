"""Exhaustive concrete oracles for parallel executions.

Two engines over integer-point environments:

- run_interleavings: free interleaving of per-thread control paths.  Mutex
  primitives keep their blocking/ownership meaning but no priority or
  wake-up discipline applies, so the explored behaviors cover any number
  of processors; on sync-free programs this is exactly the sequentially
  consistent interleaving semantics.
- run_scheduled: mono-processor real-time scheduling; only the
  highest-priority ready thread steps, lock() parks the thread until the
  scheduler grants the mutex (highest-priority waiter first), yield blocks
  for a non-deterministic time.

Both share one BFS, `_explore`, over a trie of each thread's control
paths, grown by concrete.control_step (or from thread_paths) as the
search reaches it, so the state budget bounds the tries too.  Its
`_Policy` lists the moves of a control point: (trie node, status, held
mutexes) per thread.  A state is one int.  Its low 32 bits hold the
control point's id in a per-exploration table.  Variable k has a value
field of _FIELD (32) bits at bit 32 + _FIELD * k, which holds the index
of its value in a per-exploration value table of that variable, in
first-seen order; a variable with more values than its field can number
raises ValueTableFull.  Environments are decoded only for terminal_envs.

States pop in exactly the order of a plain BFS over (control point,
environment) tuples: start states in sorted environment order, then the
unseen successors of each popped state by thread, trie edge, successor
environment in value order and scheduler outcome.  A scheduled thread
whose path is complete may retire to DONE; that successor joins the
tail of the queue too.  The state budget is checked at pop time, so
states, truncation point, shortest witnesses and terminal_envs are those
of that plain BFS, except that at most max_states + 1 start states are
made: one past the budget already truncates the run.

A state's level is the summed trie depth of its threads plus the number
of DONE threads.  A move advances one thread by one trie edge, and a
retire makes one more thread DONE, which no step undoes; so each step
goes one level down, all paths to a state have the same length, and a
state found again is in the level being built.  The explorer therefore
keeps, to drop repeats, only the set of that level, started afresh when
the first state of the level before it pops, and counts the states of
the older levels in an int.  Without witnesses a state is then held
only while it is queued or in the set of the level being built.  With
witnesses, one dict maps each state found to the state that found it;
a witness step is rebuilt by re-running the parent's moves in order up
to the first that reaches the child, and a retire adds no step.
A scheduled run's sched_states are the (status, held) pairs of the
control points expanded and of the states still queued; an interleaving
run has None.

Cached for one exploration: each control point's moves, from its first
pop, and one memo per statement, keyed by the fields of the variables it
reads (state & read mask).  An Assign's memo holds the written
variable's field codes in value order, a Guard's (0,) when it holds and
() when not, and islocked's one prefilled code; the successor
environments are (env & keep) | code.  An Assign/Guard is compiled when
the first control point that can take it is expanded, and its errors
are recorded on a memo miss: they depend only on the values it reads, so
the first pop to meet them is the miss.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .concrete import compile_prim, control_step, sorted_paths, start_envs
from .config import UNROLL, LimitReached, OracleBudget
from .syntax import (
    Assign,
    ControlPath,
    Guard,
    IsLocked,
    Location,
    Lock,
    Program,
    Record,
    Stmt,
    Unlock,
    While,
    Yield,
    pretty_stmt,
    sub_stmts,
)

READY = "ready"
YIELDING = "yield"
DONE = "done"  # path exhausted: a finished thread no longer occupies the
# processor, so lower-priority threads can run (thread exit is outside the
# formal scheduler model, whose examples end in yield)


# ---------------------------------------------------------------------------
# Per-thread path tries


class _Trie:
    """A thread's trie, grown as the search reaches it.  Node i stands for
    conts[i]; made[i] is its (ends, [(stmt, next node)]), None until
    grow(i) steps it.  Each edge makes a new node: a path prefix."""

    def __init__(self, step, root):
        self.step, self.conts, self.made = step, [root], [None]

    def grow(self, i: int) -> tuple[bool, list[tuple[Stmt, int]]]:
        ends, steps = self.step(self.conts[i])
        self.conts[i] = None  # grown: only its children are stepped
        made, edges = self.made, []
        for s, k in steps:  # a loop: comprehensions cost a frame each
            edges.append((s, len(made)))
            made.append(None)
            self.conts.append(k)
        made[i] = ends, edges
        return made[i]


def _suffix_step(k):
    """control_step for an explicit path set.  A continuation is (one
    prefix's paths in canonical order, so the prefix first, its length);
    they go on grouped by next statement, in order of first appearance."""
    group, d = k
    ends, edges = bool(group) and len(group[0]) == d, []
    for path in group[ends:]:
        s = path[d]
        for s2, (more, _) in edges:
            if s2 is s or s2 == s:
                more.append(path)
                break
        else:
            edges.append((s, ([path], d + 1)))
    return ends, edges


# ---------------------------------------------------------------------------
# Results


class ExploreResult(Record):
    errors: frozenset[Location]
    truncated: bool
    terminal_envs: frozenset[tuple]
    vars: tuple[str, ...]
    states: int
    paths_truncated: bool  # a longer unrolling: a stepped thread loops
    witnesses: dict[Location, list[dict]]
    sched_states: frozenset | None  # (status, held) pairs; None unscheduled

    def terminal_values(self, var: str) -> frozenset:
        i = self.vars.index(var)
        return frozenset(env[i] for env in self.terminal_envs)


# ---------------------------------------------------------------------------
# The explorer

_PRIM = "prim"


class _Policy:
    """Moves of one control point (nodes, status, held), per thread.

    Free interleavings: every thread may step, lock(m) takes m at once
    unless another thread holds it.  Scheduled: only the highest-priority
    ready thread steps, lock(m) parks it in wait(m), yield parks it as
    yielding, and each move ends in `sched`."""

    def __init__(self, tids: tuple[int, ...], tries: list[_Trie],
                 scheduled: bool):
        self.tids = tids
        self.tries = tries
        self.scheduled = scheduled

    def sched(self, status: tuple, held: tuple) -> list[tuple[tuple, tuple]]:
        """Grant free mutexes to their highest-priority waiters, then wake
        any subset of the yielding threads."""
        tids = self.tids
        status2 = list(status)
        held2 = list(held)
        for i, t in enumerate(tids):
            st = status[i]
            if isinstance(st, tuple):  # ("wait", m)
                m = st[1]
                higher_waiter = any(st2 == st and t2 > t
                                    for st2, t2 in zip(status, tids))
                if m in held[i] or not (higher_waiter
                                        or any(m in h for h in held)):
                    status2[i] = READY
                    held2[i] = held[i] | {m}
        wakes: list[tuple[int, ...]] = [()]  # subsets, in binary order
        for i in range(len(tids)):
            if status2[i] == YIELDING:
                wakes += [w + (i,) for w in wakes]
        out = []
        for wake in wakes:
            st3 = list(status2)
            for i in wake:
                st3[i] = READY
            out.append((tuple(st3), tuple(held2)))
        return out

    def expand(self, ctl: tuple, ctl_id, transition):
        """(terminal, retire, moves): terminal when every thread may stop
        here; retire holds the ids of control points reached without a
        step; a move is (tid, stmt, transition(stmt, env_op), target
        ids), env_op being _PRIM, (var, value) for islocked, or None."""
        nodes, status, held = ctl
        sched = self.scheduled
        # enabled: scheduled, the highest-priority ready thread; else all
        top = max((t for t, st in zip(self.tids, status) if st == READY),
                  default=None) if sched else None
        terminal = True
        retire, moves = [], []
        for i, t in enumerate(self.tids):
            trie, node = self.tries[i], nodes[i]
            ends, edges = trie.made[node] or trie.grow(node)
            if not ends:
                terminal = False
            elif sched and status[i] == READY:
                # a ready thread whose path is complete may retire,
                # letting lower-priority threads run
                retire.append(ctl_id(
                    (nodes, status[:i] + (DONE,) + status[i + 1:], held)))
            if sched and t != top:
                continue
            for stmt, nxt in edges:
                op, st2, hd2 = None, status, held
                if isinstance(stmt, (Assign, Guard)):
                    op = _PRIM
                elif isinstance(stmt, Lock):
                    m = stmt.mutex
                    if sched:
                        st2 = status[:i] + (("wait", m),) + status[i + 1:]
                    elif any(m in h for j, h in enumerate(held) if j != i):
                        continue
                    else:
                        hd2 = held[:i] + (held[i] | {m},) + held[i + 1:]
                elif isinstance(stmt, Unlock):
                    hd2 = held[:i] + (held[i] - {stmt.mutex},) + held[i + 1:]
                elif isinstance(stmt, Yield):
                    if sched:
                        st2 = status[:i] + (YIELDING,) + status[i + 1:]
                elif isinstance(stmt, IsLocked):
                    op = (stmt.var,
                          1 if any(stmt.mutex in h for h in held) else 0)
                else:  # pragma: no cover
                    raise TypeError(stmt)
                new_nodes = nodes[:i] + (nxt,) + nodes[i + 1:]
                moves.append((t, stmt, transition(stmt, op), tuple([
                    ctl_id((new_nodes,) + o) for o in self.sched(st2, hd2)])
                    if sched else (ctl_id((new_nodes, st2, hd2)),)))
        return terminal, retire, moves

    def step(self, t: int, stmt: Stmt, pre: tuple, post: tuple) -> dict:
        """One witness step, from control point pre to post."""
        out: dict = {"thread": t, "stmt-pretty": pretty_stmt(stmt).strip()}
        if not self.scheduled:
            return out
        for key, (_, status, held) in (("pre-scheduler", pre),
                                       ("post-scheduler", post)):
            out[key] = {
                "status": {t2: st if isinstance(st, str) else f"wait({st[1]})"
                           for t2, st in zip(self.tids, status)},
                "held": {t2: sorted(h) for t2, h in zip(self.tids, held)}}
        return out


_SHIFT = 32  # a state's low _SHIFT bits hold its ctl_id
_MASK = (1 << _SHIFT) - 1
_FIELD = 32  # bits of one variable's value field, read per exploration


class ValueTableFull(LimitReached):
    """A variable took more values in one exploration than its value
    field can number."""


def _explore(p: Program, unroll: int, budget: OracleBudget,
             thread_paths: Optional[dict[int, frozenset[ControlPath]]],
             collect_witnesses: bool, scheduled: bool) -> ExploreResult:
    """BFS over int-coded states; see the module docstring."""
    step, own = control_step(unroll), thread_paths or {}
    policy = _Policy(p.tids, [
        _Trie(_suffix_step, (sorted_paths(frozenset(own[t.tid])), 0))
        if t.tid in own else _Trie(step, (t.body, 0, None))
        for t in p.threads], scheduled)
    paths_trunc = any(isinstance(s, While) for t in p.threads
                      if t.tid not in own for s in sub_stmts(t.body))
    idx = {v: i for i, v in enumerate(p.variables)}

    full = 1 << _FIELD
    fmask = full - 1
    shifts = range(_SHIFT, _SHIFT + _FIELD * len(p.variables), _FIELD)
    values: list[list] = [[] for _ in shifts]  # k -> values, first seen first
    codes: list[dict] = [{} for _ in shifts]  # k -> value -> field code

    def code(k: int, v) -> int:
        """v's index in variable k's value table, shifted into k's field."""
        c = codes[k].get(v)
        if c is None:
            if len(values[k]) == full:
                raise ValueTableFull(f"variable {p.variables[k]} took more"
                                     f" than {full} values")
            c = codes[k][v] = len(values[k]) << shifts[k]
            values[k].append(v)
        return c

    ctl_list: list = []
    ctl_codes: dict = {}

    def ctl_id(ctl: tuple) -> int:
        i = ctl_codes.get(ctl)
        if i is None:
            i = ctl_codes[ctl] = len(ctl_list)
            ctl_list.append(ctl)
        return i

    infos: dict[int, tuple] = {}  # ctl_id -> expanded moves, once popped
    # env_op -> (memo, read mask, keep mask, compiled Assign/Guard or None);
    # keep, the fields a write leaves, is positive (& is slower on negative
    # ints) and 0 when nothing is written
    every = (1 << shifts.stop) - 1
    transitions: dict = {None: ({0: (0,)}, 0, 0, None)}

    def transition(stmt: Stmt, op) -> tuple:
        key = id(stmt) if op is _PRIM else op
        if key not in transitions:
            if op is _PRIM:
                prim = reads, w, _ = compile_prim(stmt, idx)
                transitions[key] = (
                    {}, sum([fmask << shifts[k] for k in reads]),
                    0 if w is None else every ^ fmask << shifts[w], prim)
            else:  # islocked: one outcome, whatever the env
                k = idx[op[0]]
                transitions[key] = ({0: (code(k, op[1]),)}, 0,
                                    every ^ fmask << shifts[k], None)
        return transitions[key]

    n = len(p.tids)
    c0 = ctl_id(((0,) * n, (READY,) * n, (frozenset(),) * n))
    start = [sum(map(code, idx.values(), env)) | c0
             for env in start_envs(p, budget.max_states + 1)]
    queue = deque(start)
    # state -> the state that first found it (None for a start state)
    parents: dict | None = dict.fromkeys(start) if collect_witnesses else None
    errors: dict[Location, list[dict]] = {}
    terminal: set[int] = set()

    def trace(state: int) -> list[dict]:
        """The witness steps to state.  Each parent's moves are re-run in
        order up to the first that reaches its child, which is the move
        that found it; a retire keeps the trie nodes and adds no step."""
        steps = []
        prev = parents[state]
        while prev is not None:
            c, c2 = prev & _MASK, state & _MASK
            pre, post = ctl_list[c], ctl_list[c2]
            if pre[0] != post[0]:
                e, e2 = prev - c, state - c2
                for t, stmt, (memo, rmask, keep, _), targets in infos[c][2]:
                    base = e & keep if keep else e
                    if c2 in targets and any(base | f == e2
                                             for f in memo[e & rmask]):
                        steps.append(policy.step(t, stmt, pre, post))
                        break
            state, prev = prev, parents[prev]
        steps.reverse()
        return steps

    popleft, push = queue.popleft, queue.append
    max_states = budget.max_states
    found = 0  # states in the levels before the one being built
    seen = set(start)  # the level being built
    while queue and found + len(seen) <= max_states:
        # the queue holds one level, whose successors make the next
        found += len(seen)
        room = max_states - found
        seen = set()
        add = seen.add
        for _ in range(len(queue)):
            if len(seen) > room:
                break
            state = popleft()
            c = state & _MASK
            info = infos.get(c)
            if info is None:
                info = infos[c] = policy.expand(ctl_list[c], ctl_id,
                                                transition)
            is_terminal, retire, moves = info
            e = state - c
            if is_terminal:
                terminal.add(e)
            for c2 in retire:
                s2 = e | c2
                if s2 not in seen:
                    add(s2)
                    if parents is not None:
                        parents[s2] = state
                    push(s2)
            for t, stmt, (memo, rmask, keep, prim), targets in moves:
                key = e & rmask
                fields = memo.get(key)
                if fields is None:
                    # the first pop that meets (stmt, read values) is the first
                    # to meet its errors, so hits need no error check
                    reads, w, outcome = prim
                    out, errs = outcome(tuple([
                        values[k][e >> shifts[k] & fmask] for k in reads]))
                    fields = memo[key] = (
                        ((0,) if out else ()) if w is None
                        else tuple([code(w, v) for v in out]))
                    for loc in errs:
                        if loc not in errors:
                            ctl = ctl_list[c]
                            errors[loc] = (trace(state)
                                           + [policy.step(t, stmt, ctl, ctl)]
                                           if parents is not None else [])
                base = e & keep if keep else e
                for f in fields:
                    e2 = base | f if f else base
                    for c2 in targets:
                        s2 = e2 | c2
                        if s2 not in seen:
                            add(s2)
                            if parents is not None:
                                parents[s2] = state
                            push(s2)

    # positional: a Record built by keyword costs three times as much
    return ExploreResult(
        frozenset(errors), bool(queue),  # truncated: stopped by the budget
        frozenset(tuple([vs[e >> k & fmask] for vs, k in zip(values, shifts)])
                  for e in terminal),
        p.variables, found + len(seen), paths_trunc, errors,
        # the control points expanded and those of the states still queued
        frozenset(ctl_list[c][1:]
                  for c in infos.keys() | {s & _MASK for s in queue})
        if scheduled else None)


def run_interleavings(p: Program, unroll: int = UNROLL,
                      budget: OracleBudget = OracleBudget(),
                      thread_paths: Optional[dict[int, frozenset[ControlPath]]] = None,
                      collect_witnesses: bool = True) -> ExploreResult:
    """Union of errors over all interleavings of per-thread control paths.

    Mutexes block and exclude; islocked reads the actual mutex state;
    yield is a pause any interleaving can realize anyway.  Threads step in
    any order (no priorities)."""
    return _explore(p, unroll, budget, thread_paths, collect_witnesses,
                    scheduled=False)


def run_scheduled(p: Program, unroll: int = UNROLL,
                  budget: OracleBudget = OracleBudget(),
                  thread_paths: Optional[dict[int, frozenset[ControlPath]]] = None,
                  collect_witnesses: bool = True) -> ExploreResult:
    """Explicit-state scheduled semantics: enabled -> statement -> sched.

    Only the highest-priority ready thread may step.  lock(m) parks the
    thread in wait(m); the scheduler grants a free mutex to its
    highest-priority waiter and wakes yielding threads non-deterministically
    (one branch per subset).  Errors reached along any feasible prefix are
    kept even if the path later blocks.  sched_states holds the (status,
    held) pairs of the configurations reached."""
    return _explore(p, unroll, budget, thread_paths, collect_witnesses,
                    scheduled=True)


# ---------------------------------------------------------------------------
# Soundness comparison


class InclusionReport(Record):
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    missing: frozenset[Location]
    witness: list[dict] | None
    oracle_states: int


def inclusion(res: ExploreResult,
              alarms: frozenset[Location]) -> InclusionReport:
    """The one soundness verdict of an oracle run against an analyzer's
    alarms: FAIL when some error it reached is not an alarm, with the
    witness of the first missing label ([] if the run kept no witnesses),
    even if the run was truncated, since a truncated run reaches only
    reachable errors; else INCONCLUSIVE when it was truncated; else PASS."""
    missing = res.errors - alarms
    if missing:
        first = min(missing, key=lambda l: l.sort_key())
        return InclusionReport("FAIL", missing, res.witnesses.get(first, []),
                               res.states)
    return InclusionReport("INCONCLUSIVE" if res.truncated else "PASS",
                           frozenset(), None, res.states)

