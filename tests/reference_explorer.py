"""The oracle explorer as it was before it kept only one BFS level for
deduplication: a global visited set and tuple witness links.  Tests
compare racebox.oracle._explore with it field for field.  Like
_explore, it makes at most max_states + 1 start states.

explore(p, unroll, budget, thread_paths, collect_witnesses, scheduled)
takes the arguments of racebox.oracle._explore."""

from __future__ import annotations

from collections import deque
from typing import Optional

from racebox import oracle
from racebox.concrete import compile_prim, paths
from racebox.config import OracleBudget
from racebox.oracle import (
    _MASK,
    _PRIM,
    _SHIFT,
    READY,
    ExploreResult,
    ValueTableFull,
    _Policy,
    _Trie,
)
from racebox.syntax import ControlPath, Location, Program, Stmt
from reference_semantics import initial_state


def explore(p: Program, unroll: int, budget: OracleBudget,
            thread_paths: Optional[dict[int, frozenset[ControlPath]]],
            collect_witnesses: bool, scheduled: bool) -> ExploreResult:
    """The BFS of racebox.oracle._explore with one visited set of every
    state found and (parent, (thread, stmt, target)) witness links."""
    tries, paths_trunc = [], False
    for t in p.threads:
        if thread_paths is not None and t.tid in thread_paths:
            path_set = frozenset(thread_paths[t.tid])
        else:
            ps = paths(t.body, unroll)
            path_set, paths_trunc = ps.paths, paths_trunc or ps.truncated
        tries.append(_Trie.build(path_set))
    policy = _Policy(p.tids, tries, scheduled)
    init = initial_state(p)
    idx = init.index()

    field = oracle._FIELD  # read per call, as tests patch it
    full = 1 << field
    fmask = full - 1
    shifts = range(_SHIFT, _SHIFT + field * len(p.variables), field)
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
             for env in sorted(init.envs)[:budget.max_states + 1]]
    queue = deque(start)
    parents: dict | None = ({s: (None, None) for s in start}
                            if collect_witnesses else None)
    seen = set(start)
    errors: dict[Location, list[dict]] = {}
    terminal: set[int] = set()

    def trace(state: int) -> list[dict]:
        steps = []
        while state is not None:
            prev, action = parents[state]
            if action is not None:
                t, stmt, c2 = action
                steps.append(policy.step(t, stmt, ctl_list[prev & _MASK],
                                         ctl_list[c2]))
            state = prev
        steps.reverse()
        return steps

    popleft, push = queue.popleft, queue.append
    max_states = budget.max_states
    while queue and len(seen) <= max_states:
        state = popleft()
        c = state & _MASK
        info = infos.get(c)
        if info is None:
            info = infos[c] = policy.expand(ctl_list[c], ctl_id, transition)
        is_terminal, retire, moves = info
        e = state - c
        if is_terminal:
            terminal.add(e)
        for c2 in retire:
            s2 = e | c2
            if s2 not in seen:
                seen.add(s2)
                if parents is not None:
                    parents[s2] = parents[state]
                push(s2)
        for t, stmt, (memo, rmask, keep, prim), targets in moves:
            key = e & rmask
            fields = memo.get(key)
            if fields is None:
                # the first pop that meets (stmt, read values) is the first
                # to meet its errors, so hits need no error check
                reads, w, outcome = prim
                out, errs = outcome(tuple([values[k][e >> shifts[k] & fmask]
                                           for k in reads]))
                fields = memo[key] = (((0,) if out else ()) if w is None
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
                        seen.add(s2)
                        if parents is not None:
                            parents[s2] = (state, (t, stmt, c2))
                        push(s2)

    # positional: a Record built by keyword costs three times as much
    return ExploreResult(
        frozenset(errors), bool(queue),  # truncated: stopped by the budget
        frozenset(tuple([vs[e >> k & fmask] for vs, k in zip(values, shifts)])
                  for e in terminal),
        p.variables, len(seen), paths_trunc, errors,
        frozenset(ctl_list[c][1:] for c in {s & _MASK for s in seen})
        if scheduled else None)
