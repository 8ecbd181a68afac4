"""The explorer keeps one BFS level for deduplication: it finds exactly
what the global-visited-set explorer of `reference_explorer` finds, every
move and retire goes one level down, and it needs less memory."""

import gc
import random
import tracemalloc

import pytest

import reference_explorer
from racebox import oracle
from racebox.config import OracleBudget
from racebox.parser import parse_program
from racebox.randgen import GeneratorConfig, random_program, sweep_program
from racebox.syntax import IsLocked, Lock, Unlock, Yield

FIELDS = ("errors", "truncated", "terminal_envs", "vars", "states",
          "paths_truncated", "witnesses", "sched_states")
BUDGETS = (50, 300, 2_000, OracleBudget().max_states)
# 121 start states: more than the least budget, which makes only 51
WIDE_START = ("var a = [0,10]; var b = [0,10];"
              " thread 1 { y <- 1 / a; } thread 2 { b <- a - b; }")


@pytest.mark.parametrize("scheduled", [False, True])
def test_explorer_equals_the_global_visited_set_reference(scheduled):
    """100 random programs with sync and WIDE_START, four budgets, with
    and without witnesses: every ExploreResult field equals the
    reference's."""
    runs = truncated = witnessed = after_retire = 0
    cases = [(seed, random_program(random.Random(seed),
                                   GeneratorConfig(max_stmts=6)))
             for seed in range(31_000, 31_100)]
    for seed, p in cases + [("WIDE_START", parse_program(WIDE_START))]:
        for max_states in BUDGETS:
            for witnesses in (False, True):
                args = (p, 3, OracleBudget(max_states=max_states), None,
                        witnesses, scheduled)
                got = oracle._explore(*args)
                want = reference_explorer.explore(*args)
                assert got == want, (seed, max_states, witnesses, [
                    f for f in FIELDS if getattr(got, f) != getattr(want, f)])
                runs += 1
                truncated += got.truncated
                steps = [s for w in got.witnesses.values() for s in w]
                witnessed += bool(steps)
                after_retire += any(
                    "done" in s["pre-scheduler"]["status"].values()
                    for s in steps if scheduled)
    # the comparisons cover truncation and witnesses, and in the scheduled
    # oracle witnesses that run past a retire
    assert runs == 808 and 0 < truncated < runs and witnessed
    assert after_retire or not scheduled


def _depths(trie) -> list[int]:
    """Each trie node's depth (a node is made after its parent)."""
    depth = [0] * len(trie.edges)
    for node, edges in enumerate(trie.edges):
        for _, nxt in edges:
            depth[nxt] = depth[node] + 1
    return depth


@pytest.mark.parametrize("run", [oracle.run_interleavings,
                                 oracle.run_scheduled])
def test_every_move_and_retire_goes_one_level_down(monkeypatch, run):
    """A move advances one thread by one trie edge and keeps the DONE
    threads; a retire keeps the nodes and makes one more thread DONE.  So
    all paths to a state have the same length, which one-level
    deduplication relies on."""
    real = oracle._Policy.expand
    checked = {"move": 0, "retire": 0}
    kinds = set()

    def expand(self, ctl, ctl_id, transition):
        ctls = {}

        def record(c):
            ctls[c_id := ctl_id(c)] = c
            return c_id

        info = real(self, ctl, record, transition)
        depths = [_depths(trie) for trie in self.tries]

        def depth(c):
            return sum(d[node] for d, node in zip(depths, c[0]))

        def done(c):
            return c[1].count(oracle.DONE)

        for c2 in info[1]:
            assert (depth(ctls[c2]), done(ctls[c2])) == (depth(ctl),
                                                         done(ctl) + 1)
            checked["retire"] += 1
        for _, stmt, _, targets in info[2]:
            kinds.add(type(stmt))
            for c2 in targets:
                assert (depth(ctls[c2]), done(ctls[c2])) == (depth(ctl) + 1,
                                                             done(ctl))
                checked["move"] += 1
        return info

    monkeypatch.setattr(oracle._Policy, "expand", expand)
    cfg = GeneratorConfig(max_stmts=6, sync_prob=0.5)
    for seed in range(60):
        run(random_program(random.Random(seed), cfg), unroll=2,
            budget=OracleBudget(max_states=5_000), collect_witnesses=False)
    assert {Lock, Unlock, Yield, IsLocked} <= kinds
    assert checked["move"] and (checked["retire"]
                                or run is oracle.run_interleavings)


def _peak(explore, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        explore(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("witnesses", [False, True])
def test_explorer_peak_memory_is_below_the_reference(witnesses):
    """On sweep program 31238, cut off at 10,000 states, the explorer's
    traced peak is at most 0.7 of the reference's (measured 0.66 without
    witnesses and 0.51 with them)."""
    args = (sweep_program(31_238), 3, OracleBudget(max_states=10_000), None,
            witnesses, False)
    ref = _peak(reference_explorer.explore, *args)
    new = _peak(oracle._explore, *args)
    assert new <= 0.7 * ref, (new, ref)
