"""The explorer keeps one BFS level for deduplication and grows each
thread's trie as the search reaches it: it finds exactly what the
global-visited-set explorer of `reference_explorer`, with tries built
from whole path lists, finds, every move and retire goes one level down,
and it needs less memory.  The tries of listed paths order their edges
by the rule concrete.control_step follows."""

import gc
import pathlib
import random
import tracemalloc

import pytest

import reference_explorer
from racebox import oracle
from racebox.concrete import control_step, paths, sorted_paths
from racebox.config import OracleBudget
from racebox.parser import parse_program
from racebox.randgen import GeneratorConfig, random_program, sweep_program
from racebox.syntax import IsLocked, Lock, Unlock, Yield
from reference_explorer import EagerTrie

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


@pytest.mark.parametrize("scheduled", [False, True])
def test_explicit_paths_equal_the_reference(scheduled):
    """Tries grown from explicit thread_paths, for the first thread or
    for every thread, give every ExploreResult field of the reference,
    whose tries are built from the sorted path lists, on 100 random
    programs with sync at two budgets, with and without witnesses."""
    runs = truncated = 0
    for seed in range(31_000, 31_100):
        p = random_program(random.Random(seed), GeneratorConfig(max_stmts=6))
        every = {t.tid: paths(t.body, 2).paths for t in p.threads}
        for thread_paths in ({p.tids[0]: every[p.tids[0]]}, every):
            for max_states in (50, 2_000):
                for witnesses in (False, True):
                    args = (p, 2, OracleBudget(max_states=max_states),
                            thread_paths, witnesses, scheduled)
                    got = oracle._explore(*args)
                    want = reference_explorer.explore(*args)
                    assert got == want, (seed, max_states, witnesses, [
                        f for f in FIELDS
                        if getattr(got, f) != getattr(want, f)])
                    runs += 1
                    truncated += got.truncated
    assert runs == 800 and 0 < truncated < runs


@pytest.mark.parametrize("scheduled", [False, True])
def test_structural_run_equals_its_listed_paths(scheduled):
    """On sweep programs 31000-31099, a run that steps each thread's
    statements equals the run over every thread's listed paths, apart
    from paths_truncated, which explicit path sets never set."""
    for seed in range(31_000, 31_100):
        p = sweep_program(seed)
        every = {t.tid: paths(t.body, 3) for t in p.threads}
        args = (p, 3, OracleBudget(max_states=20_000))
        got = oracle._explore(*args, None, True, scheduled)
        want = oracle._explore(*args, {tid: ps.paths for tid, ps
                                       in every.items()}, True, scheduled)
        assert got._replace(paths_truncated=False) == want, seed
        assert got.paths_truncated == any(
            ps.truncated for ps in every.values())


def _depths(trie) -> list[int]:
    """The depth of each trie node made so far (a node is made after its
    parent, and a node not yet grown has no children)."""
    depth = [0] * len(trie.made)
    for node, made in enumerate(trie.made):
        for _, nxt in made[1] if made else ():
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


def _least_completions(trie) -> list[int]:
    """Per trie node, the fewest edges to a node where a path ends."""
    least = [0] * len(trie.made)
    for node in reversed(range(len(trie.made))):  # children come later
        ends, edges = trie.made[node]
        if not ends:
            least[node] = 1 + min(least[nxt] for _, nxt in edges)
    return least


def test_trie_puts_the_shorter_skip_edge_first():
    """An if's else path is one statement shorter than any then path, and
    a loop's exit below its unroll limit is shorter than any body path.
    So a node has at most two edges, the first an else or exit guard with
    the strictly shorter least completion, and no edge leaves a path's end:
    the order concrete.control_step gives without a pass over the
    statements."""
    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    programs = [parse_program(f.read_text())
                for f in sorted(corpus.glob("*.conc"))]
    programs += [sweep_program(seed) for seed in range(31_000, 31_100)]
    # an empty block is a skip statement, so its then path is still longer
    programs.append(parse_program("var x = [-1,1]; thread 1 { if x > 0"
                                  " then { } while x < 0 do { } x <- 1; }"))
    forks = 0
    for p in programs:
        for t in p.threads:
            for unroll in range(4):
                trie = EagerTrie(paths(t.body, unroll).paths)
                least = _least_completions(trie)
                for ends, edges in trie.made:
                    assert len(edges) <= 2
                    assert not (ends and edges)
                    if len(edges) == 2:
                        (skip, first), (_, second) = edges
                        assert str(skip.sid).endswith((":else", ":exit"))
                        assert least[first] < least[second]
                        forks += 1
    assert forks


def _preorder(trie) -> list[tuple[bool, list]]:
    """Each node's (ends, edge statements) in the preorder its edges'
    order gives, growing a lazy trie to its end: equal lists mean equal
    tries, edge order included."""
    out, todo = [], [0]
    while todo:
        node = todo.pop()
        ends, edges = trie.made[node] or trie.grow(node)
        out.append((ends, [s for s, _ in edges]))
        todo += [nxt for _, nxt in reversed(edges)]
    return out


def test_lazy_tries_are_the_tries_of_the_sorted_paths():
    """A thread's trie grown by control_step, and one grown from its
    listed paths, equal the trie built from the sorted path list, node
    for node and edge for edge, over the corpus and sweep seeds
    31000-31099 at unroll 0-3.  With every path's first half added, a
    path may stop at a node that has edges."""
    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    programs = [parse_program(f.read_text())
                for f in sorted(corpus.glob("*.conc"))]
    programs += [sweep_program(seed) for seed in range(31_000, 31_100)]
    compared = 0
    for p in programs:
        for t in p.threads:
            for unroll in range(4):
                every = paths(t.body, unroll).paths
                want = _preorder(EagerTrie(every))
                assert _preorder(oracle._Trie(
                    control_step(unroll), (t.body, 0, None))) == want
                for ps in (every, every | {q[:len(q) // 2] for q in every}):
                    assert _preorder(oracle._Trie(oracle._suffix_step, (
                        sorted_paths(ps), 0))) == _preorder(EagerTrie(ps))
                compared += 1
    assert compared == 828


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
