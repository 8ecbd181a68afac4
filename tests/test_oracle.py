import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebox import oracle
from racebox.cli import main
from racebox.concrete import UnsupportedMode, paths, sorted_paths
from racebox.config import OracleBudget
from racebox.interference import analyze_program_I
from racebox.oracle import (
    inclusion,
    run_interleavings,
    run_scheduled,
)
from racebox.parser import parse_program
from racebox.randgen import (
    fuzz_program, random_program, random_seq_program, sweep_program)
from reference_semantics import exec_stmt, initial_state

F = Fraction


def test_dekker_mutual_exclusion(corpus):
    res = run_interleavings(corpus("dekker"), unroll=0)
    assert res.errors == frozenset()
    assert not res.truncated


def test_increment_final_values(corpus):
    res = run_interleavings(corpus("increment"), unroll=0)
    assert res.terminal_values("y") == frozenset({F(1), F(2)})
    assert res.errors == frozenset()


def test_single_thread_matches_exec(corpus):
    p = parse_program("thread 1 { x <- [0,1]; y <- 1 / x; }")
    res = run_interleavings(p, unroll=0)
    seq = exec_stmt(p.threads[0].body, initial_state(p))
    assert res.errors == seq.errors
    assert res.terminal_envs == seq.envs


def test_interleaving_budget_truncates():
    p = parse_program(
        "thread 1 { x <- [0,3]; y <- [0,3]; z <- [0,3]; }"
        "thread 2 { x <- [0,3]; y <- [0,3]; z <- [0,3]; }")
    res = run_interleavings(p, unroll=0, budget=OracleBudget(max_states=20))
    assert res.truncated


def test_budget_bounds_the_start_states():
    # a million start states, of which a budget of 10 makes only 11
    p = parse_program("var a = [0,1000]; var b = [0,1000];"
                      " thread 1 { y <- 1 / a; }")
    t0 = time.monotonic()
    for run in (run_interleavings, run_scheduled):
        res = run(p, budget=OracleBudget(10), collect_witnesses=False)
        assert (res.states, res.truncated) == (11, True)
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("src", [
    "var a = [0,3000000]; thread 1 { y <- 1 / a; }",
    "var a = [1/2,3000000]; var b = [0,1/3];"
    " thread 1 { y <- 1 / (a - b); }"])
def test_budget_bounds_the_points_of_a_wide_interval(src):
    # a has three million points, of which a budget of 10 lists only 11
    p = parse_program(src)
    t0 = time.monotonic()
    tracemalloc.start()
    try:
        for run in (run_interleavings, run_scheduled):
            res = run(p, budget=OracleBudget(10), collect_witnesses=False)
            assert (res.states, res.truncated) == (11, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert time.monotonic() - t0 < 1


def test_sched_states_come_from_scheduled_runs_alone(corpus):
    p = corpus("priority_mutex")
    assert run_interleavings(p, unroll=0).sched_states is None
    assert run_scheduled(p, unroll=0).sched_states


def test_unbounded_constant_raises_only_when_reached():
    blocked = parse_program(
        "thread 1 { x <- 0; if x > 0 then { y <- [0,inf]; } }")
    for run in (run_interleavings, run_scheduled):
        assert run(blocked, unroll=0).errors == frozenset()
    reached = parse_program("thread 1 { x <- 0; y <- [0,inf]; }")
    for run in (run_interleavings, run_scheduled):
        with pytest.raises(UnsupportedMode):
            run(reached, unroll=0)


def test_rational_values_decode_from_their_fields():
    p = parse_program("var x = [1,3]; thread 1 { y <- 1 / x; }")
    res = run_interleavings(p, unroll=0)
    seq = exec_stmt(p.threads[0].body, initial_state(p))
    assert res.terminal_envs == seq.envs
    assert res.terminal_values("y") == {1, F(1, 2), F(1, 3)}


def test_non_integer_constants_offer_their_endpoints():
    """A constant's points are its integer points and its finite
    endpoints, so x <- 0.5 runs on and reaches the division by zero."""
    p = parse_program("thread 1 { x <- 0.5; y <- 1 / (x - 0.5); }")
    seq = exec_stmt(p.threads[0].body, initial_state(p))
    alarms = analyze_program_I(p).omega
    assert seq.errors and seq.errors == alarms
    for run in (run_interleavings, run_scheduled):
        res = run(p, unroll=0)
        assert res.errors == seq.errors
        assert res.terminal_envs == seq.envs
    # a declared start interval with no integer point has two start values
    q = parse_program("var x = [1/3,2/3]; thread 1 { y <- x; }")
    assert initial_state(q).envs == {(F(1, 3), 0), (F(2, 3), 0)}
    assert run_interleavings(q, unroll=0).terminal_values("y") == {
        F(1, 3), F(2, 3)}


def test_islocked_writes_a_field_no_assign_touches():
    """b is written by islocked alone; spare is declared and untouched."""
    p = parse_program("var spare = [2,3]; mutex m;"
                      " thread 1 { lock(m); x <- 1; unlock(m); }"
                      " thread 2 { b <- islocked(m); }")
    assert p.variables == ("b", "spare", "x")
    assert run_interleavings(p, unroll=0).terminal_envs == {
        (b, spare, 1) for b in (0, 1) for spare in (2, 3)}
    # thread 2 has the higher priority, so it reads m before any lock
    assert run_scheduled(p, unroll=0).terminal_envs == {(0, 2, 1), (0, 3, 1)}


def test_a_full_value_field_raises(monkeypatch, tmp_path):
    """With 2-bit fields a variable has room for four values: x takes 0
    and [1,3], or 0 and [1,4], one too many, which the CLI reports as
    an internal error."""
    monkeypatch.setattr(oracle, "_FIELD", 2)
    fits = parse_program("thread 1 { x <- [1,3]; }")
    assert run_interleavings(fits, unroll=0).terminal_values("x") == {1, 2, 3}
    src = "thread 1 { x <- [1,4]; }"
    for run in (run_interleavings, run_scheduled):
        with pytest.raises(oracle.ValueTableFull):
            run(parse_program(src), unroll=0)
    f = tmp_path / "p.conc"
    f.write_text(src)
    with pytest.raises(SystemExit) as exit_:
        main([str(f), "--mode", "oracle-interleave"])
    assert exit_.value.code == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_explorer_matches_structural_semantics(seed):
    """On loop-free single-thread programs the explorer reaches exactly
    the errors and final environments of exec_stmt, by either route to
    the thread's paths."""
    p = random_seq_program(random.Random(seed), loop_free=True)
    body = p.threads[0].body
    seq = exec_stmt(body, initial_state(p))
    res = run_interleavings(p, unroll=0, collect_witnesses=False)
    assert (res.errors, res.terminal_envs) == (seq.errors, seq.envs)
    explicit = run_interleavings(
        p, unroll=0, thread_paths={p.tids[0]: paths(body, 0).paths},
        collect_witnesses=False)
    assert ((explicit.errors, explicit.terminal_envs, explicit.states)
            == (res.errors, res.terminal_envs, res.states))


def test_scheduled_priority_mutex_terminal(corpus):
    res = run_scheduled(corpus("priority_mutex"), unroll=0)
    ti = res.vars.index("t")
    assert {env[ti] for env in res.terminal_envs} == {F(0)}
    assert res.errors == frozenset()


def test_scheduled_priority_flow_no_errors(corpus):
    res = run_scheduled(corpus("priority_flow"), unroll=0)
    assert res.errors == frozenset()


def test_scheduled_relock_noop():
    p = parse_program("mutex m; thread 1 { lock(m); lock(m); unlock(m); }")
    res = run_scheduled(p, unroll=0)
    assert res.errors == frozenset()
    assert len(res.terminal_envs) == 1


def test_scheduled_mutex_exclusivity_and_wait_consistency(corpus):
    res = run_scheduled(corpus("priority_mutex"), unroll=0)
    for status, held in res.sched_states:
        for m in ("m",):
            holders = [i for i, h in enumerate(held) if m in h]
            assert len(holders) <= 1


def test_scheduled_high_priority_runs_first(corpus):
    # in priority_flow, thread 2 (high) must fully precede thread 1 until
    # it yields; b <- 1/x never sees x = 0
    res = run_scheduled(corpus("priority_flow"), unroll=0)
    bi = res.vars.index("b")
    assert {env[bi] for env in res.terminal_envs} == {F(1)}


def test_scheduled_included_in_interleavings():
    rng = random.Random(4242)
    for _ in range(15):
        p = random_program(rng)
        sched = run_scheduled(p, unroll=2, collect_witnesses=False)
        inter = run_interleavings(p, unroll=2, collect_witnesses=False)
        if not sched.truncated and not inter.truncated:
            assert sched.errors <= inter.errors


def test_projection_prefix_property(corpus):
    # witness traces project, per thread, to a prefix of some control path
    p = parse_program(
        "thread 1 { x <- [0,1]; y <- 1 / x; } thread 2 { x <- 1; }")
    res = run_interleavings(p, unroll=0)
    assert res.errors
    per_thread_paths = {t.tid: paths(t.body, 0).paths for t in p.threads}
    for loc, trace in res.witnesses.items():
        proj: dict[int, list[str]] = {}
        for step in trace:
            proj.setdefault(step["thread"], []).append(step["stmt-pretty"])
        for tid, stmts in proj.items():
            ok = False
            for path in per_thread_paths[tid]:
                from racebox.syntax import pretty_stmt

                full = [pretty_stmt(s).strip() for s in path]
                if full[:len(stmts)] == stmts:
                    ok = True
            assert ok


def test_witnesses_serialize_as_json(corpus):
    p = parse_program("thread 1 { x <- 1 / [0,0]; }")
    res = run_scheduled(p, unroll=0)
    (trace,) = res.witnesses.values()
    text = json.dumps(trace)
    steps = json.loads(text)
    assert steps[-1]["thread"] == 1
    assert "pre-scheduler" in steps[-1] and "post-scheduler" in steps[-1]


def test_inclusion_pass(corpus):
    p = corpus("increment")
    alarms = analyze_program_I(p).omega
    rep = inclusion(run_interleavings(p, unroll=0), alarms)
    assert rep.verdict == "PASS"


def test_inclusion_vacuous_on_trivial_program():
    p = parse_program("thread 1 { x <- 0; }")
    rep = inclusion(run_interleavings(p), frozenset())
    assert rep.verdict == "PASS"


def test_inclusion_fail_with_witness():
    # adversarially drop one alarm from the analyzer's output
    p = parse_program("thread 1 { x <- 1 / [0,0]; }")
    rep = inclusion(run_interleavings(p), frozenset())
    assert rep.verdict == "FAIL"
    assert rep.missing
    assert rep.witness and rep.witness[-1]["stmt-pretty"].startswith("x <-")
    # `inclusion` judges the run it is given: an empty witness on a run
    # without witnesses
    bare = inclusion(run_interleavings(p, collect_witnesses=False),
                     frozenset())
    assert (bare.verdict, bare.missing, bare.witness) == ("FAIL",
                                                          rep.missing, [])


def test_inclusion_inconclusive_on_truncation():
    p = parse_program(
        "thread 1 { x <- [0,3]; y <- [0,3]; } thread 2 { x <- [0,3]; }")
    rep = inclusion(run_interleavings(
        p, budget=OracleBudget(max_states=5)), frozenset())
    assert rep.verdict == "INCONCLUSIVE"


def test_inclusion_fails_on_a_truncated_run_that_missed_an_error():
    # a truncated run is an under-approximation: what it reached is
    # reachable, so an error no alarm covers is a soundness bug
    p = parse_program("thread 1 { y <- 1 / [0,1]; x <- [0,3]; }"
                      " thread 2 { x <- [0,3]; y <- x; }")
    res = run_interleavings(p, budget=OracleBudget(max_states=1))
    assert res.truncated and res.errors
    rep = inclusion(res, frozenset())
    assert rep.verdict == "FAIL" and [l.label for l in rep.missing] == [1]
    assert rep.witness and rep.witness[-1]["stmt-pretty"].startswith("y <-")


# -- golden explorations: digests recorded with the earlier explorer (two
# BFS loops over tuple states), which the int-coded one must reproduce
# exactly.  A truncated run pins the BFS pop order.

def _fuzz_style_case():
    """A fuzz-block program with explicit paths for one thread: one path
    dropped and one reversed, the other thread on the default route.
    Returns (program, max_states, unroll, thread_paths)."""
    p = fuzz_program(88_005)
    t0 = p.threads[0]
    pool = sorted_paths(paths(t0.body, 2).paths)
    return p, 1_000_000, 2, {t0.tid: frozenset(pool[1:])
                             | {tuple(reversed(pool[-1]))}}


def _result_doc(res) -> str:
    doc = {
        "states": res.states,
        "truncated": res.truncated,
        "errors": sorted(l.label for l in res.errors),
        "witnesses": [[l.label, res.witnesses[l]]
                      for l in sorted(res.witnesses, key=lambda l: l.sort_key())],
        "terminal": [[str(v) for v in env] for env in sorted(res.terminal_envs)],
        "sched": None if res.sched_states is None else sorted(
            json.dumps([[s if isinstance(s, str) else list(s) for s in st],
                        [sorted(h) for h in hd]])
            for st, hd in res.sched_states),
    }
    return json.dumps(doc, sort_keys=True, default=str)


def _golden_digest(p, max_states, unroll=3, thread_paths=None) -> str:
    import hashlib

    budget = OracleBudget(max_states=max_states)
    docs = []
    for witnesses in (False, True):
        docs.append(_result_doc(run_interleavings(
            p, unroll=unroll, budget=budget, thread_paths=thread_paths,
            collect_witnesses=witnesses)))
        docs.append(_result_doc(run_scheduled(
            p, unroll=unroll, budget=budget, thread_paths=thread_paths,
            collect_witnesses=witnesses)))
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()[:16]


def _golden_cases():
    for seed in range(31_200, 31_238):
        yield str(seed), (lambda s=seed: (sweep_program(s), 20_000, 3, None))
    # truncated interleavings (5,000 of 1M+ states) and truncated schedules
    yield "31238", lambda: (sweep_program(31_238), 5_000, 3, None)
    yield "31220@60", lambda: (sweep_program(31_220), 60, 3, None)
    yield "fuzz-88005", _fuzz_style_case


GOLDEN = {
    "31200": "5a2bee77da7e75d4", "31201": "f34cd1c708124d36",
    "31202": "3cb8450f8e1d7b9f", "31203": "88fc1d952a7d48e6",
    "31204": "d7fc0f5abcba2ea4", "31205": "3016149d218768ea",
    "31206": "934fafdef4f84644", "31207": "1274f28dcbd5dbb9",
    "31208": "6efb2e6aab25c8f0", "31209": "4d3c5f4003458bbc",
    "31210": "1b622f22258f1a2d", "31211": "57c8d6c7f2cb1c43",
    "31212": "35e673435bb5d226", "31213": "2771a0889c39f1b6",
    "31214": "bfe4a71f00708eb4", "31215": "aec123920ff62519",
    "31216": "483a676e2235dc47", "31217": "e6737b3d54070d4e",
    "31218": "207a6a283ff1e162", "31219": "23d67e0ad9ed16ea",
    "31220": "3af487a9824d4756", "31221": "53f7a050001fe4f8",
    "31222": "ccd7e440dc1f0048", "31223": "bde7ecaf69462cb5",
    "31224": "2300d6911eb51df6", "31225": "7b0bf2c863271b16",
    "31226": "a20183e3dbf95a29", "31227": "d82c0f040cbe75f2",
    "31228": "12769a86c8fb6187", "31229": "2227e08ae4449a3b",
    "31230": "50b406286e9a17d5", "31231": "b5d48feea6cbe855",
    "31232": "62e62f1a78adb136", "31233": "af182c016e8adc18",
    "31234": "8e78f73d2b3c4720", "31235": "6699503dc1235d95",
    "31236": "326184f32749a51e", "31237": "6e400bf1c3b4ed17",
    "31238": "a23b53f55fc16a8c", "31220@60": "e7700a3fb6bb81b3",
    "fuzz-88005": "68bab67b8960a158",
}


def test_golden_explorations():
    got = {}
    for name, case in _golden_cases():
        p, max_states, unroll, tp = case()
        got[name] = _golden_digest(p, max_states, unroll, tp)
    assert got == GOLDEN
