"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
criteria complete.  The randomized sweeps are seeded and deterministic.
"""

import hashlib
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from fuzz_transforms import fuzz_block
from racebox.concrete import paths
from racebox.config import AnalysisSettings
from racebox.domains import BOT, INF, Interval
from racebox.interference import analyze_program_I
from racebox.oracle import run_interleavings, run_scheduled
from racebox.randgen import GeneratorConfig, random_seq_program
from racebox.sched import C0, analyze_program_C, unpartitioned
from racebox.transforms import negative_controls
from reference_semantics import (
    exec_stmt, initial_state, program_locations, run_paths)
from soundness_sweep import PAIRINGS, sweep

F = Fraction

LADDER_10 = tuple(sorted(F(t) for t in (-10_000, -1, 0, 1, 10, 10_000)))


@contextmanager
def criterion(num: int, title: str, limit_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {title}", file=sys.stderr)
        raise
    dt = time.monotonic() - t0
    print(f"[criterion {num}] PASS - {title} ({dt:.2f}s, limit {limit_s:g}s)")
    assert dt < limit_s, f"criterion {num} exceeded its time budget: {dt:.2f}s"


def iv(lo, hi):
    return Interval.of(F(lo) if lo != "-inf" else -INF,
                       F(hi) if hi != "inf" else INF)


def joined_final(res, var):
    out = BOT
    for tid, o in res.per_thread.items():
        for c, env in o.final.items():
            out = out.join(env.get(var))
    return out


def hull(res, var):
    out = joined_final(res, var)
    for tid, o in res.per_thread.items():
        for sid, envs in o.invariants.items():
            for c, env in envs.items():
                out = out.join(env.get(var))
    return out


def test_criterion_1_dekker(corpus):
    with criterion(1, "mutual-exclusion fragment: exact flag interferences,"
                      " satisfiable branches, oracle proves exclusion", 1.0):
        p = corpus("dekker")
        r = analyze_program_I(p)
        flags = {k: v for k, v in r.interf.items()
                 if k[2].startswith("flag")}
        assert flags == {(1, C0, "flag1"): iv(1, 1),
                         (2, C0, "flag2"): iv(1, 1)}
        for tid in (1, 2):
            (branch,) = r.per_thread[tid].branches.values()
            assert branch == (True, True)
        o = run_interleavings(p, unroll=0)
        assert not o.truncated
        assert o.errors == frozenset()  # mutual exclusion holds concretely
        assert len(r.omega) == 2  # while the analyzer cannot prove it


def test_criterion_2_parallel_increment(corpus):
    with criterion(2, "parallel incrementation: unbounded abstract y,"
                      " concrete y in {1,2}", 1.0):
        p = corpus("increment")
        r = analyze_program_I(p)
        y = r.interf[(1, C0, "y")]
        assert y.hi == INF and y.lo >= 1
        o = run_interleavings(p, unroll=0)
        assert not o.truncated
        assert o.terminal_values("y") == frozenset({F(1), F(2)})


def test_criterion_3_priority_mutex(corpus):
    with criterion(3, "priority mutual exclusion: t=0 under the real-time"
                      " scheduler, [-1,1] otherwise", 1.0):
        p = corpus("priority_mutex")
        mono = analyze_program_C(p, mono=True)
        assert joined_final(mono, "t") == iv(0, 0)
        assert not [r for r in mono.races_ww + mono.races_rw
                    if r.var in ("y", "z")]
        multi = analyze_program_C(p, mono=False)
        assert joined_final(multi, "t") == iv(-1, 1)
        interf = analyze_program_I(p)
        assert unpartitioned(interf.per_thread[1].final).get("t") == iv(-1, 1)


def test_criterion_4_producer_consumer(corpus):
    with criterion(4, "producer/consumer: x bounded in [0,10], y unbounded"
                      " above", 5.0):
        p = corpus("producer_consumer")
        res = analyze_program_C(p, AnalysisSettings(thresholds=LADDER_10),
                                mono=True)
        assert hull(res, "x") == iv(0, 10)
        assert hull(res, "y").hi == INF


def test_criterion_5_priority_flow(corpus):
    with criterion(5, "inter-thread flow: both divisions alarm while the"
                      " scheduled oracle proves them unreachable", 1.0):
        p = corpus("priority_flow")
        res = analyze_program_C(p, mono=True)
        div_sites = {l for l in program_locations(p) if l.op == "/"}
        assert len(div_sites) == 2
        assert res.omega == frozenset(div_sites)
        o = run_scheduled(p, unroll=0)
        assert not o.truncated
        assert o.errors == frozenset()


SWEEP_ITERATIONS: list[int] = []


def test_criterion_6_soundness_sweep():
    with criterion(6, "soundness inclusion sweep over 500 randomized"
                      " programs, three analyzer/oracle pairings", 300.0):
        checked = dict.fromkeys(PAIRINGS, 0)  # comparisons not truncated
        violations = []
        for o in sweep(500, 31_000):
            SWEEP_ITERATIONS.append(o.rounds)
            for name, (truncated, missing) in o.pairings.items():
                checked[name] += not truncated
                if missing:  # soundness_sweep.py 1 SEED prints the program
                    violations.append((o.seed, name, missing))
        assert not violations, violations
        assert all(n >= 450 for n in checked.values()), checked


def test_criterion_7_path_equivalence():
    with criterion(7, "structured and path-based semantics agree exactly"
                      " on 200 random loop-free programs", 30.0):
        for i in range(200):
            rng = random.Random(77_000 + i)
            p = random_seq_program(rng, GeneratorConfig(div_prob=0.4))
            st = initial_state(p)
            direct = exec_stmt(p.threads[0].body, st)
            ps = paths(p.threads[0].body, 0)
            assert not ps.truncated
            via = run_paths(ps, st)
            assert direct.envs == via.envs
            assert direct.errors == via.errors


def test_criterion_8_weak_memory_fuzzer():
    with criterion(8, "weak-memory fuzzer: 200 verified transformation"
                      " trials covered, negative controls detected", 180.0):
        applied = 0
        all_violations = []
        digest = hashlib.sha256()  # as scripts/fuzz_transforms.py prints it
        for _, rounds, rep in fuzz_block(200, 88_000):
            SWEEP_ITERATIONS.append(rounds)
            applied += sum(d["applied"] for d in rep.per_rule.values())
            all_violations.extend(rep.violations)
            digest.update(repr(rep).encode())
        assert not all_violations
        assert applied >= 200  # the chains actually transformed paths
        assert digest.hexdigest() == (
            "27743270d48d3e407e5b728a339d74c4aaf7385bdcae29bc94435f0d833b4bfb")
        controls = negative_controls()
        assert len(controls) >= 3
        assert all(c.detected for c in controls)


def test_criterion_9_scale_notes(corpus):
    with criterion(9, "interference fixpoints stabilize in <= 6 rounds;"
                      " corpus partitions stay small", 30.0):
        corpus_iters = []
        partitions = []
        for name in ("dekker", "increment", "priority_mutex",
                     "producer_consumer", "priority_flow"):
            p = corpus(name)
            settings = (AnalysisSettings(thresholds=LADDER_10)
                        if name == "producer_consumer"
                        else AnalysisSettings())
            ri = analyze_program_I(p, settings)
            rt = analyze_program_C(p, settings, mono=True)
            rf = analyze_program_C(p, settings, mono=False)
            corpus_iters += [ri.iterations, rt.iterations, rf.iterations]
            partitions += [rt.max_env_partitions, rf.max_env_partitions]
        assert max(corpus_iters) <= 6
        assert max(partitions) <= 8
        # every randomized instance analyzed by the other criteria
        assert SWEEP_ITERATIONS, "run the full acceptance module"
        assert max(SWEEP_ITERATIONS) <= 6
