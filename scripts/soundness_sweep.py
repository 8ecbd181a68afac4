#!/usr/bin/env python3
"""Randomized soundness sweep: concrete oracle errors must be covered by
analyzer alarms, for all three analyzer/oracle pairings.

Usage: soundness_sweep.py [N] [BASE_SEED]

Prints one PARTIAL line per truncated comparison (an oracle run that
reached its state budget), with the seed and the pairing, then one
summary line, one line per pairing with its checked
comparisons (a completed oracle run) and partial ones (a truncated run,
whose errors are checked all the same), then one line of seconds per
phase (analyzers, interleaving oracle, scheduled oracle) with the states
each oracle explored.  Exits 1 on any inclusion violation.
"""

import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from racebox.config import OracleBudget
from racebox.interference import analyze_program_I
from racebox.oracle import inclusion, run_interleavings, run_scheduled
from racebox.randgen import GeneratorConfig, random_program
from racebox.sched import analyze_program_C
from racebox.syntax import pretty_program


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    base = int(sys.argv[2]) if len(sys.argv) > 2 else 31_000
    budget = OracleBudget()
    t0 = time.monotonic()
    pairings = ("interleave/interference", "interleave/scheduled-multi",
                "scheduled/scheduled-mono")
    counts = {name: {"checked": 0, "partial": 0, "violations": 0}
              for name in pairings}
    max_rounds = 0
    secs = {"analyzers": 0.0, "interleave": 0.0, "scheduled": 0.0}
    states = {"interleave": 0, "scheduled": 0}
    for i in range(n):
        rng = random.Random(base + i)
        cfg = GeneratorConfig(max_stmts=rng.choice((4, 6, 8, 12)))
        p = random_program(rng, cfg)
        t = time.perf_counter()
        ri = analyze_program_I(p)
        rt = analyze_program_C(p, mono=True)
        rf = analyze_program_C(p, mono=False)
        secs["analyzers"] += time.perf_counter() - t
        max_rounds = max(max_rounds, ri.iterations, rt.iterations,
                         rf.iterations)
        t = time.perf_counter()
        oi = run_interleavings(p, unroll=3, budget=budget,
                               collect_witnesses=False)
        secs["interleave"] += time.perf_counter() - t
        t = time.perf_counter()
        os_ = run_scheduled(p, unroll=3, budget=budget,
                            collect_witnesses=False)
        secs["scheduled"] += time.perf_counter() - t
        states["interleave"] += oi.states
        states["scheduled"] += os_.states
        for name, res, alarms in zip(pairings, (oi, oi, os_),
                                     (ri.omega, rf.omega, rt.omega)):
            inc = inclusion(res, alarms)
            counts[name]["partial" if res.truncated else "checked"] += 1
            if res.truncated:
                print(f"PARTIAL seed={base + i} pairing={name}")
            if inc.verdict == "FAIL":
                counts[name]["violations"] += 1
                print(f"VIOLATION seed={base + i} pairing={name}"
                      f" labels={sorted(l.label for l in inc.missing)}")
                print(pretty_program(p))
    dt = time.monotonic() - t0
    total = {k: sum(d[k] for d in counts.values())
             for k in ("checked", "partial", "violations")}
    print(f"{n} programs, {total['checked']} comparisons,"
          f" {total['partial']} partial (truncated),"
          f" {total['violations']} violations,"
          f" max {max_rounds} fixpoint rounds, {dt:.1f}s")
    for name, d in counts.items():
        print(f"  {name}: {d['checked']} checked, {d['partial']} partial,"
              f" {d['violations']} violations")
    print(f"phases: analyzers {secs['analyzers']:.1f}s,"
          f" interleaving oracle {secs['interleave']:.1f}s"
          f" ({states['interleave']} states),"
          f" scheduled oracle {secs['scheduled']:.1f}s"
          f" ({states['scheduled']} states)")
    sys.exit(1 if total["violations"] else 0)


if __name__ == "__main__":
    main()
