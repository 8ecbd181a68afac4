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

check_program(seed) checks one program and sweep(n, base) a block;
acceptance criterion 6 runs its block through sweep().
"""

import pathlib
import sys
import time
from collections import Counter
from typing import Iterator, NamedTuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from racebox.interference import analyze_program_I
from racebox.oracle import inclusion, run_interleavings, run_scheduled
from racebox.randgen import sweep_program
from racebox.sched import analyze_program_C
from racebox.syntax import pretty_program

PAIRINGS = ("interleave/interference", "interleave/scheduled-multi",
            "scheduled/scheduled-mono")


class Outcome(NamedTuple):
    seed: int
    pairings: dict[str, tuple[bool, list[int]]]  # truncated, missing labels
    rounds: int  # the most fixpoint rounds of the three analyzers
    states: dict[str, int]  # per oracle
    secs: dict[str, float]  # per phase


def check_program(seed: int) -> Outcome:
    """Run the three analyzers and both oracles on sweep program `seed`
    and compare each pairing's oracle errors with its analyzer's alarms."""
    p = sweep_program(seed)
    t = time.perf_counter()
    ri = analyze_program_I(p)
    rt = analyze_program_C(p, mono=True)
    rf = analyze_program_C(p, mono=False)
    t1 = time.perf_counter()
    oi = run_interleavings(p, unroll=3, collect_witnesses=False)
    t2 = time.perf_counter()
    os_ = run_scheduled(p, unroll=3, collect_witnesses=False)
    t3 = time.perf_counter()
    pairings = {
        name: (res.truncated,
               sorted(l.label for l in inclusion(res, alarms).missing))
        for name, res, alarms in zip(PAIRINGS, (oi, oi, os_),
                                     (ri.omega, rf.omega, rt.omega))}
    return Outcome(seed, pairings,
                   max(ri.iterations, rt.iterations, rf.iterations),
                   {"interleave": oi.states, "scheduled": os_.states},
                   {"analyzers": t1 - t, "interleave": t2 - t1,
                    "scheduled": t3 - t2})


def sweep(n: int, base: int) -> Iterator[Outcome]:
    """check_program of seeds base, ..., base + n - 1, in seed order."""
    return map(check_program, range(base, base + n))


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    base = int(sys.argv[2]) if len(sys.argv) > 2 else 31_000
    t0 = time.monotonic()
    counts = {name: Counter() for name in PAIRINGS}
    max_rounds = 0
    secs, states = Counter(), Counter()
    for o in sweep(n, base):
        max_rounds = max(max_rounds, o.rounds)
        secs.update(o.secs)
        states.update(o.states)
        for name, (truncated, missing) in o.pairings.items():
            counts[name]["partial" if truncated else "checked"] += 1
            if truncated:
                print(f"PARTIAL seed={o.seed} pairing={name}")
            if missing:
                counts[name]["violations"] += 1
                print(f"VIOLATION seed={o.seed} pairing={name}"
                      f" labels={missing}")
                print(pretty_program(sweep_program(o.seed)))
    dt = time.monotonic() - t0
    total = sum(counts.values(), Counter())
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
