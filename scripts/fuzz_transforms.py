#!/usr/bin/env python3
"""Weak-memory transformation fuzzing over random programs, plus the
negative controls that prove the harness detects broken side conditions.

Usage: fuzz_transforms.py [TRIALS] [BASE_SEED]

stdout ends with one sha256 over the repr of every FuzzReport, in order,
so two checkouts can be compared with `diff`; the run time goes to
stderr.

Acceptance criterion 8 runs its block through fuzz_block(want, base).
"""

import hashlib
import pathlib
import sys
import time
from collections import Counter
from typing import Iterator

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from racebox.interference import analyze_program_I
from racebox.randgen import fuzz_program
from racebox.transforms import (
    FuzzReport, RuleId, fuzz_weakmem, negative_controls)


def fuzz_block(want: int, base: int) -> Iterator[tuple[int, int, FuzzReport]]:
    """(seed, interference fixpoint rounds, report) of fuzz programs base,
    base + 1, ..., in order, until `want` trials were effective and not
    inconclusive.  Program base + i is fuzzed with seed i."""
    done = i = 0
    while done < want:
        p = fuzz_program(base + i)
        ri = analyze_program_I(p)
        rep = fuzz_weakmem(p, trials=8, chain=4, seed=i, unroll=2,
                           alarms=frozenset(ri.omega))
        done += rep.effective - rep.inconclusive
        yield base + i, ri.iterations, rep
        i += 1


def main() -> None:
    want = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    base = int(sys.argv[2]) if len(sys.argv) > 2 else 88_000
    t0 = time.monotonic()
    totals = {r.value: Counter() for r in RuleId}
    effective = violations = programs = 0
    digest = hashlib.sha256()
    for seed, _, rep in fuzz_block(want, base):
        digest.update(repr(rep).encode())
        effective += rep.effective - rep.inconclusive
        violations += len(rep.violations)
        programs += 1
        for name, d in rep.per_rule.items():
            totals[name].update(d)
        for v in rep.violations:
            print(f"VIOLATION seed={seed} thread={v.thread}"
                  f" rules={v.rules} missing={v.missing}")
    for name, d in sorted(totals.items()):
        print(f"{name:24s} applied {d['applied']:5d}  skipped {d['skipped']:5d}")
    print(f"{effective} effective trials, {violations} violations,"
          f" {programs} programs")
    print(f"{time.monotonic() - t0:.1f}s", file=sys.stderr)
    ok = violations == 0
    print("negative controls:")
    for c in negative_controls():
        print(f"  {c.name}: {'detected' if c.detected else 'MISSED'}")
        ok = ok and c.detected
    print(f"reports sha256 {digest.hexdigest()}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
