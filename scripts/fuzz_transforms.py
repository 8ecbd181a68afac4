#!/usr/bin/env python3
"""Weak-memory transformation fuzzing over random programs, plus the
negative controls that prove the harness detects broken side conditions.

Usage: fuzz_transforms.py [TRIALS] [BASE_SEED]

stdout ends with one sha256 over the repr of every FuzzReport, in order,
so two checkouts can be compared with `diff`; the run time goes to
stderr.
"""

import hashlib
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from racebox.randgen import GeneratorConfig, random_program
from racebox.transforms import RuleId, fuzz_weakmem, negative_controls


def main() -> None:
    want = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    base = int(sys.argv[2]) if len(sys.argv) > 2 else 88_000
    t0 = time.monotonic()
    totals = {r.value: {"applied": 0, "skipped": 0} for r in RuleId}
    effective = violations = 0
    digest = hashlib.sha256()
    i = 0
    while effective < want:
        rng = random.Random(base + i)
        cfg = GeneratorConfig(max_stmts=rng.choice((4, 6, 8)))
        p = random_program(rng, cfg, sync=rng.random() < 0.3)
        rep = fuzz_weakmem(p, trials=8, chain=4, seed=i, unroll=2)
        digest.update(repr(rep).encode())
        effective += rep.effective - rep.inconclusive
        violations += len(rep.violations)
        for name, d in rep.per_rule.items():
            totals[name]["applied"] += d["applied"]
            totals[name]["skipped"] += d["skipped"]
        for v in rep.violations:
            print(f"VIOLATION seed={base + i} thread={v.thread}"
                  f" rules={v.rules} missing={v.missing}")
        i += 1
    for name in sorted(totals):
        d = totals[name]
        print(f"{name:24s} applied {d['applied']:5d}  skipped {d['skipped']:5d}")
    print(f"{effective} effective trials, {violations} violations,"
          f" {i} programs")
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
