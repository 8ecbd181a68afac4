#!/usr/bin/env python3
"""Digests of analyzer and oracle reports, for checking that a change to
the analyzers or the oracles keeps every report byte for byte.

Usage: report_digests.py OUT.json [N] [BASE_SEED]
       report_digests.py --diff A.json B.json

Writes {program/config: sha256 of report_to_json} as JSON to OUT.json,
over the corpus, the nested loop shapes of SHAPES at depths 1-7, N
(default 300) seeded random multi-thread programs and N // 3 random
single-thread programs, all with loops, in every analyzer configuration
of CONFIGS and every oracle configuration of ORACLE_CONFIGS, and over
the corpus and the nested shapes alone in the fuzzer's configuration
FUZZ.  A program that a configuration rejects digests to the name of the
exception.  To compare two versions, run the script in a checkout of
each and `--diff` the two files: it prints every key whose digest differs
or that one file lacks, and exits 1 if there is any.
"""

import hashlib
import json
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from racebox.randgen import GeneratorConfig, random_program, random_seq_program
from racebox.report import (
    RunConfig,
    UnknownThread,
    analyze_source,
    report_to_json,
)
from racebox.seq import MultiThreadInput
from racebox.syntax import pretty_program

ROOT = pathlib.Path(__file__).resolve().parent.parent

CONFIGS: dict[str, RunConfig] = {
    "seq": RunConfig(mode="seq"),
    "interference": RunConfig(mode="interference"),
    "interference-self": RunConfig(mode="interference",
                                   self_interference=(1,)),
    "scheduled": RunConfig(mode="scheduled"),
    "scheduled-no-mono": RunConfig(mode="scheduled", mono=False),
    "scheduled-decreasing": RunConfig(mode="scheduled", decreasing_pass=True),
    "scheduled-delay0": RunConfig(mode="scheduled", widening_delay=0),
}

# the oracles at unroll 1, where the nested shapes have few paths
ORACLE_CONFIGS: dict[str, RunConfig] = {
    "oracle-interleave": RunConfig(mode="oracle-interleave", unroll=1,
                                   budget_states=20_000),
    "oracle-scheduled": RunConfig(mode="oracle-scheduled", unroll=1,
                                  budget_states=20_000),
    "oracle-interleave-check": RunConfig(
        mode="oracle-interleave", unroll=1, budget_states=20_000,
        check_against="interference"),
    # cut off by the budget on about a fifth of the programs
    "oracle-interleave-200": RunConfig(mode="oracle-interleave", unroll=1,
                                       budget_states=200),
}

# the weak-memory fuzzer (50 trials from seed 0) with its negative
# controls; not over the random programs, to keep the run short
FUZZ = RunConfig(mode="fuzz", unroll=1)

# nested loops: (declarations, a level's opening, the innermost
# statements, a level's closing, the threads after thread 1)
SHAPES: dict[str, tuple[str, str, str, str, str]] = {
    # the `while` shape of test_deep_nesting
    "while": ("var x = [0,1];", "while x - 3 < 0 do { x <- x + 1; ",
              "x <- 1 / x;", " }", ""),
    # every level reachable, with a division by zero at each
    "reach": ("var x = [0,1];", "while x - 3 < 0 do { ", "y <- 1;",
              " x <- [0,5]; x <- 1 / x; }", ""),
    "if-while": ("var x = [0,1];",
                 "if x - 1 < 0 then { while x - 3 < 0 do { x <- x + 1; ",
                 "x <- 1 / x;", " } }", ""),
    "lock": ("var x = [0,1]; mutex m;",
             "while x - 3 < 0 do { lock(m); x <- x + 1; ", "y <- 1 / x;",
             " unlock(m); }",
             " thread 2 { lock(m); x <- [-1,1]; unlock(m); }"),
    "islocked": ("var x = [0,1]; mutex m;",
                 "while x - 3 < 0 do { b <- islocked(m); x <- x + b + 1; ",
                 "y <- 1 / (x - 1);", " }",
                 " thread 2 { lock(m); x <- x - 1; yield; unlock(m); }"),
    "yield": ("var x = [0,1];", "while x - 3 < 0 do { yield; x <- x + 1; ",
              "y <- 1 / (x - 2);", " }", ""),
    "two-threads": ("var x = [0,1];", "while x - 3 < 0 do { x <- x + 1; ",
                    "y <- 1 / (x - 2);", " }",
                    " thread 2 { while x - 9 < 0 do { x <- x + 2; } }"),
}
DEPTHS = range(1, 8)


def nested(shape: str, depth: int) -> str:
    decls, head, core, tail, rest = SHAPES[shape]
    return (f"{decls} thread 1 {{ {head * depth}{core}{tail * depth} }}"
            f"{rest}")


def report_bytes(src: str, cfg: RunConfig) -> bytes:
    try:
        return report_to_json(analyze_source(src, cfg)).encode()
    except (MultiThreadInput, UnknownThread, ValueError) as e:
        # a configuration that rejects the program
        return f"raised {type(e).__name__}\n".encode()


def programs(n: int, base: int) -> dict[str, str]:
    """name -> source of every program the digests cover."""
    out = {f"corpus/{f.stem}": f.read_text()
           for f in sorted((ROOT / "corpus").glob("*.conc"))}
    for shape in SHAPES:
        for d in DEPTHS:
            out[f"nested/{shape}/{d}"] = nested(shape, d)
    loops = GeneratorConfig(loop_prob=0.4, max_branching=3)
    for seed in range(base, base + n):
        out[f"random/{seed}"] = pretty_program(
            random_program(random.Random(seed), loops))
    for seed in range(base, base + n // 3):
        out[f"random-seq/{seed}"] = pretty_program(random_seq_program(
            random.Random(seed), loops, loop_free=False))
    return out


def configs(name: str) -> dict[str, RunConfig]:
    """The configurations in which program `name` is digested."""
    out = {**CONFIGS, **ORACLE_CONFIGS}
    if not name.startswith("random"):
        out["fuzz"] = FUZZ
    return out


def diff(a: str, b: str) -> int:
    """Print every key whose digest differs between the digest files a and
    b, or that only one of them has; 1 if there is any, else 0."""
    left, right = (json.loads(pathlib.Path(f).read_text()) for f in (a, b))
    keys = left.keys() | right.keys()
    moved = sorted(k for k in keys if left.get(k) != right.get(k))
    for k in moved:
        print(k, "differs" if k in left and k in right
              else f"only in {a if k in left else b}")
    print(f"{len(moved)} of {len(keys)} keys differ")
    return 1 if moved else 0


def main() -> None:
    if sys.argv[1:2] == ["--diff"]:
        if len(sys.argv) != 4:
            sys.exit("usage: report_digests.py --diff A.json B.json")
        sys.exit(diff(*sys.argv[2:]))
    out = sys.argv[1]
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    base = int(sys.argv[3]) if len(sys.argv) > 3 else 70_000
    digests = {
        f"{name}/{cname}": hashlib.sha256(report_bytes(src, cfg)).hexdigest()
        for name, src in programs(n, base).items()
        for cname, cfg in configs(name).items()}
    pathlib.Path(out).write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {out}")


if __name__ == "__main__":
    main()
