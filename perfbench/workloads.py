"""The four workloads: how each one builds its inputs, runs one item, and
checks a pass of outputs with code of its own.

Every workload draws its programs from a fixed, contiguous block of
generator seeds, and the benchmark seed only sets the order in which the
items run.  Item costs are heavy-tailed (one program of a 100-program
sweep block takes 22 of its 25 s), so a block chosen by the benchmark
seed would swing items_per_s by far more than any bound; with a fixed
block every seed measures the same mix and the output checks can compare
against references recorded once.

Failures come in two kinds.  A hard failure (an exception, a failed output
check, an unexpected exit code) makes the run incorrect.  A soft failure
(a truncated oracle comparison, an inconclusive fuzz trial) is a budget
verdict the program reports itself; it only counts in failed_ratio.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import racebox.randgen as randgen
import racebox.report as report
import racebox.transforms as transforms
from racebox import interference, oracle, sched
from racebox.config import AnalysisSettings, OracleBudget
from racebox.syntax import pretty_program

HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    root: Path  # checkout holding src/ and corpus/
    out: Path  # directory for run outputs
    tracer: object = None  # set for traced passes
    pace: object = None  # set for untraced runs (see pace.py)


@dataclass
class PassSummary:
    counters: dict
    checks: dict
    hard: list[bool]  # per item, in canonical order
    soft: list[bool]
    problems: list[str] = field(default_factory=list)


def _digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(hashlib.sha256(t.encode()).digest())
    return h.hexdigest()


def _reference(workload: str, size: str):
    refs = json.loads((HERE / "reference.json").read_text())
    return refs.get(workload, {}).get(size)


# ---------------------------------------------------------------------------
# sweep: the differential soundness sweep (Tier-1 criterion 6)

# 31200-31299 holds 31238, whose interleaving oracle stops at the 1M-state
# budget: the truncation share stays visible in failed_ratio.
SWEEP_BASE = 31_200
SWEEP_SIZES = {"full": 100, "smoke": 10}


def sweep_inputs(size: str) -> list:
    items = []
    for seed in range(SWEEP_BASE, SWEEP_BASE + SWEEP_SIZES[size]):
        rng = random.Random(seed)
        cfg = randgen.GeneratorConfig(max_stmts=rng.choice((4, 6, 8, 12)))
        items.append((seed, randgen.random_program(rng, cfg)))
    return items


def sweep_item(item, ctx: Context) -> dict:
    _, p = item
    budget = OracleBudget()
    ri = interference.analyze_program_I(p)
    rt = sched.analyze_program_C(p, mono=True)
    rf = sched.analyze_program_C(p, mono=False)
    oi = oracle.run_interleavings(p, unroll=3, budget=budget,
                                  collect_witnesses=False)
    os_ = oracle.run_scheduled(p, unroll=3, budget=budget,
                               collect_witnesses=False)
    return {
        "pairs": [("interleave/interference", oi.truncated, oi.errors, ri.omega),
                  ("interleave/scheduled-multi", oi.truncated, oi.errors,
                   rf.omega),
                  ("scheduled/scheduled-mono", os_.truncated, os_.errors,
                   rt.omega)],
        "states": (oi.states, os_.states),
        "rounds": ri.iterations + rt.iterations + rf.iterations,
        "partitions": rt.max_env_partitions + rf.max_env_partitions,
        "entries": rt.interference_entries + rf.interference_entries,
    }


def sweep_check(items, outs, epilogue, size) -> PassSummary:
    checked = {"interleave/interference": 0, "interleave/scheduled-multi": 0,
               "scheduled/scheduled-mono": 0}
    s = PassSummary({}, {}, [], [])
    truncated = 0
    for (seed, _), out in zip(items, outs):
        if out is None:
            s.hard.append(True)
            s.soft.append(False)
            continue
        bad = trunc = False
        for name, was_truncated, errors, alarms in out["pairs"]:
            if was_truncated:
                trunc = True
                truncated += 1
                continue
            checked[name] += 1
            if not errors <= alarms:
                bad = True
                s.problems.append(f"inclusion violation: seed {seed} {name}")
        s.hard.append(bad)
        s.soft.append(trunc)
    done = [o for o in outs if o is not None]
    s.counters = {
        "states.interleave": sum(o["states"][0] for o in done),
        "states.scheduled": sum(o["states"][1] for o in done),
        "rounds": sum(o["rounds"] for o in done),
        "partitions": sum(o["partitions"] for o in done),
        "interference_entries": sum(o["entries"] for o in done),
        "checked": checked,
        "truncated_comparisons": truncated,
    }
    s.checks = {"inclusion_violations": len(s.problems), "checked": checked}
    return s


# ---------------------------------------------------------------------------
# analyze-large: analyzer verdicts on larger programs, no oracle

LARGE_BASE = 0
LARGE_SIZES = {"full": 16, "smoke": 3}
LARGE_CFG = dict(max_threads=4, n_vars=12, n_mutexes=4, sync_prob=0.35,
                 max_branching=4)
LARGE_MODES = {
    "interference": report.RunConfig(mode="interference"),
    "scheduled": report.RunConfig(mode="scheduled"),
    "scheduled-no-mono": report.RunConfig(mode="scheduled", mono=False),
    "seq": report.RunConfig(mode="seq"),
}


def large_inputs(size: str) -> list:
    items = []
    for i in range(LARGE_BASE, LARGE_BASE + LARGE_SIZES[size]):
        rng = random.Random(i)
        cfg = randgen.GeneratorConfig(max_stmts=rng.choice((12, 24, 48, 96)),
                                      **LARGE_CFG)
        p = randgen.random_program(rng, cfg)
        sp = randgen.random_seq_program(rng, cfg, loop_free=False)
        for mode in ("interference", "scheduled", "scheduled-no-mono"):
            items.append((i, mode, pretty_program(p), p))
        items.append((i, "seq", pretty_program(sp), sp))
    return items


def large_item(item, ctx: Context) -> str:
    _, mode, src, _ = item
    return report.report_to_json(report.analyze_source(src, LARGE_MODES[mode]))


def large_check(items, outs, epilogue, size) -> PassSummary:
    import jsonschema

    validator = jsonschema.Draft7Validator(report.REPORT_SCHEMA)
    s = PassSummary({}, {}, [], [False] * len(items))
    rounds = partitions = entries = alarms = 0
    for (i, mode, _, _), text in zip(items, outs):
        if text is None:
            s.hard.append(True)
            continue
        rep = json.loads(text)
        stats = rep["partition_stats"] or {}
        found = [f"schema: {e.message}" for e in validator.iter_errors(rep)]
        if mode.startswith("scheduled") and stats.get("idempotent") is not True:
            found.append("not idempotent")
        if rep["exit_code"] != (1 if rep["alarms"] else 0):
            found.append(f"exit code {rep['exit_code']}")
        s.problems += [f"program {i} {mode}: {f}" for f in found]
        s.hard.append(bool(found))
        rounds += rep["iterations"] or 0
        partitions += stats.get("max_env_partitions", 0)
        entries += stats.get("interference_entries", 0)
        alarms += len(rep["alarms"])
    digest = _digest(t or "" for t in outs)
    ref = _reference("analyze-large", size)
    if digest != ref:
        s.problems.append(f"report digest {digest} differs from reference {ref}")
    s.counters = {"digest": digest, "bytes": sum(len(t or "") for t in outs),
                  "rounds": rounds, "partitions": partitions,
                  "interference_entries": entries, "alarms": alarms}
    s.checks = {"digest_matches_reference": digest == ref,
                "problems": len(s.problems)}
    return s


# ---------------------------------------------------------------------------
# fuzz: weak-memory transformation fuzzer (Tier-1 criterion 8)

# the criterion-8 block: programs 88000.. until 200 effective trials
FUZZ_BASE = 88_000
FUZZ_SIZES = {"full": 28, "smoke": 3}


def fuzz_inputs(size: str) -> list:
    items = []
    for i in range(FUZZ_SIZES[size]):
        rng = random.Random(FUZZ_BASE + i)
        cfg = randgen.GeneratorConfig(max_stmts=rng.choice((4, 6, 8)))
        items.append((i, randgen.random_program(rng, cfg,
                                                sync=rng.random() < 0.3)))
    return items


def fuzz_item(item, ctx: Context) -> dict:
    i, p = item
    rep = transforms.fuzz_weakmem(p, trials=8, chain=4, seed=i, unroll=2,
                                  settings=AnalysisSettings())
    return {"effective": rep.effective, "inconclusive": rep.inconclusive,
            "violations": len(rep.violations),
            "applied": sum(d["applied"] for d in rep.per_rule.values()),
            "skipped": sum(d["skipped"] for d in rep.per_rule.values())}


def fuzz_epilogue(ctx: Context) -> list:
    return [(c.name, c.detected) for c in transforms.negative_controls()]


def fuzz_check(items, outs, epilogue, size) -> PassSummary:
    s = PassSummary({}, {}, [], [])
    for (i, _), out in zip(items, outs):
        s.hard.append(out is None or out["violations"] > 0)
        s.soft.append(out is not None and out["inconclusive"] > 0)
        if out is not None and out["violations"]:
            s.problems.append(f"fuzz violation: program {FUZZ_BASE + i}")
    missed = [name for name, detected in epilogue if not detected]
    s.problems += [f"negative control missed: {m}" for m in missed]
    done = [o for o in outs if o is not None]
    s.counters = {k: sum(o[k] for o in done)
                  for k in ("effective", "inconclusive", "violations",
                            "applied", "skipped")}
    s.counters["controls_detected"] = len(epilogue) - len(missed)
    s.checks = {"violations": s.counters["violations"],
                "controls": len(epilogue), "controls_missed": missed}
    return s


# ---------------------------------------------------------------------------
# cli-cold: each corpus program through the analyze CLI, fresh interpreter

# the settings scripts/regen_fixtures.py uses for each fixture
CLI_ARGS = {
    "dekker": ["--mode", "interference"],
    "increment": ["--mode", "interference"],
    "priority_flow": ["--mode", "scheduled"],
    "priority_mutex": ["--mode", "scheduled"],
    "producer_consumer": ["--mode", "scheduled",
                          "--thresholds", "-10000,-1,0,1,10,10000"],
}


def cli_inputs(size: str, root: Path) -> list:
    items = []
    for name, args in CLI_ARGS.items():
        expected = (root / "corpus" / f"{name}.expected.json").read_bytes()
        items.append((name, [str(root / "corpus" / f"{name}.conc"), *args,
                             "--json"],
                      expected, json.loads(expected)["exit_code"]))
    return items


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def cli_item(item, ctx: Context) -> tuple:
    name, args, _, _ = item
    env = child_env(ctx.root)
    if ctx.tracer:
        spans = ctx.out / f"cli-spans-{os.getpid()}.json"
        env["PERFBENCH_SPANS"] = str(spans)
        cmd = [sys.executable, str(HERE / "traced_cli.py"), *args]
    elif ctx.pace:
        kernel = ctx.out / f"cli-pace-{os.getpid()}.json"
        env["PERFBENCH_PACE"] = str(kernel)
        cmd = [sys.executable, str(HERE / "paced_cli.py"), *args]
    else:
        cmd = [sys.executable, "-m", "racebox.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    if ctx.tracer:
        ctx.tracer.add(json.loads(spans.read_text()), ctx.tracer.item)
        spans.unlink()
    elif ctx.pace:
        ctx.pace.add(*json.loads(kernel.read_text()))
        kernel.unlink()
    return proc.stdout, proc.returncode


def cli_check(items, outs, epilogue, size) -> PassSummary:
    s = PassSummary({}, {}, [], [False] * len(items))
    for (name, _, expected, code), out in zip(items, outs):
        ok = out is not None and out[0] == expected and out[1] == code
        if not ok:
            s.problems.append(f"cli output or exit code differs from fixture: {name}")
        s.hard.append(not ok)
    s.counters = {"bytes": sum(len(o[0]) for o in outs if o is not None),
                  "exit_codes": [o[1] if o else None for o in outs]}
    s.checks = {"byte_identical": len(items) - len(s.problems),
                "files": len(items)}
    return s


@dataclass(frozen=True)
class Workload:
    inputs: object
    item: object
    check: object
    epilogue: object = None
    in_process: bool = True  # False: the work runs in child processes


WORKLOADS = {
    "sweep": Workload(lambda size, root: sweep_inputs(size), sweep_item,
                      sweep_check),
    "analyze-large": Workload(lambda size, root: large_inputs(size),
                              large_item, large_check),
    "fuzz": Workload(lambda size, root: fuzz_inputs(size), fuzz_item,
                     fuzz_check, fuzz_epilogue),
    "cli-cold": Workload(cli_inputs, cli_item, cli_check, in_process=False),
}
