"""One workload in one fresh, single-threaded process (started by run.py).

Prints READY, with the kernel times of its set-up (see pace.py), once
racebox is imported and the inputs exist.  Then one
checked pass runs every item of the block in an order drawn from the
seed.  Untraced, the items that took under LIGHT_S then run again for
about --seconds in all, each 1 to MAX_REPEATS more times (repeat_plan),
in rounds with a new order each.  Every repeat must give the first
pass's output.  An item's time is the median over its runs of
the run's wall time scaled to the reference speed (see pace.py).
Traced, one second pass runs every item with spans on, and its outputs
are checked too.  One JSON line reports timings, counters, checks and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from pace import Pace  # noqa: E402

SETUP_PACE = Pace()  # kernel runs during set-up, scaling setup_s
SETUP_PACE.sample()

import racebox  # noqa: E402,F401  (every racebox module, before tracing)
import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import (PER_LAYER, end_to_end, items_per_s,  # noqa: E402
                     per_layer, tail)

SETUP_PACE.sample()

LIGHT_S = 2.0
MAX_REPEATS = 25


def run_items(wl, items, order, ctx, tag,
              pace=None) -> tuple[dict, dict, list]:
    """Run the items in `order` once; returns (outputs, timings, errors).
    A timing is (start, end, seconds), the seconds without the time the
    pace sampler took inside the item."""
    outs, runs, errors = {}, {}, []
    for i in order:
        if ctx.tracer:
            ctx.tracer.item = f"{tag}:{i}"
        if pace:
            pace.sample()
        spent = pace.spent if pace else 0.0
        t0 = perf_counter()
        try:
            outs[i] = wl.item(items[i], ctx)
        except Exception:
            errors.append(f"item {i}: {traceback.format_exc(limit=3)}")
            continue
        t1 = perf_counter()
        runs[i] = (t0, t1, t1 - t0 - ((pace.spent - spent) if pace else 0.0))
    if pace:
        pace.sample()
    return outs, runs, errors


def seconds(runs: dict) -> dict:
    return {i: r[2] for i, r in runs.items()}


def repeat_plan(secs: dict, budget_s: float) -> dict:
    """How many more runs each item under LIGHT_S gets: enough that each
    has about the same run time, budget_s in all, and 1 to MAX_REPEATS.
    Cheap items, whose single runs the host's state swings most, get the
    most runs."""
    light = {i: s for i, s in secs.items() if s < LIGHT_S}

    def plan(quota):
        return {i: min(MAX_REPEATS, max(1, round(quota / s)))
                for i, s in light.items()}

    lo, hi = 0.0, budget_s
    for _ in range(40):
        mid = (lo + hi) / 2
        cost = sum(k * light[i] for i, k in plan(mid).items())
        lo, hi = (mid, hi) if cost <= budget_s else (lo, mid)
    return plan(lo)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ctx = workloads.Context(ROOT, out_dir)
    wl = workloads.WORKLOADS[args.workload]
    items = wl.inputs(args.size, ROOT)
    rng = random.Random(args.seed)
    SETUP_PACE.sample()
    print("READY", json.dumps(SETUP_PACE.secs), flush=True)
    if args.setup_only:
        return 0

    def shuffled(idx):
        idx = list(idx)
        rng.shuffle(idx)
        return idx

    def checked_pass(tag):
        outs, secs, errs = run_items(wl, items, shuffled(range(len(items))),
                                     ctx, tag, pace)
        epilogue = None
        if wl.epilogue:
            if ctx.tracer:
                ctx.tracer.item = f"{tag}:epilogue"
            epilogue = wl.epilogue(ctx)
        check = wl.check(items, [outs.get(i) for i in range(len(items))],
                         epilogue, args.size)
        return outs, secs, errs, check

    # untraced runs sample the host's speed throughout (pace.py)
    pace = ctx.pace = None if args.trace else Pace()
    if pace and wl.in_process:
        pace.start()
    t_start = perf_counter()
    outs, first_runs, errors, first = checked_pass(0)
    secs = seconds(first_runs)
    times = {i: [r] for i, r in first_runs.items()}
    problems = list(first.problems)
    runs = len(items)
    hard = sum(first.hard)
    if args.trace:
        ctx.tracer = tracing.Tracer()
        tracing.install(ctx.tracer)
        ctx.tracer.item = "setup"
        wl.inputs(args.size, ROOT)  # replayed once, for randgen.ms
        _, traced_runs, errs, second = checked_pass(1)
        ctx.tracer.item = None
        errors += errs
        problems += [p for p in second.problems if p not in problems]
        if second.counters != first.counters:
            problems.append("counters differ between the untraced and the"
                            " traced pass")
        runs += len(items)
        hard += sum(second.hard)
    else:
        plan = repeat_plan(secs, args.seconds)
        for r in range(1, max(plan.values(), default=0) + 1):
            due = [i for i, k in plan.items() if k >= r]
            again, again_runs, errs = run_items(wl, items, shuffled(due),
                                                ctx, r, pace)
            errors += errs
            differ = [i for i, out in again.items() if out != outs[i]]
            problems += [f"item {i}: output differs between runs"
                         for i in differ]
            for i, run in again_runs.items():
                times[i].append(run)
            runs += len(due)
            hard += len(due) - len(again) + len(differ)
    phase_s = perf_counter() - t_start
    if pace:
        pace.stop()
    problems = errors + list(dict.fromkeys(problems))

    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    wall = [statistics.median(r[2] for r in rs) * 1e3
            for rs in times.values()]
    scaled = ([statistics.median(r[2] * pace.scale(r[0], r[1]) for r in rs)
               * 1e3 for rs in times.values()] if pace else wall)
    block_failed = sum(h or s for h, s in zip(first.hard, first.soft))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "items_per_pass": len(items),
        "runs": runs,
        "runs_per_item": sorted({len(ts) for ts in times.values()}),
        "failed_hard": hard,
        "failed_ratio": block_failed / len(items),
        "phase_s": phase_s,
        "tail": dict(zip(("value_ms", "percentile", "samples"), tail(scaled))),
        "counters": first.counters,
        "checks": first.checks,
        "metrics": end_to_end(scaled, len(items), block_failed, rss_mb),
        "wall_metrics": end_to_end(wall, len(items), block_failed, rss_mb),
        "pace": pace.summary() if pace else None,
    }
    counters = first.counters
    if args.trace:
        import probes

        sched_probes = {}
        if args.workload == "analyze-large":
            sched_probes = probes.sched_domain_probes(
                [it[3] for it in items if it[1] == "scheduled"])
        startup = probes.startup_probes(workloads.child_env(ROOT))
        layers = per_layer(ctx.tracer.spans, sched_probes, startup)
        layers["trace.overhead.items_per_s"] = (
            items_per_s([s * 1e3 for s in seconds(traced_runs).values()])
            - items_per_s([s * 1e3 for s in secs.values()]))
        result["layers"] = layers
        ctx.tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        counters = dict(counters, layers={k: v for k, v in layers.items()
                                          if PER_LAYER[k] in ("count", "bytes")})
    if pace:
        (out_dir / f"timings-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"runs": times, "pace": [pace.at, pace.secs]}))
    problems += _check_determinism(out_dir, args, counters)
    result["problems"] = problems[:20]
    result["correct"] = not problems and hard == 0
    print(json.dumps(result, default=str), flush=True)
    return 0


def _code_id() -> str:
    """Digest of the racebox and benchmark sources, so that recorded
    counters are only compared with runs of the same code."""
    h = hashlib.sha256()
    for f in sorted([*(ROOT / "src" / "racebox").rglob("*.py"),
                     *HERE.glob("*.py")]):
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


def _check_determinism(out_dir: Path, args, counters: dict) -> list[str]:
    """Counters of one workload, size and trace mode must match across
    processes running the same code; the first run records them."""
    path = out_dir / (f"counters-{args.workload}-{args.size}-{args.trace}"
                      f"-{_code_id()}.json")
    current = json.loads(json.dumps(counters, default=str))
    if path.exists():
        if json.loads(path.read_text()) != current:
            return [f"counters differ from an earlier run ({path.name}):"
                    " a determinism bug"]
    else:
        path.write_text(json.dumps(current, sort_keys=True))
    return []


if __name__ == "__main__":
    sys.exit(main())
