"""Metric names, units, and how each is computed from item timings and
from the traced run's spans.

Per-layer figures cover one traced pass over the workload's item block.
`.ms` is self time: the span minus the time of racebox spans nested
inside it.  A layer a workload does not reach reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_times

END_TO_END = {
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "oracle.interleave.ms": "ms",
    "oracle.interleave.states": "count",
    "oracle.interleave.us_per_state": "us",
    "oracle.interleave.truncated": "count",
    "oracle.scheduled.ms": "ms",
    "oracle.scheduled.states": "count",
    "oracle.scheduled.us_per_state": "us",
    "oracle.explorations": "count",
    "concrete.paths.ms": "ms",
    "concrete.paths.count": "count",
    "concrete.paths.prims": "count",
    "sched.mono.ms": "ms",
    "sched.multi.ms": "ms",
    "sched.rounds": "count",
    "sched.max_partitions": "count",
    "sched.interference_entries": "count",
    "sched.apply_sched.us_per_call": "us",
    "sched.in_sharp.us_per_call": "us",
    "interference.ms": "ms",
    "interference.calls": "count",
    "interference.rounds": "count",
    "seq.ms": "ms",
    "seq.calls": "count",
    "domains.join.ns_per_call": "ns",
    "domains.mul.ns_per_call": "ns",
    "domains.div.ns_per_call": "ns",
    "domains.transfer_assign.us_per_call": "us",
    "domains.transfer_guard.us_per_call": "us",
    "parser.ms": "ms",
    "parser.nodes_per_s": "1/s",
    "report.ms": "ms",
    "report.bytes": "bytes",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "transforms.fuzz.ms": "ms",
    "transforms.applied": "count",
    "transforms.skipped": "count",
    "transforms.effective": "count",
    "transforms.inconclusive": "count",
    "transforms.apply_rule.us_per_call": "us",
    "transforms.negative_controls.ms": "ms",
    "randgen.ms": "ms",
    "trace.overhead.items_per_s": "1/s",
    "trace.spans": "count",
}


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that still
    has at least ten samples above it; the maximum below eleven samples."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], round(100.0 * (n - 10) / n, 2), n


def items_per_s(best_ms: list[float]) -> float:
    return len(best_ms) / (sum(best_ms) / 1e3)


def end_to_end(best_ms: list[float], items: int, failed: int,
               rss_mb: float) -> dict:
    """End-to-end metrics from each item's fastest run (see README);
    ok_ratio is over the block's first pass."""
    return {
        "items_per_s": items_per_s(best_ms),
        "item_ms.p50": statistics.median(best_ms),
        "item_ms.tail": tail(best_ms)[0],
        "ok_ratio": 1.0 - failed / items,
        "peak_rss_mb": rss_mb,
    }


def per_layer(spans: list[list], probes: dict, startup: dict) -> dict:
    """Layer metrics from the spans of one traced pass over the block."""
    agg: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for s, own in zip(spans, self_times(spans)):
        a = agg[s[0] if s[4] != "setup" else "setup." + s[0]]
        a["n"] += 1
        a["self"] += own
        a["incl"] += s[2] - s[1]
        for k, v in (s[5] or {}).items():
            a[k] = max(a[k], v) if k == "partitions" else a[k] + v

    def ms(name):
        return agg[name]["self"] / 1e6

    def per(name, key):
        return agg[name][key]

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    sched_ = [agg["sched.mono"], agg["sched.multi"]]
    out = {
        "oracle.explorations": per("oracle.interleave", "n")
        + per("oracle.scheduled", "n"),
        "concrete.paths.ms": ms("concrete.paths"),
        "concrete.paths.count": per("concrete.paths", "count"),
        "concrete.paths.prims": per("concrete.paths", "prims"),
        "sched.mono.ms": ms("sched.mono"),
        "sched.multi.ms": ms("sched.multi"),
        "sched.rounds": sum(a["rounds"] for a in sched_),
        "sched.max_partitions": max(a["partitions"] for a in sched_),
        "sched.interference_entries": sum(a["entries"] for a in sched_),
        "sched.apply_sched.us_per_call": probes.get("apply_sched", 0.0) / 1e3,
        "sched.in_sharp.us_per_call": probes.get("in_sharp", 0.0) / 1e3,
        "interference.ms": ms("interference"),
        "interference.calls": per("interference", "n"),
        "interference.rounds": per("interference", "rounds"),
        "seq.ms": ms("seq"),
        "seq.calls": per("seq", "n"),
        "domains.join.ns_per_call": probes.get("join", 0.0),
        "domains.mul.ns_per_call": probes.get("mul", 0.0),
        "domains.div.ns_per_call": probes.get("div", 0.0),
        "domains.transfer_assign.us_per_call":
            probes.get("transfer_assign", 0.0) / 1e3,
        "domains.transfer_guard.us_per_call":
            probes.get("transfer_guard", 0.0) / 1e3,
        "parser.ms": ms("parser"),
        "parser.nodes_per_s": ratio(agg["parser"]["nodes"],
                                    agg["parser"]["incl"], 1e9),
        "report.ms": ms("report"),
        "report.bytes": per("report", "bytes"),
        "cli.interpreter_ms": startup["interpreter_ms"],
        "cli.import_ms": startup["import_ms"],
        "transforms.fuzz.ms": ms("transforms.fuzz"),
        "transforms.applied": per("transforms.fuzz", "applied"),
        "transforms.skipped": per("transforms.fuzz", "skipped"),
        "transforms.effective": per("transforms.fuzz", "effective"),
        "transforms.inconclusive": per("transforms.fuzz", "inconclusive"),
        "transforms.apply_rule.us_per_call": ratio(
            agg["transforms.apply_rule"]["incl"],
            agg["transforms.apply_rule"]["n"], 1e-3),
        "transforms.negative_controls.ms": ms("transforms.negative_controls"),
        "randgen.ms": agg["setup.randgen"]["incl"] / 1e6,
        "trace.spans": sum(a["n"] for k, a in agg.items()
                           if not k.startswith("setup.")),
    }
    for kind in ("interleave", "scheduled"):
        name = f"oracle.{kind}"
        out[f"{name}.ms"] = ms(name)
        out[f"{name}.states"] = per(name, "states")
        out[f"{name}.us_per_state"] = ratio(agg[name]["self"],
                                            agg[name]["states"], 1e-3)
    out["oracle.interleave.truncated"] = per("oracle.interleave", "truncated")
    return out
