"""Spans around calls into racebox's public functions, recorded from the
benchmark's side.

`install` replaces every binding of a boundary function, in every loaded
racebox module, with a wrapper that records one span per call: name,
start, end, parent span and item id, plus a few deterministic counts read
off the call's result.  Spans stay in memory until `write` at the end of
the run.  Recursive calls (such as `concrete.paths` on nested statements)
stay inside their outermost span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns


def _prog_nodes(p) -> int:
    from racebox.syntax import stmt_exprs, sub_exprs, sub_stmts

    return sum(sum(1 for _ in sub_stmts(t.body))
               + sum(1 for e in stmt_exprs(t.body) for _ in sub_exprs(e))
               for t in p.threads)


def _oracle(res, a, k) -> dict:
    return {"states": res.states, "truncated": int(res.truncated)}


def _paths(res, a, k) -> dict:
    return {"count": len(res.paths), "prims": sum(map(len, res.paths))}


def _sched(res, a, k) -> dict:
    return {"rounds": res.iterations, "partitions": res.max_env_partitions,
            "entries": res.interference_entries}


def _fuzz(res, a, k) -> dict:
    return {"applied": sum(d["applied"] for d in res.per_rule.values()),
            "skipped": sum(d["skipped"] for d in res.per_rule.values()),
            "effective": res.effective, "inconclusive": res.inconclusive}


def _sched_name(a, k) -> str:
    mono = k.get("mono", a[2] if len(a) > 2 else True)
    return "sched.mono" if mono else "sched.multi"


# (module, function, span name or name function, result annotation)
BOUNDARIES = [
    ("randgen", "random_program", "randgen", None),
    ("randgen", "random_seq_program", "randgen", None),
    ("parser", "parse_program", "parser",
     lambda res, a, k: {"nodes": _prog_nodes(res)}),
    ("report", "build_report", "report", None),
    ("report", "report_to_json", "report",
     lambda res, a, k: {"bytes": len(res.encode())}),
    ("seq", "analyze_program_seq", "seq", None),
    ("interference", "analyze_program_I", "interference",
     lambda res, a, k: {"rounds": res.iterations}),
    ("sched", "analyze_program_C", _sched_name, _sched),
    ("oracle", "run_interleavings", "oracle.interleave", _oracle),
    ("oracle", "run_scheduled", "oracle.scheduled", _oracle),
    ("concrete", "paths", "concrete.paths", _paths),
    ("transforms", "fuzz_weakmem", "transforms.fuzz", _fuzz),
    ("transforms", "negative_controls", "transforms.negative_controls", None),
    ("transforms", "apply_rule", "transforms.apply_rule", None),
]


class Tracer:
    """In-memory span log.  A span is [name, start_ns, end_ns, parent
    index or -1, item id, counts or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None

    def wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def traced(*a, **k):
            label = name(a, k) if callable(name) else name
            if self.stack and self.spans[self.stack[-1]][0] == label:
                return fn(*a, **k)
            rec = [label, 0, 0, self.stack[-1] if self.stack else -1,
                   self.item, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                res = fn(*a, **k)
            finally:
                rec[2] = perf_counter_ns()
                self.stack.pop()
            if annotate is not None:
                rec[5] = annotate(res, a, k)
            return res

        return traced

    def add(self, spans: list[list], item: str) -> None:
        """Append spans recorded by another process, re-indexing parents."""
        base = len(self.spans)
        for s in spans:
            self.spans.append([s[0], s[1], s[2],
                               s[3] + base if s[3] >= 0 else -1, item, s[5]])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, counts in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "item": item, "counts": counts}) + "\n")


def install(tracer: Tracer) -> None:
    """Route every racebox binding of a boundary function through a span."""
    wrapped = {}
    for mod, fn, name, annotate in BOUNDARIES:
        orig = getattr(importlib.import_module(f"racebox.{mod}"), fn)
        wrapped[id(orig)] = tracer.wrap(orig, name, annotate)
    for modname, mod in list(sys.modules.items()):
        if modname == "racebox" or modname.startswith("racebox."):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    setattr(mod, attr, wrapped[id(val)])


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
