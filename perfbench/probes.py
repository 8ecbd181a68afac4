"""Replay probes for the traced run: per-call timings of layers the
workloads reach only from inside the analyzers, and interpreter start-up.

The scheduled analysis of the first analyze-large programs is replayed
once, untraced; its invariants and interference maps then feed
apply_sched, in_sharp, the transfer functions and the interval operations
in timed loops.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

PROBE_PROGRAMS = 8
MIN_PROBE_S = 0.1
STARTUP_RUNS = 5


def _ns_per_call(fn, cases) -> float:
    if not cases:
        return 0.0
    calls = 0
    t0 = perf_counter_ns()
    while True:
        for c in cases:
            fn(*c)
        calls += len(cases)
        elapsed = perf_counter_ns() - t0
        if elapsed >= MIN_PROBE_S * 1e9:
            return elapsed / calls


def _untraced(fn):
    return getattr(fn, "__wrapped__", fn)


def sched_domain_probes(programs) -> dict:
    """Per-call ns of the scheduled analyzer's inner operations."""
    from racebox import concrete, domains, sched
    from racebox.syntax import Assign, If, Lock, While, sub_stmts

    analyze = _untraced(sched.analyze_program_C)
    apply_cases, assign_cases, guard_cases, insharp_cases = [], [], [], []
    intervals = []
    for p in programs[:PROBE_PROGRAMS]:
        res = analyze(p, mono=True)
        for t in p.threads:
            inv = res.per_thread[t.tid].invariants
            for s in sub_stmts(t.body):
                if isinstance(s, Assign):
                    prims = [(s.sid, s.expr, s.var, None)]
                elif isinstance(s, If):
                    prims = [(g.sid, g.expr, None, g.cmp) for g in
                             (concrete.then_guard(s), concrete.else_guard(s))]
                elif isinstance(s, While):
                    prims = [(g.sid, g.expr, None, g.cmp) for g in
                             (concrete.body_guard(s), concrete.exit_guard(s))]
                elif isinstance(s, Lock):
                    for c, env in inv.get(s.sid, {}).items():
                        insharp_cases.append((t.tid, c.held, c.free, s.mutex,
                                              env, res.interf))
                    continue
                else:
                    continue
                for sid, e, var, cmp in prims:
                    envs = inv.get(sid, {})
                    for c, env in envs.items():
                        apply_cases.append((t.tid, c, envs, res.interf, e))
                        e2 = sched.apply_sched(t.tid, c, envs, res.interf, e)
                        if var is not None:
                            assign_cases.append((var, e2, env, frozenset()))
                        else:
                            guard_cases.append((e2, cmp, env, frozenset()))
                        intervals += [env.get(v) for v in p.variables]
    intervals = [v for v in intervals if not v.is_bot]
    pairs = list(zip(intervals, intervals[1:] + intervals[:1]))
    return {
        "apply_sched": _ns_per_call(sched.apply_sched, apply_cases),
        "in_sharp": _ns_per_call(sched.in_sharp, insharp_cases),
        "transfer_assign": _ns_per_call(domains.transfer_assign, assign_cases),
        "transfer_guard": _ns_per_call(domains.transfer_guard, guard_cases),
        "join": _ns_per_call(lambda a, b: a.join(b), pairs),
        "mul": _ns_per_call(lambda a, b: a.mul(b), pairs),
        "div": _ns_per_call(lambda a, b: a.div(b), pairs),
    }


def startup_probes(env) -> dict:
    """Median wall time of a bare interpreter, and median in-process time
    of `import racebox` in a fresh one, in ms."""
    bare, imports = [], []
    code = ("import time; t = time.perf_counter(); import racebox; "
            "print(time.perf_counter() - t)")
    for _ in range(STARTUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=60)
        bare.append((perf_counter() - t0) * 1e3)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout) * 1e3)
    return {"interpreter_ms": statistics.median(bare),
            "import_ms": statistics.median(imports)}
