"""Run orchestration and machine/human report emission.

Reports are byte-deterministic for a given (program, config, seed): sets
are emitted as sorted lists, `report_to_json` alone orders dict keys, and
timing is only populated on request.
"""

from __future__ import annotations

import hashlib
import json
import time

from .config import UNROLL, AnalysisSettings, OracleBudget
from .domains import BOT, BoxEnv, Interval
from .interference import analyze_program_I
from .parser import parse_program
from .sched import analyze_program_C
from .seq import analyze_program_seq
from .syntax import Location, Num, Program, Record, location_thread

# `oracle` and `transforms` are imported by the modes that run them, so an
# analyzer run, such as a cold CLI call, does not load them

ANALYZER_MODES = ("seq", "interference", "scheduled")
CHECK_MODES = ("oracle-interleave", "oracle-scheduled")  # the explorers
MODES = ANALYZER_MODES + CHECK_MODES + ("fuzz",)

SCHEMA_VERSION = 1
TERMINAL_VALUES_SHOWN = 64  # per variable in an oracle report, least first

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "mode", "program_sha256", "config",
                 "alarms", "exit_code"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "mode": {"enum": list(MODES)},
        "program_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "config": {"type": "object"},
        "alarms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "line", "col", "kind"],
                "properties": {
                    "label": {"type": "integer"},
                    "line": {"type": "integer"},
                    "col": {"type": "integer"},
                    "kind": {"enum": ["div-by-zero"]},
                    "context": {"type": "string"},
                },
            },
        },
        "races": {
            "type": "object",
            "properties": {
                "ww": {"type": "array"},
                "rw": {"type": "array"},
            },
        },
        "interferences": {"type": "object"},
        "var_ranges": {"type": "object"},
        "invariants": {"type": "object"},
        "iterations": {"type": ["integer", "null"]},
        "partition_stats": {"type": ["object", "null"]},
        "oracle": {"type": ["object", "null"]},
        "fuzz": {"type": ["object", "null"]},
        "check": {"type": ["object", "null"]},
        "warnings": {"type": "array"},
        "timing_s": {"type": ["number", "null"]},
        "exit_code": {"type": "integer"},
    },
}


class RunConfig(Record):
    mode: str = "scheduled"
    unroll: int = UNROLL
    widening_delay: int = AnalysisSettings.widening_delay
    thresholds: tuple[Num, ...] = AnalysisSettings.thresholds
    mono: bool = True
    self_interference: tuple[int, ...] = ()
    budget_states: int = OracleBudget.max_states
    seed: int = 0
    check_against: str | None = None
    decreasing_pass: bool = AnalysisSettings.decreasing_pass
    timing: bool = False

    def __post_init__(self):
        if self.check_against and self.mode not in CHECK_MODES:
            raise ValueError("--check-against needs --mode "
                             + " or ".join(CHECK_MODES))
        for name, low in (("unroll", 0), ("widening_delay", 0),
                          ("budget_states", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"--{name.replace('_', '-')} must be at"
                                 f" least {low}")

    def settings(self) -> AnalysisSettings:
        return AnalysisSettings(
            thresholds=self.thresholds,
            widening_delay=self.widening_delay,
            decreasing_pass=self.decreasing_pass,
            self_interference=frozenset(self.self_interference),
        )

    def budget(self) -> OracleBudget:
        return OracleBudget(max_states=self.budget_states)

    def echo(self) -> dict:
        """The report's `config`: every field that can change the result."""
        out = {n: getattr(self, n) for n in self._fields if n != "timing"}
        out["thresholds"] = [str(t) for t in self.thresholds]
        return out


class UnknownThread(Exception):
    """The config names a thread the program does not have."""


def _alarm(loc: Location, p: Program) -> dict:
    tid = location_thread(p, loc)
    return {
        "label": loc.label,
        "line": loc.line,
        "col": loc.col,
        "kind": "div-by-zero",
        "context": f"thread {tid}, operator {loc.op!r}" if tid else loc.op,
    }


def _alarms(omega, p: Program) -> list[dict]:
    return [_alarm(l, p)
            for l in sorted(omega, key=lambda l: l.sort_key())]


def _join_env_var(env, var: str) -> Interval:
    if isinstance(env, BoxEnv):
        return env.get(var)
    out = BOT
    for c in env:  # partitioned env
        out = out.join(env[c].get(var))
    return out


def _var_ranges(p: Program, per_thread) -> dict:
    out = {}
    for v in p.variables:
        final = BOT
        hull = BOT
        for tid, res in per_thread.items():
            fv = _join_env_var(res.final, v)
            final = final.join(fv)
            hull = hull.join(fv)
            for sid, env in res.invariants.items():
                hull = hull.join(_join_env_var(env, v))
        out[v] = {"final": str(final), "hull": str(hull)}
    return out


def _invariant_dump(per_thread) -> dict:
    return {f"t{tid}": {str(sid): str(env) if isinstance(env, BoxEnv)
                        else {str(c): str(env[c]) for c in env}
                        for sid, env in res.invariants.items()}
            for tid, res in per_thread.items()}


def _terminal_summary(res) -> dict:
    shown = lambda v: sorted(res.terminal_values(v))[:TERMINAL_VALUES_SHOWN]
    return {v: [str(x) for x in shown(v)] for v in res.vars}


def build_report(p: Program, source: str, cfg: RunConfig) -> dict:
    """Run the requested mode and assemble the report dictionary."""
    unknown = set(cfg.self_interference) - set(p.tids)
    if unknown:
        raise UnknownThread(f"the program has no thread {min(unknown)}")
    t0 = time.monotonic()
    budget = cfg.budget()
    rep: dict = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "program_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "config": cfg.echo(),
        "alarms": [],
        "races": {"ww": [], "rw": []},
        "interferences": {},
        "var_ranges": {},
        "invariants": {},
        "iterations": None,
        "partition_stats": None,
        "oracle": None,
        "fuzz": None,
        "check": None,
        "warnings": [],
        "timing_s": None,
        "exit_code": 0,
    }

    if cfg.mode in ANALYZER_MODES:
        rep.update(_analysis_fields(p, cfg))

    elif cfg.mode in CHECK_MODES:
        from .oracle import inclusion, run_interleavings, run_scheduled

        run = (run_interleavings if cfg.mode == "oracle-interleave"
               else run_scheduled)
        res = run(p, unroll=cfg.unroll, budget=budget)
        rep["alarms"] = _alarms(res.errors, p)
        rep["oracle"] = {
            "states": res.states,
            "truncated": res.truncated,
            "paths_truncated": res.paths_truncated,
            "terminal_env_count": len(res.terminal_envs),
            "terminal_values": _terminal_summary(res),
            "witnesses": {str(l.label): w for l, w in res.witnesses.items()},
        }
        if cfg.check_against:
            inc = inclusion(res, _analyze(p, cfg.check_against, cfg).omega)
            rep["check"] = {
                "against": cfg.check_against,
                "verdict": inc.verdict,
                "missing": sorted(l.label for l in inc.missing),
                "witness": inc.witness,
                "oracle_states": inc.oracle_states,
            }
            rep["exit_code"] = {"PASS": 0, "FAIL": 1}.get(inc.verdict, 3)
        else:  # an error reached is an error, however far the run got
            rep["exit_code"] = 1 if res.errors else 3 if res.truncated else 0

    elif cfg.mode == "fuzz":
        from .transforms import fuzz_weakmem, negative_controls

        # the alarms the trials are judged against
        omega = _analyze(p, "interference", cfg).omega
        rep["alarms"] = _alarms(omega, p)
        fz = fuzz_weakmem(p, seed=cfg.seed, unroll=cfg.unroll,
                          budget=budget, settings=cfg.settings(),
                          alarms=omega)
        # fixed harness programs, not the user's: their own default budget
        controls = negative_controls()
        rep["fuzz"] = {
            "trials": fz.trials,
            "effective": fz.effective,
            "seed": fz.seed,
            "oracle": fz.oracle,
            "per_rule": fz.per_rule,
            "inconclusive": fz.inconclusive,
            "violations": [{
                "thread": v.thread, "rules": v.rules, "missing": v.missing,
                "path_before": v.path_before, "path_after": v.path_after,
            } for v in fz.violations],
            "negative_controls": [{"name": c.name, "detected": c.detected}
                                  for c in controls],
        }
        if fz.violations or not all(c.detected for c in controls):
            rep["exit_code"] = 1
        elif fz.inconclusive:
            rep["exit_code"] = 3

    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    if cfg.mode in ANALYZER_MODES and rep["alarms"]:
        rep["exit_code"] = 1
    if cfg.timing:
        rep["timing_s"] = round(time.monotonic() - t0, 6)
    return rep


def _analysis_fields(p: Program, cfg: RunConfig) -> dict:
    """The report fields an analyzer mode fills in."""
    res = _analyze(p, cfg.mode, cfg)
    out: dict = {"alarms": _alarms(res.omega, p)}
    if cfg.mode == "seq":
        out["var_ranges"] = {v: {"final": str(res.final.get(v)),
                                 "hull": str(res.final.get(v))}
                             for v in p.variables}
        out["invariants"] = _invariant_dump({1: res})
        out["iterations"] = 1
        return out
    out["var_ranges"] = _var_ranges(p, res.per_thread)
    out["invariants"] = _invariant_dump(res.per_thread)
    out["iterations"] = res.iterations
    out["warnings"] = list(res.warnings)
    if cfg.mode == "interference":
        out["interferences"] = {f"t{t}/{x}": str(v)
                                for (t, x), v in res.interf.items()}
        return out
    out["interferences"] = {f"t{t}/{c}/{x}": str(v)
                            for (t, c, x), v in res.interf.items()}
    out["races"] = {
        kind: [{"kind": r.kind, "threads": list(r.threads), "var": r.var,
                "configs": [list(c) for c in r.configs]}
               for r in races]
        for kind, races in (("ww", res.races_ww), ("rw", res.races_rw))}
    out["partition_stats"] = {
        "max_env_partitions": res.max_env_partitions,
        "interference_entries": res.interference_entries,
        "idempotent": True,  # else outer_fixpoint raised AnalysisDiverged
    }
    return out


def _analyze(p: Program, mode: str, cfg: RunConfig):
    settings = cfg.settings()
    if mode == "seq":
        return analyze_program_seq(p, settings)
    if mode == "interference":
        return analyze_program_I(p, settings)
    if mode == "scheduled":
        return analyze_program_C(p, settings, mono=cfg.mono)
    raise ValueError(f"--check-against expects one of {ANALYZER_MODES}")


def report_to_json(rep: dict) -> str:
    return json.dumps(rep, sort_keys=True, indent=2) + "\n"


def analyze_source(source: str, cfg: RunConfig) -> dict:
    p = parse_program(source)
    return build_report(p, source, cfg)

