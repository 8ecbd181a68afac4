"""Run orchestration and machine/human report emission.

Reports are byte-deterministic for a given (program, config, seed): sets
are emitted as sorted lists, `report_to_json` alone orders dict keys, and
timing is only populated on request.
"""

from __future__ import annotations

import hashlib
import json
import time
from json.encoder import encode_basestring_ascii as _escape

from .config import UNROLL, AnalysisSettings, OracleBudget
from .domains import BOT, BoxEnv, Interval
from .interference import analyze_program_I
from .parser import parse_program
from .sched import SchedConfig, analyze_program_C, unpartitioned
from .seq import analyze_program_seq
from .syntax import (
    BinOp,
    Location,
    Neg,
    Num,
    Program,
    Record,
    stmt_exprs,
    sub_exprs,
)

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
        if self.mode not in MODES:
            raise ValueError("--mode must be one of " + ", ".join(MODES))
        if self.check_against and self.check_against not in ANALYZER_MODES:
            raise ValueError("--check-against must be one of "
                             + ", ".join(ANALYZER_MODES))
        if self.check_against and self.mode not in CHECK_MODES:
            raise ValueError("--check-against needs --mode "
                             + " or ".join(CHECK_MODES))
        # fuzz judges its trials by the interference analyzer's alarms
        if self.self_interference and not (
                self.mode in ("interference", "fuzz")
                or self.check_against == "interference"):
            raise ValueError("argument --self-interference: only the"
                             " interference analyzer reads it")
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


def _alarms(omega, p: Program) -> list[dict]:
    if not omega:
        return []
    thread_of: dict[int, int] = {}  # label -> the first thread that has it
    for t in p.threads:
        for e in stmt_exprs(t.body):
            for x in sub_exprs(e):
                if x.__class__ is BinOp or x.__class__ is Neg:
                    thread_of.setdefault(x.loc.label, t.tid)
    out = []
    for loc in sorted(omega, key=Location.sort_key):
        tid = thread_of.get(loc.label)
        out.append({
            "label": loc.label,
            "line": loc.line,
            "col": loc.col,
            "kind": "div-by-zero",
            "context": f"thread {tid}, operator {loc.op!r}" if tid else loc.op,
        })
    return out


class _Text:
    """The strings of one report: each distinct interval, configuration
    and environment is formatted once."""

    def __init__(self):
        self.memo: dict = {}  # interval or configuration -> its str
        self.envs: dict[tuple, str] = {}  # environment items -> its str

    def __call__(self, x: Interval | SchedConfig) -> str:
        s = self.memo.get(x)
        if s is None:
            s = self.memo[x] = str(x)
        return s

    def env(self, env: BoxEnv) -> str:
        m = env._m
        if m is None:
            return "⊥"
        key = tuple(m.items())
        s = self.envs.get(key)
        if s is None:
            s = self.envs[key] = env.show(self)
        return s


def _hull(envs, variables: tuple[str, ...]) -> dict[str, Interval]:
    """Per variable, the join of its distinct values in envs."""
    maps = [m for m in {id(env): env._m for env in envs}.values()
            if m is not None]
    out = {}
    for v in variables:
        hull = BOT
        for iv in {m[v] for m in maps}:
            hull = hull.join(iv)
        out[v] = hull
    return out


def _var_ranges(p: Program, per_thread, hull_of_invariants: bool,
                text: _Text) -> dict:
    finals = [env for res in per_thread.values() for env in res.final.values()]
    reached = finals + [
        env for res in per_thread.values() if hull_of_invariants
        for envs in res.invariants.values() for env in envs.values()]
    final, hull = _hull(finals, p.variables), _hull(reached, p.variables)
    return {v: {"final": text(final[v]), "hull": text(hull[v])}
            for v in p.variables}


def _invariant_dump(per_thread, blind: bool, text: _Text) -> dict:
    """A blind mode's environments are in C0 alone and print as one."""
    env = text.env
    show = ((lambda envs: env(unpartitioned(envs))) if blind else
            (lambda envs: {text(c): env(e) for c, e in envs.items()}))
    return {f"t{tid}": {str(sid): show(envs)
                        for sid, envs in res.invariants.items()}
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

    else:  # fuzz
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

    if cfg.mode in ANALYZER_MODES and rep["alarms"]:
        rep["exit_code"] = 1
    if cfg.timing:
        rep["timing_s"] = round(time.monotonic() - t0, 6)
    return rep


def _analysis_fields(p: Program, cfg: RunConfig) -> dict:
    """The report fields an analyzer mode fills in."""
    res = _analyze(p, cfg.mode, cfg)
    blind = cfg.mode != "scheduled"
    text = _Text()
    out: dict = {
        "alarms": _alarms(res.omega, p),
        # seq reports its final range as its hull
        "var_ranges": _var_ranges(p, res.per_thread, cfg.mode != "seq",
                                  text),
        "invariants": _invariant_dump(res.per_thread, blind, text),
        "iterations": res.iterations,
        "warnings": list(res.warnings),
    }
    if blind:  # every interference is in C0
        out["interferences"] = {f"t{t}/{x}": text(v)
                                for (t, _, x), v in res.interf.items()}
        return out
    out["interferences"] = {f"t{t}/{text(c)}/{x}": text(v)
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
    return analyze_program_C(p, settings, mono=cfg.mono)


def report_to_json(rep: dict) -> str:
    """json.dumps(rep, sort_keys=True, indent=2) and a newline, written
    here: with an indent the stdlib runs its pure-Python encoder, which
    builds a closure cycle on every call."""
    out: list[str] = []
    _write(rep, "\n", out)
    return "".join(out) + "\n"


def _write(v, nl: str, out: list[str]) -> None:
    """Append v as JSON whose lines after the first begin with nl; a
    scalar or an empty container as json.dumps(v) writes it."""
    if v.__class__ is str:
        out.append(_escape(v))
    elif v.__class__ is int:
        out.append(int.__repr__(v))
    elif isinstance(v, dict) and v:
        inner = nl + "  "
        sep = "{" + inner
        for k, x in sorted(v.items()):
            # an int, float, bool or None key as json converts it
            out.append(sep + _escape(k if isinstance(k, str)
                                     else json.dumps(k)) + ": ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, (list, tuple)) and v:
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(v))


def analyze_source(source: str, cfg: RunConfig) -> dict:
    p = parse_program(source)
    return build_report(p, source, cfg)

