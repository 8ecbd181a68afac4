"""Command-line entry point.

Exit codes: 0 analyzed with no alarms (or PASS), 1 alarms or violations
found (or FAIL), 2 usage/parse error, 3 internal or budget failure.
Set THESEE_MINI_COLOR=0|1 to force colored human output off or on; by
default only output to a terminal is colored.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .config import LimitReached
from .parser import ParseError, parse_program
from .report import (
    ANALYZER_MODES,
    MODES,
    RunConfig,
    UnknownThread,
    build_report,
    report_to_json,
)
from .seq import outside_fragment
from .syntax import Num, num


def _color_enabled(out: str | None) -> bool:
    env = os.environ.get("THESEE_MINI_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return out is None and sys.stdout.isatty()


def _human(rep: dict, color: bool) -> str:
    def _c(text: str, code: str) -> str:
        return f"\033[{code}m{text}\033[0m" if color else text

    lines = [f"mode: {rep['mode']}"]
    if rep["iterations"] is not None:
        lines.append(f"interference iterations: {rep['iterations']}")
    if rep["alarms"]:
        head = _c(f"{len(rep['alarms'])} alarm(s)", "31")
        lines.append(head)
        for a in rep["alarms"]:
            lines.append(f"  {a['kind']} at {a['line']}:{a['col']}"
                         f" (label {a['label']}, {a['context']})")
    else:
        lines.append(_c("no alarms", "32"))
    races = rep["races"]["ww"] + rep["races"]["rw"]
    if races:
        lines.append(_c(f"{len(races)} data race(s)", "33"))
        for r in races:
            t1, t2 = r["threads"]
            lines.append(f"  {r['kind']} race on {r['var']}"
                         f" between t{t1} and t{t2}")
    if rep["var_ranges"]:
        lines.append("variable ranges (final / reachable hull):")
        for v, d in sorted(rep["var_ranges"].items()):
            lines.append(f"  {v}: {d['final']} / {d['hull']}")
    if rep["partition_stats"]:
        ps = rep["partition_stats"]
        lines.append(f"partitions: max {ps['max_env_partitions']} env,"
                     f" {ps['interference_entries']} interference entries")
    if rep["oracle"]:
        o = rep["oracle"]
        lines.append(f"oracle: {o['states']} states explored"
                     + (", truncated" if o["truncated"] else ""))
    if rep["check"]:
        c = rep["check"]
        verdict = c["verdict"]
        code = {"PASS": "32", "FAIL": "31"}.get(verdict, "33")
        lines.append(f"inclusion vs {c['against']}: " + _c(verdict, code))
        if c["missing"]:
            lines.append(f"  uncovered labels: {c['missing']}")
    if rep["fuzz"]:
        f = rep["fuzz"]
        lines.append(f"fuzz: {f['trials']} trials,"
                     f" {f['effective']} effective,"
                     f" {len(f['violations'])} violation(s),"
                     f" {f['inconclusive']} inconclusive")
        for name in sorted(f["per_rule"]):
            d = f["per_rule"][name]
            lines.append(f"  {name}: applied {d['applied']},"
                         f" skipped {d['skipped']}")
        for c in f["negative_controls"]:
            mark = "detected" if c["detected"] else "MISSED"
            lines.append(f"  control [{c['name']}]: {mark}")
    for w in rep["warnings"]:
        lines.append(_c(f"warning: {w}", "33"))
    if rep["timing_s"] is not None:
        lines.append(f"time: {rep['timing_s']}s")
    return "\n".join(lines) + "\n"


# the list options' items, with numbers written as the parser reads them
_RATIONAL = re.compile(r"-?[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?")
_THREAD_ID = re.compile(r"t?[0-9]+")


def _parse_thresholds(text: str) -> tuple[Num, ...]:
    """An empty list means the default thresholds."""
    parts = [x.strip() for x in text.split(",") if x.strip()]
    if not all(map(_RATIONAL.fullmatch, parts)):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of rationals")
    return tuple(sorted(map(num, parts))) or RunConfig.thresholds


def _parse_threads(text: str) -> tuple[int, ...]:
    parts = [x.strip() for x in text.split(",") if x.strip()]
    if not all(map(_THREAD_ID.fullmatch, parts)):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of thread ids")
    return tuple(int(part.lstrip("t")) for part in parts)


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: ")


def _parser(prog: str) -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the options that take a value."""
    ap = argparse.ArgumentParser(
        prog=prog, usage="%(prog)s [OPTIONS] FILE", allow_abbrev=False,
        formatter_class=_Formatter,
        description="Analyze a concurrent program or run a concrete oracle"
                    " on it.")
    valued: set[str] = set()

    def value(flag: str, **kw) -> None:
        valued.add(flag)
        ap.add_argument(flag, **kw)

    ap.add_argument("file", metavar="FILE")
    value("--mode", choices=MODES, default=RunConfig.mode,
          help="analysis or oracle to run")
    value("--unroll", type=int, default=RunConfig.unroll,
          help="loop unrolling bound for oracle control paths")
    ap.add_argument("--mono", action=argparse.BooleanOptionalAction,
                    default=RunConfig.mono,
                    help="assume a mono-processor real-time scheduler"
                         " (islocked is modeled precisely)")
    value("--widening-delay", type=int,
          default=RunConfig.widening_delay,
          help="interference-fixpoint rounds joined before widening")
    value("--thresholds", type=_parse_thresholds,
          default=RunConfig.thresholds,
          help="comma-separated widening thresholds, e.g. -1,0,1,10")
    value("--self-interference", type=_parse_threads,
          default=RunConfig.self_interference,
          help="comma-separated thread ids that may run as several"
               " instances (--mode interference or fuzz, or"
               " --check-against interference)")
    value("--budget-states", type=int,
          default=RunConfig.budget_states, help="oracle state budget")
    value("--seed", type=int, default=RunConfig.seed, help="fuzzing seed")
    ap.add_argument("--json", dest="json_output", action="store_true",
                    help="emit JSON")
    value("--out", default=None,
          help="write the report to a file instead of stdout")
    value("--check-against", choices=ANALYZER_MODES,
          default=RunConfig.check_against,
          help="compare oracle errors against an analyzer's alarms")
    ap.add_argument("--decreasing-pass", action="store_true",
                    help="one decreasing loop re-execution after"
                         " stabilization")
    ap.add_argument("--timing", action="store_true",
                    help="include wall-clock time in the report"
                         " (breaks byte-determinism)")
    return ap, valued


def _attach_values(argv: list[str], valued: set[str]) -> list[str]:
    """argparse reads a value that starts with `-`, such as -1,0,1, as an
    option of its own; `--opt value` becomes `--opt=value`, so that an
    option takes the next word whatever it is."""
    out: list[str] = []
    words = iter(argv)
    for word in words:
        out.append(f"{word}={next(words, '')}" if word in valued else word)
    return out


def main(argv: list[str] | None = None, prog_name: str = "analyze") -> None:
    """Run the analyze command on argv (default: the process's arguments)
    and exit with its code."""
    ap, valued = _parser(prog_name)
    args = vars(ap.parse_args(_attach_values(
        sys.argv[1:] if argv is None else argv, valued)))
    file, json_output, out = (args.pop(k) for k in ("file", "json_output",
                                                      "out"))
    try:
        cfg = RunConfig(**args)  # every other option is a RunConfig field
    except ValueError as e:
        ap.error(str(e))
    try:
        with open(file, encoding="utf-8") as fh:
            source = fh.read()
        program = parse_program(source)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
    except Exception as e:  # a parser defect: a message, not a traceback
        print(f"internal error: {e}", file=sys.stderr)
        sys.exit(3)

    # before any analysis or oracle
    for flag in ("mode", "check_against"):
        reason = getattr(cfg, flag) == "seq" and outside_fragment(program)
        if reason:
            ap.error(f"argument --{flag.replace('_', '-')}: {reason}")
    try:
        rep = build_report(program, source, cfg)
    except UnknownThread as e:
        ap.error(f"argument --self-interference: {e}")
    except LimitReached as e:  # a bound of the run: a budget failure
        print(f"error: {e}", file=sys.stderr)
        sys.exit(3)
    except Exception as e:  # analyzer/oracle internal failure
        print(f"internal error: {e}", file=sys.stderr)
        sys.exit(3)

    color = _color_enabled(out)
    text = report_to_json(rep) if json_output else _human(rep, color)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:  # a directory, a missing parent, no permission
            print(f"error: {e}", file=sys.stderr)
            sys.exit(2)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()

    sys.exit(rep["exit_code"])


if __name__ == "__main__":
    main()
