"""Command-line entry point.

Exit codes: 0 analyzed with no alarms (or PASS), 1 alarms or violations
found (or FAIL), 2 usage/parse error, 3 internal or budget failure.
Set THESEE_MINI_COLOR=0|1 to force colored human output off or on; by
default only output to a terminal is colored.
"""

from __future__ import annotations

import os
import sys

import click

from .parser import ParseError, parse_program
from .report import (
    ANALYZER_MODES,
    MODES,
    RunConfig,
    UnknownThread,
    build_report,
    report_to_json,
)
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


def _parse_thresholds(ctx, param, text: str) -> tuple[Num, ...]:
    """An empty list means the default thresholds."""
    try:
        return tuple(sorted(num(x.strip()) for x in text.split(",")
                            if x.strip())) or RunConfig.thresholds
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"{text!r} is not a comma-separated list"
                                 " of rationals")


def _parse_threads(ctx, param, text: str) -> tuple[int, ...]:
    parts = (part.strip().lstrip("t") for part in text.split(","))
    try:
        return tuple(int(part) for part in parts if part)
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a comma-separated list"
                                 " of thread ids")


@click.command(name="analyze")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(MODES), default=RunConfig.mode,
              show_default=True, help="analysis or oracle to run")
@click.option("--unroll", type=click.IntRange(min=0),
              default=RunConfig.unroll, show_default=True,
              help="loop unrolling bound for oracle control paths")
@click.option("--mono/--no-mono", default=RunConfig.mono, show_default=True,
              help="assume a mono-processor real-time scheduler"
                   " (islocked is modeled precisely)")
@click.option("--widening-delay", type=click.IntRange(min=0),
              default=RunConfig.widening_delay, show_default=True,
              help="interference-fixpoint rounds joined before widening")
@click.option("--thresholds", type=str, default="",
              callback=_parse_thresholds,
              help="comma-separated widening thresholds, e.g. -1,0,1,10")
@click.option("--self-interference", type=str, default="",
              callback=_parse_threads,
              help="comma-separated thread ids that may run as several"
                   " instances (interference mode)")
@click.option("--budget-states", type=click.IntRange(min=1),
              default=RunConfig.budget_states, show_default=True,
              help="oracle state budget")
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--json", "json_output", is_flag=True, help="emit JSON")
@click.option("--out", type=click.Path(writable=True), default=None,
              help="write the report to a file instead of stdout")
@click.option("--check-against", type=click.Choice(ANALYZER_MODES),
              default=None, help="compare oracle errors against an"
                                 " analyzer's alarms")
@click.option("--decreasing-pass", is_flag=True,
              help="one decreasing loop re-execution after stabilization")
@click.option("--timing", is_flag=True,
              help="include wall-clock time in the report"
                   " (breaks byte-determinism)")
def main(file, json_output, out, **opts):
    """Analyze a concurrent program or run a concrete oracle on it."""
    try:
        cfg = RunConfig(**opts)  # every other option is a RunConfig field
    except ValueError as e:
        raise click.UsageError(str(e))
    try:
        source = open(file, encoding="utf-8").read()
        program = parse_program(source)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except Exception as e:  # e.g. RecursionError on very deep if/while nesting
        click.echo(f"internal error: {e}", err=True)
        sys.exit(3)

    try:
        rep = build_report(program, source, cfg)
    except UnknownThread as e:
        raise click.BadParameter(str(e), param_hint="'--self-interference'")
    except Exception as e:  # analyzer/oracle internal failure
        click.echo(f"internal error: {e}", err=True)
        sys.exit(3)

    color = _color_enabled(out)
    text = report_to_json(rep) if json_output else _human(rep, color)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:  # a directory, a missing parent, no permission
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
    else:
        click.echo(text, nl=False, color=color)

    code = rep["exit_code"]
    if rep["check"]:
        code = {"PASS": 0, "FAIL": 1}.get(rep["check"]["verdict"], 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
