#!/usr/bin/env python3
"""Analyze every corpus program in every analyzer mode and print a summary
of alarms, key variable ranges, iteration counts, and oracle agreement."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from racebox.interference import analyze_program_I
from racebox.oracle import run_interleavings, run_scheduled
from racebox.parser import parse_program
from racebox.sched import analyze_program_C
from racebox.syntax import While, sub_stmts
from regen_fixtures import CORPUS, FIXTURES  # this script's directory


def main() -> None:
    for name in sorted(FIXTURES):
        path = CORPUS / f"{name}.conc"
        p = parse_program(path.read_text())
        settings = FIXTURES[name].settings()
        ri = analyze_program_I(p, settings)
        rt = analyze_program_C(p, settings, mono=True)
        rf = analyze_program_C(p, settings, mono=False)
        print(f"== {path.stem}")
        print(f"   interference: {len(ri.omega)} alarm(s),"
              f" {ri.iterations} round(s)")
        print(f"   scheduled (mono): {len(rt.omega)} alarm(s),"
              f" {rt.iterations} round(s),"
              f" {len(rt.races_ww)}+{len(rt.races_rw)} race(s),"
              f" max {rt.max_env_partitions} env partition(s)")
        print(f"   scheduled (multi): {len(rf.omega)} alarm(s)")
        if not any(isinstance(s, While)
                   for t in p.threads for s in sub_stmts(t.body)):
            oi = run_interleavings(p, unroll=0, collect_witnesses=False)
            os_ = run_scheduled(p, unroll=0, collect_witnesses=False)
            print(f"   oracles: interleave {len(oi.errors)} error(s)"
                  f" / {oi.states} states;"
                  f" scheduled {len(os_.errors)} error(s)"
                  f" / {os_.states} states")


if __name__ == "__main__":
    main()
