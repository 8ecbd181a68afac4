#!/usr/bin/env python3
"""Regenerate the expected-report fixtures next to the corpus programs.

Each corpus file is analyzed with its documented mode and settings; the
resulting JSON report is byte-deterministic and serves both as
documentation of the expected output and as a regression fixture.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from racebox.report import RunConfig, analyze_source, report_to_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

LADDER_10 = (-10_000, -1, 0, 1, 10, 10_000)

# the one table of fixture configs: the corpus test and run_corpus.py
# read it too
FIXTURES: dict[str, RunConfig] = {
    "dekker": RunConfig(mode="interference"),
    "increment": RunConfig(mode="interference"),
    "priority_mutex": RunConfig(mode="scheduled", mono=True),
    "producer_consumer": RunConfig(mode="scheduled", mono=True,
                                   thresholds=LADDER_10),
    "priority_flow": RunConfig(mode="scheduled", mono=True),
}


def main() -> None:
    for name, cfg in FIXTURES.items():
        src = (CORPUS / f"{name}.conc").read_text()
        rep = analyze_source(src, cfg)
        out = CORPUS / f"{name}.expected.json"
        out.write_text(report_to_json(rep))
        print(f"wrote {out} (alarms={len(rep['alarms'])},"
              f" exit={rep['exit_code']})")


if __name__ == "__main__":
    main()
