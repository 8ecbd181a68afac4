"""The shipped corpus programs must keep producing their expected reports
byte for byte (the fixtures double as documentation of each example)."""

import json
import random

import pytest

from racebox.oracle import run_scheduled
from racebox.randgen import random_program
from racebox.report import analyze_source, report_to_json
from racebox.syntax import collect_lock_sets
from regen_fixtures import CORPUS, FIXTURES


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_expected_report(name):
    src = (CORPUS / f"{name}.conc").read_text()
    produced = report_to_json(analyze_source(src, FIXTURES[name]))
    expected = (CORPUS / f"{name}.expected.json").read_text()
    assert json.loads(produced) == json.loads(expected)
    assert produced == expected  # byte-deterministic


def test_lock_sets_cover_oracle_acquisitions():
    # the syntactic lock-set map over-approximates every mutex any
    # scheduled execution actually acquires
    for seed in range(25):
        rng = random.Random(60_000 + seed)
        p = random_program(rng)
        if not p.mutexes:
            continue
        ls = collect_lock_sets(p)
        res = run_scheduled(p, unroll=2, collect_witnesses=False,
                            keep_sched_states=True)
        tids = p.tids
        for status, held in res.sched_states:
            for i, t in enumerate(tids):
                assert held[i] <= ls[t], (seed, t)
