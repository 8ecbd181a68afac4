"""Nested loops: each loop's fixpoint runs a number of times linear in
the nesting depth, the parser's deepest reachable nesting analyzes in
seconds, and the reports of scripts/report_digests.py's nested shapes
stay byte for byte as recorded before loops iterated from their input."""

import hashlib

import pytest

import racebox.sched
from racebox.parser import MAX_NESTING
from racebox.report import RunConfig, analyze_source
from report_digests import CONFIGS, DEPTHS, SHAPES, nested, report_bytes

ANALYZERS = {
    "seq": RunConfig(mode="seq"),
    "interference": RunConfig(mode="interference"),
    "scheduled": RunConfig(mode="scheduled"),
    "scheduled-no-mono": RunConfig(mode="scheduled", mono=False),
}


def shape_digest(shape: str) -> str:
    """One digest over the shape's reports at every depth and config."""
    h = hashlib.sha256()
    for d in DEPTHS:
        for cfg in CONFIGS.values():
            h.update(report_bytes(nested(shape, d), cfg))
    return h.hexdigest()[:16]


NESTED_DIGESTS = {  # recorded with each loop iterating from bottom
    "if-while": "c94b7f90cfef2096",
    "islocked": "a8010ad4b62bfe96",
    "lock": "eb83a09ad067f29d",
    "reach": "0e409aac7e6f6c9a",
    "two-threads": "dbf3ae4f919fb589",
    "while": "fcd768cf0590f392",
    "yield": "6f4a1b05f4842e7d",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nested_shape_reports(shape):
    assert shape_digest(shape) == NESTED_DIGESTS[shape]


@pytest.mark.parametrize("config", sorted(ANALYZERS))
@pytest.mark.parametrize("shape,depth", [("reach", 12), ("while", 32)])
def test_loop_runs_linear_in_nesting(monkeypatch, shape, depth, config):
    """body_guard is called once per loop run that is not a reuse of the
    loop's last run in the pass."""
    runs = 0
    body_guard = racebox.sched.body_guard

    def counted(s):
        nonlocal runs
        runs += 1
        return body_guard(s)

    monkeypatch.setattr(racebox.sched, "body_guard", counted)
    analyze_source(nested(shape, depth), ANALYZERS[config])
    assert 0 < runs <= 8 * depth


@pytest.mark.parametrize("config", sorted(ANALYZERS))
def test_reachable_loops_at_nesting_limit(config):
    """Every level of the reachable shape divides by zero; the analysis
    takes seconds, not time exponential in the depth."""
    rep = analyze_source(nested("reach", MAX_NESTING),
                         ANALYZERS[config])
    assert rep["exit_code"] == 1
    assert len(rep["alarms"]) == MAX_NESTING
    assert {a["kind"] for a in rep["alarms"]} == {"div-by-zero"}
