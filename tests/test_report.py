import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebox.cli import _parse_threads, _parse_thresholds, main
from racebox.config import AnalysisSettings
from racebox.parser import MAX_NESTING
from regen_fixtures import CORPUS

from racebox.report import (
    REPORT_SCHEMA,
    RunConfig,
    UnknownThread,
    analyze_source,
    report_to_json,
)

F = Fraction

SRC_ALARM = "var x;\nthread 1 { x <- 1 / [0,1]; }\n"
SRC_CLEAN = "var x;\nthread 1 { x <- 1 / [1,2]; }\n"


@pytest.mark.parametrize("mode", ["seq", "interference", "scheduled",
                                  "oracle-interleave", "oracle-scheduled",
                                  "fuzz"])
def test_schema_valid_all_modes(mode):
    rep = analyze_source(SRC_ALARM, RunConfig(mode=mode, unroll=1))
    jsonschema.validate(json.loads(report_to_json(rep)), REPORT_SCHEMA)


def test_reports_byte_deterministic():
    cfg = RunConfig(mode="scheduled")
    a = report_to_json(analyze_source(SRC_ALARM, cfg))
    b = report_to_json(analyze_source(SRC_ALARM, cfg))
    assert a == b
    cfg2 = RunConfig(mode="fuzz", seed=3)
    assert (report_to_json(analyze_source(SRC_CLEAN, cfg2))
            == report_to_json(analyze_source(SRC_CLEAN, cfg2)))


# both oracles with a check, so with witnesses; no corpus fuzz run forks
GARBAGE_RUNS = [
    RunConfig(mode="interference"), RunConfig(mode="scheduled"),
    RunConfig(mode="scheduled", mono=False),
    RunConfig(mode="oracle-interleave", check_against="interference"),
    RunConfig(mode="oracle-scheduled", check_against="scheduled"),
    RunConfig(mode="fuzz")]


def test_a_run_leaves_no_cyclic_garbage(cyclic_garbage):
    """Reference counting alone frees what a run and its JSON build: a
    thread pass drops its working set on return."""
    import racebox.transforms  # noqa: F401 (pickle's import leaves cycles)

    sources = [f.read_text() for f in sorted(CORPUS.glob("*.conc"))]

    def run():
        for src in sources:
            for cfg in GARBAGE_RUNS:
                report_to_json(analyze_source(src, cfg))
        report_to_json(analyze_source(
            "var x = [0,3]; thread 1 { while x - 10 < 0 do"
            " { x <- x + 1 / x; } }", RunConfig(mode="seq")))

    assert cyclic_garbage(run) == 0


_TEXT = st.text(st.sampled_from('ab⊥"\\/\n\t\x00\x1f\x7fé'), max_size=6)
_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.floats() | _TEXT
    | st.integers() | st.sampled_from([2**70, -(2**64) - 1, -0.0]),
    lambda tree: (st.lists(tree, max_size=4)
                  | st.lists(tree, max_size=4).map(tuple)
                  | st.dictionaries(_TEXT, tree, max_size=4)
                  | st.dictionaries(st.integers(), tree, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_JSON_LIKE)
def test_report_to_json_writes_what_json_dumps_writes(v):
    assert report_to_json(v) == json.dumps(v, sort_keys=True, indent=2) + "\n"


def test_an_oracle_report_with_witnesses_writes_as_json_dumps():
    # thread 1 divides by zero once thread 2 has set x back to 0: the
    # witness's scheduler status maps are keyed by thread id, an int
    src = "var x; thread 1 { x <- 1 / x; } thread 2 { x <- 1; yield; x <- 0; }"
    rep = analyze_source(src, RunConfig(mode="oracle-scheduled",
                                        check_against="scheduled"))
    status = rep["oracle"]["witnesses"]["1"][0]["pre-scheduler"]["status"]
    assert list(status) == [1, 2]
    assert report_to_json(rep) == json.dumps(rep, sort_keys=True,
                                             indent=2) + "\n"


def test_alarm_reports_sorted_by_position():
    src = "thread 1 { b <- 1 / y; a <- 1 / x; }\n"
    rep = analyze_source(src, RunConfig(mode="seq"))
    cols = [(a["line"], a["col"]) for a in rep["alarms"]]
    assert cols == sorted(cols)
    assert all(a["kind"] == "div-by-zero" for a in rep["alarms"])


def test_exit_codes_in_report():
    assert analyze_source(SRC_ALARM, RunConfig(mode="seq"))["exit_code"] == 1
    assert analyze_source(SRC_CLEAN, RunConfig(mode="seq"))["exit_code"] == 0


def test_config_echoed():
    cfg = RunConfig(mode="interference", unroll=5, seed=9,
                    thresholds=(F(0), F(7)))
    rep = analyze_source(SRC_CLEAN, cfg)
    assert rep["config"]["unroll"] == 5
    assert rep["config"]["seed"] == 9
    assert rep["config"]["thresholds"] == ["0", "7"]


def test_timing_null_by_default():
    rep = analyze_source(SRC_CLEAN, RunConfig(mode="seq"))
    assert rep["timing_s"] is None
    rep2 = analyze_source(SRC_CLEAN, RunConfig(mode="seq", timing=True))
    assert isinstance(rep2["timing_s"], float)


def test_check_against_verdicts():
    rep = analyze_source(SRC_ALARM, RunConfig(mode="oracle-interleave",
                                              check_against="interference"))
    assert rep["check"]["verdict"] == "PASS"


# the high-priority test of `m` excludes the two sections only on a
# mono-processor: free interleavings reach y = 1, z = 2 and divide by zero
SRC_MONO_ONLY = """var x; var y; var z; var t; mutex m;
thread 1 { lock(m); y <- 1; z <- 1; t <- 1 / (y - z + 1); unlock(m); }
thread 2 { x <- islocked(m); if x = 0 then { z <- 2; y <- 2; yield; } }
"""


@pytest.mark.parametrize("src,verdict", [(SRC_ALARM, "PASS"),
                                         (SRC_MONO_ONLY, "FAIL")])
def test_check_against_explores_once(monkeypatch, src, verdict):
    """The check judges the oracle run the mode has already made."""
    import racebox.oracle as oracle

    calls = []
    explore = oracle._explore
    monkeypatch.setattr(oracle, "_explore",
                        lambda *a, **k: calls.append(1) or explore(*a, **k))
    rep = analyze_source(src, RunConfig(mode="oracle-interleave",
                                        check_against="scheduled"))
    assert rep["check"]["verdict"] == verdict
    assert len(calls) == 1
    if verdict == "FAIL":
        assert rep["check"]["missing"] == [1]
        assert rep["check"]["witness"][-1]["stmt-pretty"].startswith("t <-")


@pytest.mark.parametrize("src,budget,verdict,code", [
    (SRC_ALARM, "1000000", "PASS", 0),
    (SRC_MONO_ONLY, "1000000", "FAIL", 1),
    (SRC_MONO_ONLY, "40", "FAIL", 1),  # truncated after reaching the error
    (SRC_MONO_ONLY, "5", "INCONCLUSIVE", 3)],
    ids=["pass", "fail", "fail-truncated", "inconclusive"])
def test_check_verdict_is_the_exit_code(tmp_path, src, budget, verdict,
                                        code):
    """The report's exit_code is the process's, and the check verdict
    decides both."""
    f = tmp_path / "p.conc"
    f.write_text(src)
    r = run_cli(str(f), "--mode", "oracle-interleave", "--check-against",
                "scheduled", "--budget-states", budget, "--json")
    rep = json.loads(r.stdout)
    assert rep["check"]["verdict"] == verdict
    assert (r.returncode, rep["exit_code"]) == (code, code)


# divides by zero at x = 3, then widens to 10,010 interleaving states
SRC_ERROR_THEN_WIDE = ("var x;\nthread 1 { x <- [0,9]; y <- 1 / (x - 3);"
                       " a <- [0,9]; b <- [0,9]; c <- [0,9]; }\n")


@pytest.mark.parametrize("mode", ["oracle-interleave", "oracle-scheduled"])
@pytest.mark.parametrize("src,budget,code", [
    (SRC_CLEAN, "1000000", 0),
    (SRC_ERROR_THEN_WIDE, "1000000", 1),
    (SRC_ERROR_THEN_WIDE, "40", 1),  # truncated after reaching the error
    (SRC_ERROR_THEN_WIDE, "5", 3)],  # truncated before it
    ids=["clean", "error", "error-truncated", "truncated"])
def test_oracle_exit_code_without_check(tmp_path, mode, src, budget, code):
    """Without --check-against, an oracle run that reached an error exits
    1, truncated or not; else a truncated run exits 3 and a complete one
    0."""
    f = tmp_path / "p.conc"
    f.write_text(src)
    r = run_cli(str(f), "--mode", mode, "--budget-states", budget, "--json")
    rep = json.loads(r.stdout)
    assert bool(rep["alarms"]) == (code == 1)
    assert (r.returncode, rep["exit_code"]) == (code, code)


def test_self_interference_flag_changes_result():
    src = "var x;\nthread 1 { x <- x + 1; }\n"
    plain = analyze_source(src, RunConfig(mode="interference"))
    multi = analyze_source(src, RunConfig(mode="interference",
                                          self_interference=(1,)))
    assert plain["interferences"]["t1/x"] == "[1,1]"
    assert multi["interferences"]["t1/x"] == "[1,inf]"


def test_self_interference_must_name_a_thread(corpus_source):
    with pytest.raises(UnknownThread, match="no thread 9"):
        analyze_source(corpus_source("dekker"),
                       RunConfig(mode="interference", self_interference=(9,)))


@pytest.mark.parametrize("fields, refused", [
    ({"mode": "seq"}, True),
    ({"mode": "scheduled"}, True),
    ({"mode": "scheduled", "mono": False}, True),
    ({"mode": "oracle-interleave"}, True),
    ({"mode": "oracle-scheduled", "check_against": "scheduled"}, True),
    ({"mode": "interference"}, False),
    ({"mode": "fuzz"}, False),
    ({"mode": "oracle-interleave", "check_against": "interference"}, False),
    ({"mode": "oracle-scheduled", "check_against": "interference"}, False),
])
def test_config_self_interference_needs_the_interference_analyzer(
        fields, refused):
    """Only the interference analyzer reads --self-interference; every
    other mode refuses it when the config is built, so no report echoes a
    setting that its analysis ignored."""
    if refused:
        with pytest.raises(ValueError, match="^argument --self-interference:"
                           " only the interference analyzer reads it$"):
            RunConfig(**fields, self_interference=(1,))
    else:
        cfg = RunConfig(**fields, self_interference=(1,))
        assert cfg.settings().self_interference == frozenset({1})


@pytest.mark.parametrize("fields, flag", [
    ({"mode": "bogus"}, "--mode"),
    ({"mode": "oracle-interleave", "check_against": "bogus"},
     "--check-against"),
])
def test_config_rejects_an_unknown_mode(fields, flag):
    """An unknown name fails when the config is built, not after a run of
    the oracle."""
    with pytest.raises(ValueError, match=f"^{flag} must be one of"):
        RunConfig(**fields)


def test_every_analysis_setting_is_echoed():
    """A setting that can change an analyzer's result is a RunConfig
    field, so the report's `config` names it."""
    echo = RunConfig().echo()
    for name in AnalysisSettings._fields:
        assert name in RunConfig._fields and name in echo, name


# -- command line


def run_cli(*args, color=None, timeout=None):
    import os

    env = dict(os.environ)
    env["THESEE_MINI_COLOR"] = color if color is not None else "0"
    return subprocess.run(
        [sys.executable, "-m", "racebox.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout)


def test_imports_only_what_the_mode_runs(tmp_path):
    """`import racebox` loads no submodule, and the analyzer modes load
    neither the oracles, nor the fuzzer, nor the concrete semantics, nor
    the two libraries whose import cost a cold run most: click and
    dataclasses."""
    f = tmp_path / "p.conc"
    f.write_text(SRC_ALARM)
    code = textwrap.dedent("""
        import json, sys
        import racebox
        bare = [m for m in sys.modules if m.startswith("racebox.")]
        from racebox.cli import main
        codes = []
        for mode in ("seq", "interference", "scheduled"):
            try:
                main([sys.argv[1], "--mode", mode])
            except SystemExit as e:
                codes.append(e.code)
        print(json.dumps([bare, codes, sorted(sys.modules)]))
    """)
    r = subprocess.run([sys.executable, "-c", code, str(f)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    bare, codes, loaded = json.loads(r.stdout.splitlines()[-1])
    assert bare == [] and codes == [1, 1, 1]
    assert "racebox.sched" in loaded and "racebox.seq" in loaded
    assert "racebox.oracle" not in loaded
    assert "racebox.transforms" not in loaded
    assert "racebox.concrete" not in loaded
    assert "click" not in loaded and "dataclasses" not in loaded


def test_cli_exit_zero_no_alarms(tmp_path):
    f = tmp_path / "p.conc"
    f.write_text(SRC_CLEAN)
    r = run_cli(str(f), "--mode", "scheduled")
    assert r.returncode == 0
    assert "no alarms" in r.stdout


def test_cli_exit_one_on_alarms(tmp_path):
    f = tmp_path / "p.conc"
    f.write_text(SRC_ALARM)
    r = run_cli(str(f), "--mode", "scheduled")
    assert r.returncode == 1
    assert "alarm" in r.stdout


def test_cli_fuzz_reports_effective_trials(tmp_path):
    """A fuzz run says how many of its trials applied a rule, and so were
    checked: here none of the 50."""
    f = tmp_path / "p.conc"
    f.write_text("var x; thread 1 { } thread 2 { x <- 1 / x; }\n")
    r = run_cli(str(f), "--mode", "fuzz")
    assert r.returncode == 0, r.stderr
    assert "fuzz: 50 trials, 0 effective, 0 violation(s)," in r.stdout
    r = run_cli(str(f), "--mode", "fuzz", "--json")
    assert json.loads(r.stdout)["fuzz"]["effective"] == 0


def test_cli_fuzz_inconclusive_exits_three(tmp_path, corpus_source):
    """Inconclusive trials are a budget failure, exit 3, as truncation is
    in the oracle modes."""
    f = tmp_path / "dekker.conc"
    f.write_text(corpus_source("dekker"))
    r = run_cli(str(f), "--mode", "fuzz", "--unroll", "1",
                "--budget-states", "5")
    assert r.returncode == 3, r.stdout + r.stderr
    assert " 0 violation(s), 50 inconclusive" in r.stdout


@pytest.mark.parametrize("mode", [
    ("fuzz",), ("oracle-interleave",), ("oracle-scheduled",),
    ("oracle-interleave", "--check-against", "interference")],
    ids=["fuzz", "interleave", "scheduled", "check-against"])
@pytest.mark.parametrize("program", ["nested", "nested-4", "ten-loops",
                                     "twelve-loops"])
def test_cli_path_walk_past_the_budget_exits_three(tmp_path, mode,
                                                   program):
    """Threads with more control paths than --budget-states: the nested
    `while` shape at depths 3 and 4 (621,436 and about 2.4 * 10^17 paths
    at unroll 3) and ten or twelve loops in sequence (4^10, 4^12).  Every
    oracle mode, and --check-against, grows the tries as the run reaches
    them and completes within the budget in seconds (19-38 states), exit
    0.  Fuzz lists each thread's paths as its pool, so it stops before
    the list past the budget is made: exit 3 within seconds, with an
    `error:` line, not an internal error, naming the thread and the
    budget.  Every mode ran past 20 s when every path was made."""
    from report_digests import nested

    f = tmp_path / "p.conc"
    loops = {"ten-loops": 10, "twelve-loops": 12}.get(program)
    f.write_text(nested("while", 4 if program == "nested-4" else 3)
                 if loops is None else "var x = [0,1]; thread 1 { "
                 + "while x - 3 < 0 do { x <- x + 1; } " * loops + "}")
    r = run_cli(str(f), "--mode", *mode, "--budget-states", "1000",
                "--json", timeout=20)
    if mode == ("fuzz",):
        assert r.returncode == 3, r.stdout + r.stderr
        assert r.stderr.startswith("error: thread 1 spawns more than 1000"
                                   " control paths at unroll 3")
        return
    assert r.returncode == 0, r.stdout + r.stderr
    oracle = json.loads(r.stdout)["oracle"]
    assert not oracle["truncated"] and oracle["states"] <= 1_000


def test_cli_fuzz_controls_keep_their_own_budget(tmp_path, corpus_source):
    """--budget-states bounds the user's trials, not the negative
    controls, which are fixed harness programs: they are all detected,
    and the cut-off trials make the run inconclusive, exit 3."""
    f = tmp_path / "dekker.conc"
    f.write_text(corpus_source("dekker"))
    r = run_cli(str(f), "--mode", "fuzz", "--unroll", "1",
                "--budget-states", "4", "--json")
    assert r.returncode == 3, r.stdout + r.stderr
    rep = json.loads(r.stdout)
    assert rep["fuzz"]["inconclusive"] == 50
    assert [c["detected"] for c in rep["fuzz"]["negative_controls"]] == [
        True] * 4


def test_cli_fuzz_reports_the_alarms_trials_are_judged_against(tmp_path):
    """A fuzz report's alarms are the untransformed program's interference
    alarms; they do not change its exit code."""
    f = tmp_path / "p.conc"
    f.write_text("var x; thread 1 { } thread 2 { x <- 1 / x; }\n")
    fuzz = run_cli(str(f), "--mode", "fuzz", "--json")
    interference = run_cli(str(f), "--mode", "interference", "--json")
    assert (fuzz.returncode, interference.returncode) == (0, 1)
    alarms = json.loads(fuzz.stdout)["alarms"]
    assert alarms == json.loads(interference.stdout)["alarms"]
    assert [a["label"] for a in alarms] == [1]
    r = run_cli(str(f), "--mode", "fuzz")
    assert "1 alarm(s)" in r.stdout and "no alarms" not in r.stdout


def test_fuzz_violation_exits_one_before_inconclusive(monkeypatch):
    """A violation is exit 1 even when other trials were inconclusive."""
    from racebox import transforms

    real = transforms.fuzz_weakmem

    def one_violation(p, **kw):
        rep = real(p, **kw)
        v = transforms.FuzzViolation(1, ["identity-store"], [1], [], [])
        return rep._replace(violations=[v], inconclusive=1)

    monkeypatch.setattr(transforms, "fuzz_weakmem", one_violation)
    rep = analyze_source(SRC_CLEAN, RunConfig(mode="fuzz", unroll=1))
    assert rep["fuzz"]["inconclusive"] == 1
    assert rep["exit_code"] == 1


def test_cli_exit_two_on_parse_error(tmp_path):
    f = tmp_path / "p.conc"
    f.write_text("thread 1 { x <- ; }")
    r = run_cli(str(f))
    assert r.returncode == 2


@pytest.mark.parametrize("src", ["thread 1 { x <- \u00b2; }",
                                 "thread \u00b2 { x <- 1; }"])
def test_cli_exit_two_on_non_ascii_digit(tmp_path, src):
    f = tmp_path / "p.conc"
    f.write_text(src, encoding="utf-8")
    r = run_cli(str(f))
    assert r.returncode == 2
    assert "unexpected character" in r.stderr


def test_cli_json_output_and_out_file(tmp_path):
    f = tmp_path / "p.conc"
    f.write_text(SRC_ALARM)
    out = tmp_path / "rep.json"
    r = run_cli(str(f), "--mode", "interference", "--json",
                "--out", str(out))
    assert r.returncode == 1
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["mode"] == "interference"


def test_cli_check_against(tmp_path, corpus_source):
    f = tmp_path / "p.conc"
    f.write_text(corpus_source("priority_mutex"))
    r = run_cli(str(f), "--mode", "oracle-scheduled",
                "--check-against", "scheduled")
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_cli_color_env_var(tmp_path):
    f = tmp_path / "p.conc"
    f.write_text(SRC_CLEAN)
    plain = run_cli(str(f), color="0").stdout
    colored = run_cli(str(f), color="1").stdout
    assert "\033[" not in plain
    assert "\033[" in colored


@pytest.mark.parametrize("mode", ["scheduled", "fuzz"])
def test_cli_check_against_needs_an_explorer(tmp_path, mode):
    """Only the two explorers can run the check: elsewhere it is a usage
    error, not a silently skipped check."""
    f = tmp_path / "p.conc"
    f.write_text(SRC_ALARM)
    r = run_cli(str(f), "--mode", mode, "--check-against", "interference")
    assert r.returncode == 2
    assert "Usage:" in r.stderr and "--check-against" in r.stderr


def test_cli_color_only_on_a_terminal(tmp_path):
    """With THESEE_MINI_COLOR unset, human output to a terminal is colored,
    and the same report written with --out is not."""
    pty = pytest.importorskip("pty")
    import os

    f = tmp_path / "p.conc"
    f.write_text(SRC_ALARM)
    out = tmp_path / "rep.txt"
    env = {k: v for k, v in os.environ.items() if k != "THESEE_MINI_COLOR"}

    def on_terminal(*args) -> bytes:
        master, slave = pty.openpty()
        try:
            r = subprocess.run([sys.executable, "-m", "racebox.cli", str(f),
                                *args], stdin=subprocess.DEVNULL,
                               stdout=slave, stderr=subprocess.PIPE,
                               env=env, timeout=120)
        finally:
            os.close(slave)
        assert r.returncode == 1, r.stderr
        text = b""
        while True:
            try:
                chunk = os.read(master, 4096)
            except OSError:  # EIO: every slave end is closed
                break
            if not chunk:
                break
            text += chunk
        os.close(master)
        return text

    assert b"\033[31m1 alarm(s)" in on_terminal()
    assert on_terminal("--out", str(out)) == b""
    assert "1 alarm(s)" in out.read_text()
    assert "\033[" not in out.read_text()


def test_cli_exit_three_on_budget_failure(tmp_path):
    f = tmp_path / "p.conc"
    f.write_text("thread 1 { x <- [0,3]; y <- [0,3]; }"
                 "thread 2 { x <- [0,3]; y <- [0,3]; }")
    r = run_cli(str(f), "--mode", "oracle-interleave", "--budget-states", "5")
    assert r.returncode == 3


@pytest.mark.parametrize("mode", ["oracle-interleave", "oracle-scheduled"])
def test_cli_oracle_unbounded_constant_is_a_limit(tmp_path, capsys, mode):
    """An oracle cannot enumerate the points of an unbounded constant: a
    limit of the oracles, not a defect, so `error:`, exit 3."""
    f = tmp_path / "p.conc"
    f.write_text("var x = [0,inf]; thread 1 { y <- 1 / x; }")
    with pytest.raises(SystemExit) as done:
        main([str(f), "--mode", mode])
    assert done.value.code == 3
    assert capsys.readouterr().err == (
        "error: unbounded constant [0,inf] has no finite set of points\n")


@pytest.mark.parametrize("out", [".", "missing/rep.json"])
def test_cli_exit_two_on_unwritable_out(tmp_path, out):
    f = tmp_path / "p.conc"
    f.write_text(SRC_CLEAN)
    r = run_cli(str(f), "--out", str(tmp_path / out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_cli_exit_two_on_deep_nesting(tmp_path):
    # the statement walkers recurse per if/while nesting level, so the
    # parser refuses nesting past MAX_NESTING
    f = tmp_path / "p.conc"
    f.write_text("thread 1 { " + "if x < 0 then { " * 1000 + "x <- 1;"
                 + " }" * 1000 + " }")
    r = run_cli(str(f), "--mode", "seq")
    assert r.returncode == 2
    assert f"blocks nested more than {MAX_NESTING} deep" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("flag,value", [("--unroll", "-1"),
                                        ("--budget-states", "-5"),
                                        ("--budget-states", "0"),
                                        ("--widening-delay", "-3"),
                                        ("--thresholds", "abc"),
                                        ("--thresholds", "1/0"),
                                        # only the parser's number syntax
                                        ("--thresholds", "\u0663"),
                                        ("--thresholds", "1e3"),
                                        ("--thresholds", "1_0"),
                                        ("--self-interference", "foo"),
                                        ("--self-interference", "9"),
                                        ("--self-interference", "0"),
                                        ("--self-interference", "-1"),
                                        ("--self-interference", "t"),
                                        ("--self-interference", "tt1"),
                                        ("--self-interference", "\u0663"),
                                        ("--self-interference", "1_0"),
                                        ("--mode", "oracle-interference")])
def test_cli_rejects_out_of_range_bounds(tmp_path, corpus_source, flag,
                                         value):
    f = tmp_path / "p.conc"
    f.write_text(corpus_source("dekker"))
    r = run_cli(str(f), "--mode", "oracle-interleave", flag, value)
    assert r.returncode == 2
    assert "Usage:" in r.stderr and flag in r.stderr


@pytest.mark.parametrize("source,reason", [
    ("thread 1 { x <- 1; } thread 2 { x <- 2; }",
     "sequential analyzer expects one thread, got 2"),
    ("mutex m; thread 1 { lock(m); x <- 1; unlock(m); }",
     "synchronization primitive in sequential fragment"),
])
@pytest.mark.parametrize("args,flag", [
    (("--mode", "seq"), "--mode"),
    (("--mode", "oracle-interleave", "--check-against", "seq"),
     "--check-against"),
])
def test_cli_seq_outside_its_fragment_is_usage_error(tmp_path, source,
                                                     reason, args, flag):
    # found before any analysis or oracle runs
    f = tmp_path / "p.conc"
    f.write_text(source)
    r = run_cli(str(f), *args)
    assert r.returncode == 2
    assert r.stderr.startswith("Usage:")
    assert f"argument {flag}: {reason}" in r.stderr
    assert r.stdout == ""


# thread 1 reads its own store x <- 0 only as one of several instances
SRC_SELF = "var x; thread 1 { x <- 0; x <- 1; y <- 1 / x; }\n"


@pytest.mark.parametrize("args,reason", [
    (("--mode", "scheduled"), "only the interference analyzer reads it"),
    (("--mode", "seq"), "only the interference analyzer reads it"),
    (("--mode", "oracle-scheduled", "--check-against", "scheduled"),
     "only the interference analyzer reads it"),
    (("--mode", "interference", "--self-interference", "9"),
     "the program has no thread 9"),
])
def test_cli_self_interference_needs_the_interference_analyzer(
        tmp_path, args, reason):
    f = tmp_path / "p.conc"
    f.write_text(SRC_SELF)
    r = run_cli(str(f), "--self-interference", "1", *args)
    assert r.returncode == 2
    assert r.stderr.startswith("Usage:")
    assert f"argument --self-interference: {reason}" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args,code", [
    (("--mode", "interference"), 1),
    (("--mode", "fuzz", "--unroll", "1"), 0),
    (("--mode", "oracle-interleave", "--check-against", "interference"), 0),
])
def test_cli_self_interference_runs_with_the_interference_analyzer(
        tmp_path, args, code):
    f = tmp_path / "p.conc"
    f.write_text(SRC_SELF)
    r = run_cli(str(f), "--self-interference", "1", *args, "--json")
    rep = json.loads(r.stdout)
    assert (r.returncode, rep["exit_code"]) == (code, code)
    assert rep["config"]["self_interference"] == [1]
    if rep["mode"] != "oracle-interleave":  # the alarm the flag makes
        assert [a["label"] for a in rep["alarms"]] == [1]


def test_cli_list_options_take_only_the_language_numerals():
    # int and Fraction also read other digits, `_` and exponents; on a
    # two-thread program `--self-interference 1_0` then names no thread,
    # so the CLI case above exits 2 either way
    assert _parse_thresholds("-1,0,1,10") == (-1, 0, 1, 10)
    assert _parse_thresholds(" 1/2 , 0.5,4/2") == (F(1, 2), F(1, 2), 2)
    assert _parse_thresholds("") == RunConfig.thresholds
    assert _parse_threads("t1,t2") == _parse_threads("1, 2,") == (1, 2)
    assert _parse_threads("") == ()
    for parse, text in [(_parse_thresholds, "\u0663"),
                        (_parse_thresholds, "1e3"),
                        (_parse_thresholds, "1_0"),
                        (_parse_threads, "t"), (_parse_threads, "tt1"),
                        (_parse_threads, "\u0663"), (_parse_threads, "1_0")]:
        with pytest.raises(argparse.ArgumentTypeError):
            parse(text)


def test_cli_thresholds_flag(tmp_path, corpus_source):
    f = tmp_path / "p.conc"
    f.write_text(corpus_source("producer_consumer"))
    r = run_cli(str(f), "--mode", "scheduled",
                "--thresholds", "-10000,-1,0,1,10,10000", "--json")
    rep = json.loads(r.stdout)
    assert rep["var_ranges"]["x"]["hull"] == "[0,10]"


TOKENS = ["var", "mutex", "m", "thread", "1", "2", "x", "{", "}", ";",
          "<-", "if", "then", "while", "do", "=", ">=", "lock", "unlock",
          "yield", "islocked", "[", "]", ",", "inf", "/", "+", "(", "#",
          "\n", "\u00b2"]


def _sources():
    """Source bytes: free text, token soups, and two-thread programs
    around random well-formed expressions."""
    soup = st.lists(st.sampled_from(TOKENS), max_size=30).map(" ".join)
    expr = st.recursive(
        st.sampled_from(["x", "y", "0", "3", "[0,1]", "[1/2,inf]"]),
        lambda e: st.one_of(
            e.map(lambda a: f"-{a}"),
            st.tuples(e, st.sampled_from("+-*/"), e).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})")),
        max_leaves=6)
    prog = st.tuples(expr, expr).map(
        lambda ab: f"var x; var y; mutex m; thread 1 {{ x <- {ab[0]}; }}"
                   f" thread 2 {{ lock(m); while y < 0 do {{ y <- {ab[1]};"
                   " } unlock(m); }")
    text = st.one_of(st.text(max_size=60), soup, prog)
    return st.one_of(text.map(str.encode), st.binary(max_size=40))


@settings(max_examples=150, deadline=None)
@given(_sources(), st.sampled_from(["seq", "interference", "scheduled",
                                    "oracle-scheduled"]))
def test_cli_any_source_exits_cleanly(source, mode):
    """Whatever the file holds, the CLI ends with a documented exit code
    and never lets an exception escape."""
    output = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.conc")
        with open(path, "wb") as fh:
            fh.write(source)
        # any exception but SystemExit escapes and fails the test
        with pytest.raises(SystemExit) as done, redirect_stdout(output), \
                redirect_stderr(output):
            main([path, "--mode", mode, "--unroll", "1",
                  "--budget-states", "2000"])
    assert done.value.code in (0, 1, 2, 3)
    assert "Traceback" not in output.getvalue()
