"""Long threads and deep expressions pass through every walker.

Blocks are n-ary, so recursion depth follows if/while nesting, not the
number of statements, and every expression walker keeps an explicit stack:
these run under the default recursion limit.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

from racebox.concrete import paths
from racebox.domains import Interval
from racebox.interference import analyze_program_I
from racebox.oracle import run_interleavings, run_scheduled
from racebox.parser import MAX_NESTING, ParseError, parse_program
from racebox.report import (
    ANALYZER_MODES,
    CHECK_MODES,
    RunConfig,
    analyze_source,
    report_to_json,
)
from racebox.sched import analyze_program_C, unpartitioned
from racebox.seq import analyze_program_seq
from racebox.syntax import pretty_expr, pretty_program
from reference_semantics import exec_stmt, initial_state

N = 3_000
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_three_thousand_statement_thread(tmp_path):
    src = "thread 1 {\n" + "".join(
        f"  v{i % 3} <- v{i % 3} + 1;\n" for i in range(N)) + "}\n"
    final = (N // 3,) * 3
    p = parse_program(src)
    assert parse_program(pretty_program(p)) == p

    ps = paths(p.threads[0].body, 0)
    assert not ps.truncated
    assert [len(path) for path in ps.paths] == [N]
    assert exec_stmt(p.threads[0].body, initial_state(p)).envs == {final}

    seq = analyze_program_seq(p)
    assert not seq.omega
    assert unpartitioned(seq.per_thread[1].final).get("v2") == Interval(
        N // 3, N // 3)
    assert not analyze_program_I(p).omega
    assert not analyze_program_C(p).omega

    for run in (run_interleavings, run_scheduled):
        res = run(p, unroll=0)
        assert not res.truncated and not res.errors
        assert res.terminal_envs == {final}

    f = tmp_path / "long.conc"
    f.write_text(src)
    r = subprocess.run([sys.executable, "-m", "racebox.cli", str(f),
                        "--mode", "seq"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "no alarms" in r.stdout


# thread 1's deep expression reads x, which thread 2 writes; y is the
# expression's value once x reads 1
DEEP = {
    "sum": (" + ".join(["x"] * 20_000), 20_000),
    "neg": ("- " * 5_000 + "x", 1),
    "paren": ("x - (" * 5_000 + "x" + ")" * 5_000, 1),
}


@pytest.mark.parametrize("shape", DEEP)
def test_deep_expression(tmp_path, shape):
    expr, y1 = DEEP[shape]
    src = f"thread 1 {{ y <- {expr}; }}\nthread 2 {{ x <- 1; }}\n"
    p = parse_program(src)
    q = parse_program(pretty_program(p))
    assert q == p and hash(q) == hash(p)

    seq = analyze_program_seq(p._replace(threads=p.threads[:1]))
    assert not seq.omega
    assert unpartitioned(seq.per_thread[1].final).get("y") == Interval(0, 0)
    for analyze in (analyze_program_I, analyze_program_C):
        res = analyze(p)
        assert not res.omega

    # (x, y): thread 1 reads x before or after thread 2 writes it; the
    # higher-priority thread 2 runs first under the scheduler
    assert run_interleavings(p, unroll=0).terminal_envs == {(1, 0), (1, y1)}
    assert run_scheduled(p, unroll=0).terminal_envs == {(1, y1)}

    f = tmp_path / "deep.conc"
    f.write_text(src)
    r = subprocess.run([sys.executable, "-m", "racebox.cli", str(f),
                        "--mode", "scheduled"], capture_output=True, text=True)
    assert r.returncode in (0, 1), r.stderr


NESTED = {  # one nesting level, holding two statements
    "if": "if x - 1 < 0 then { x <- x + 1; ",
    "while": "while x - 3 < 0 do { x <- x + 1; ",
    "block": "{ x <- x + 1; ",
}


def _nested(shape: str, depth: int) -> str:
    return ("var x = [0,1]; thread 1 { " + NESTED[shape] * depth
            + "x <- 1 / x;" + " }" * depth + " }")


@pytest.mark.parametrize("shape", NESTED)
def test_deep_nesting(shape):
    """Blocks nested MAX_NESTING deep print back to the same program and
    run through every analyzer, every oracle and the fuzzer; one level
    more is a parse error that names the limit."""
    with pytest.raises(ParseError,
                       match=f"blocks nested more than {MAX_NESTING} deep"):
        parse_program(_nested(shape, MAX_NESTING + 1))
    src = _nested(shape, MAX_NESTING)
    p = parse_program(src)
    q = parse_program(pretty_program(p))
    assert q == p and hash(q) == hash(p)
    for mode in ANALYZER_MODES + CHECK_MODES + ("fuzz",):
        rep = analyze_source(src, RunConfig(mode=mode, unroll=1))
        assert rep["exit_code"] in (0, 1)
        report_to_json(rep)


def test_long_thread_is_bounded_by_states_alone():
    """The oracles' one bound is their state budget: a straight-line
    thread takes one state a statement, however long it is."""
    p = parse_program("thread 1 { " + "x <- 1; " * 10_001 + "}")
    for run, states in ((run_interleavings, 10_002), (run_scheduled, 10_003)):
        res = run(p, unroll=0)
        assert not res.truncated and res.states == states


def test_repr_of_deep_expression():
    """An error message or a failed assertion may show a deep expression."""
    neg = DEEP["neg"][0]
    p = parse_program(f"thread 1 {{ y <- {neg}; z <- (x + 1) / -x; }}")
    neg, div = p.threads[0].body.body
    assert pretty_expr(neg.expr) == "-(" * 4_999 + "-x" + ")" * 4_999
    assert repr(neg) == (f"Assign(sid={neg.sid!r}, var='y',"
                         f" expr=Neg({pretty_expr(neg.expr)!r}))")
    assert repr(div.expr) == "BinOp('(x + 1) / (-x)')"


def test_no_recursion_limit_raised():
    """Depth tests mean "at the default recursion limit" only while
    nothing raises the limit."""
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for top in ("src/racebox", "tests", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == "setrecursionlimit"]
    assert not calls
