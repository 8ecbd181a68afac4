"""A long straight-line thread passes through every statement walker.

Blocks are n-ary, so recursion depth follows if/while nesting, not the
number of statements: this runs under the default recursion limit.
"""

import subprocess
import sys

from racebox.concrete import exec_stmt, initial_state, paths
from racebox.domains import Interval
from racebox.interference import analyze_program_I
from racebox.oracle import run_interleavings, run_scheduled
from racebox.parser import parse_program
from racebox.sched import analyze_program_C
from racebox.seq import analyze_program_seq
from racebox.syntax import pretty_program

N = 3_000


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
    assert seq.final.get("v2") == Interval.const(N // 3)
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
