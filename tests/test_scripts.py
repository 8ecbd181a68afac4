"""The sweep and fuzz scripts' stdout on a small block, seconds masked,
equals lines recorded before criteria 6 and 8 shared their loops; and
report_digests.py --diff lists the digests that moved."""

import json
import re

import pytest

import fuzz_transforms
import report_digests
import soundness_sweep

SWEEP_20 = """\
20 programs, 60 comparisons, 0 partial (truncated), 0 violations, max 5 fixpoint rounds, _s
  interleave/interference: 20 checked, 0 partial, 0 violations
  interleave/scheduled-multi: 20 checked, 0 partial, 0 violations
  scheduled/scheduled-mono: 20 checked, 0 partial, 0 violations
phases: analyzers _s, interleaving oracle _s (39015 states), scheduled oracle _s (373 states)
"""

FUZZ_20 = """\
assign-before-guard      applied     4  skipped    10
assign-propagation       applied     2  skipped    17
expr-simplify            applied     7  skipped     7
guard-before-assign      applied     7  skipped    13
identity-store           applied     8  skipped    16
redundant-store          applied     2  skipped    11
reorder-assigns          applied     0  skipped    16
reorder-guards           applied     7  skipped    10
subexpr-elim             applied    18  skipped     3
24 effective trials, 0 violations, 3 programs
negative controls:
  reorder-assigns without nonblock(e1): detected
  redundant-store without nonblock(e1): detected
  assign-before-guard with shared X2: detected
  expr-simplify without containment: detected
reports sha256 3d0293315e35e77c240ace8a8c925e5ab91aad44d579b46dfb74afef925dba05
"""


@pytest.mark.parametrize("main, argv, want", [
    (soundness_sweep.main, ["20", "31000"], SWEEP_20),
    (fuzz_transforms.main, ["20"], FUZZ_20)], ids=["sweep", "fuzz"])
def test_script_lines(main, argv, want, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["script", *argv])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 0
    assert re.sub(r"\d+\.\ds", "_s", capsys.readouterr().out) == want


def test_report_digests_diff(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"p/seq": "1", "p/fuzz": "2", "q/seq": "3"}))
    b.write_text(json.dumps({"p/seq": "1", "p/fuzz": "9", "r/seq": "4"}))
    for argv, code, out in [
        ([a, a], 0, "0 of 3 keys differ\n"),
        ([a, b], 1, f"p/fuzz differs\nq/seq only in {a}\n"
                    f"r/seq only in {b}\n3 of 4 keys differ\n")]:
        monkeypatch.setattr("sys.argv", ["script", "--diff", *map(str, argv)])
        with pytest.raises(SystemExit) as exit_:
            report_digests.main()
        assert exit_.value.code == code
        assert capsys.readouterr().out == out
