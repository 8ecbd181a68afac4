"""The benchmark's traced pass reaches into racebox by name: every span
boundary must resolve, and the replay probes' call shapes must still be
accepted.  This catches an API cleanup that would break the benchmark
without failing any analyzer test."""

import importlib
import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("mod,fn", [(b[0], b[1]) for b in
                                    _load("tracing").BOUNDARIES])
def test_trace_boundary_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"racebox.{mod}"), fn))


def test_replay_probes_call_shapes(corpus, monkeypatch):
    probes = _load("probes")
    monkeypatch.setattr(probes, "MIN_PROBE_S", 0)  # one pass over each case
    out = probes.sched_domain_probes([corpus("priority_mutex"),
                                      corpus("producer_consumer")])
    assert out["apply_sched"] > 0 and out["in_sharp"] > 0
    assert all(v > 0 for v in out.values())


def test_cli_call_shape(capsys):
    """The paced and traced cli-cold wrappers call main(argv, prog_name=...)
    in process and read the exit code from SystemExit."""
    import racebox.cli

    corpus = PERFBENCH.parent / "corpus"
    expected = (corpus / "priority_mutex.expected.json").read_bytes()
    with pytest.raises(SystemExit) as done:
        racebox.cli.main([str(corpus / "priority_mutex.conc"), "--mode",
                          "scheduled", "--json"], prog_name="analyze")
    assert done.value.code == json.loads(expected)["exit_code"]
    assert capsys.readouterr().out.encode() == expected
