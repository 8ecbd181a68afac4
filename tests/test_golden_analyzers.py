"""Golden analyzer reports: sha256 digests of `report_to_json` for the
seq, interference, scheduled and scheduled --no-mono modes, recorded with
the three separate structural interpreters that preceded the shared
engine.  The engine and its adapters must reproduce them byte for byte."""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

from racebox.randgen import (
    GeneratorConfig, random_program, random_seq_program, sweep_program)
from racebox.report import RunConfig, build_report, report_to_json
from racebox.seq import MultiThreadInput
from racebox.syntax import pretty_program

MODES = {
    "seq": dict(mode="seq"),
    "interference": dict(mode="interference"),
    "scheduled": dict(mode="scheduled"),
    "scheduled-no-mono": dict(mode="scheduled", mono=False),
}

LARGE_CFG = dict(max_threads=4, n_vars=12, n_mutexes=4, sync_prob=0.35,
                 max_branching=4)


def _blocks():
    """(block name, programs): the sweep, seq and analyze-large inputs."""
    sweep = [sweep_program(seed) for seed in range(31_200, 31_240)]
    seq = [random_seq_program(random.Random(9_000 + i),
                              GeneratorConfig(div_prob=0.45), loop_free=False)
           for i in range(40)]
    large = []
    for i in range(4):
        rng = random.Random(i)
        cfg = GeneratorConfig(max_stmts=rng.choice((12, 24, 48, 96)),
                              **LARGE_CFG)
        large.append(random_program(rng, cfg))
        large.append(random_seq_program(rng, cfg, loop_free=False))
    return {"sweep": sweep, "seq": seq, "large": large}


def _settings(p, mode):
    out = {
        "default": {},
        "decreasing": dict(decreasing_pass=True),
        "delay0": dict(widening_delay=0),
    }
    if mode == "interference":  # the one analyzer that reads it
        out["self"] = dict(self_interference=(p.threads[0].tid,))
    return out


def golden_digests() -> dict[str, str]:
    """One digest per (block, mode, settings): every report of the block,
    or the exception class where the mode rejects a program.  The
    single-thread seq block skips the scheduled modes, to keep the test
    short."""
    hashes: dict[str, "hashlib._Hash"] = {}
    for block, programs in _blocks().items():
        for p in programs:
            src = pretty_program(p)
            for mode, base in MODES.items():
                if block == "seq" and mode.startswith("scheduled"):
                    continue
                for name, extra in _settings(p, mode).items():
                    h = hashes.setdefault(f"{block}/{mode}/{name}",
                                          hashlib.sha256())
                    try:
                        rep = build_report(p, src, RunConfig(**base, **extra))
                        h.update(report_to_json(rep).encode())
                    except (MultiThreadInput, ValueError) as e:
                        h.update(f"raised {type(e).__name__}\n".encode())
    return {k: h.hexdigest()[:16] for k, h in sorted(hashes.items())}


GOLDEN = {
    "large/interference/decreasing": "3c06af3b6d26277d",
    "large/interference/default": "2dfd650d7db40e9f",
    "large/interference/delay0": "7f6a7b5a592ffe17",
    "large/interference/self": "5b4ef9b3f4d8c9ac",
    "large/scheduled-no-mono/decreasing": "c0ce814dd3bd15c0",
    "large/scheduled-no-mono/default": "434ef28fc45d6abf",
    "large/scheduled-no-mono/delay0": "72151df79ceb2841",
    "large/scheduled/decreasing": "ddc11b4480c5741c",
    "large/scheduled/default": "a347a06361e53ac2",
    "large/scheduled/delay0": "55a43c12ce7ad94c",
    "large/seq/decreasing": "3da66e85409222a9",
    "large/seq/default": "b19a899c21c32df9",
    "large/seq/delay0": "03c1091da7e13af1",
    "seq/interference/decreasing": "4e7175e521d3bb72",
    "seq/interference/default": "a08c87d7273274b0",
    "seq/interference/delay0": "e03588e7a7d9628f",
    "seq/interference/self": "e8806b878a79f879",
    "seq/seq/decreasing": "e7ee59a3de200c25",
    "seq/seq/default": "98a82a4be9afcb00",
    "seq/seq/delay0": "4cc746cd2327524e",
    "sweep/interference/decreasing": "c8310786bdc515bc",
    "sweep/interference/default": "d6c28526b691832f",
    "sweep/interference/delay0": "3b844a69c864efe0",
    "sweep/interference/self": "b0c15c865147c50c",
    "sweep/scheduled-no-mono/decreasing": "122c885f4666f98d",
    "sweep/scheduled-no-mono/default": "33ab5302dfb6c631",
    "sweep/scheduled-no-mono/delay0": "8d7914405b25a05c",
    "sweep/scheduled/decreasing": "506232dd90efebc6",
    "sweep/scheduled/default": "1c6af02532cdb68b",
    "sweep/scheduled/delay0": "ea8e2d45a6565c7f",
    "sweep/seq/decreasing": "e637ee75f60a831f",
    "sweep/seq/default": "0e7f963b4693537a",
    "sweep/seq/delay0": "06ba53e4e742e219",
}


def test_golden_analyzer_reports():
    assert golden_digests() == GOLDEN


HASH_SEED_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from test_golden_analyzers import _blocks
from racebox.report import RunConfig, build_report, report_to_json
from racebox.syntax import pretty_program
for p in _blocks()["large"][::2]:  # the multi-thread programs
    for mono in (True, False):
        rep = build_report(p, pretty_program(p),
                           RunConfig(mode="scheduled", mono=mono))
        sys.stdout.write(report_to_json(rep))
"""


def test_scheduled_reports_independent_of_hash_seed():
    """The engine keeps configurations and mutex sets in hash order; the
    reports must not depend on it."""
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src")]
        + [x for x in [env.get("PYTHONPATH")] if x])
    outs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        r = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT.format(tests=str(tests))],
            env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count('"schema_version"') == 8
