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
    "large/interference/decreasing": "c41ef08a06656547",
    "large/interference/default": "60fb931d96a1d82a",
    "large/interference/delay0": "2228c6efeda6baae",
    "large/interference/self": "a15fcfcf27b27dc5",
    "large/scheduled-no-mono/decreasing": "b14a00ede33beb4e",
    "large/scheduled-no-mono/default": "2547aad7c1797d06",
    "large/scheduled-no-mono/delay0": "33f72bbc9ae907f4",
    "large/scheduled/decreasing": "54d9b76b06fdc07c",
    "large/scheduled/default": "781e41be0ebf022a",
    "large/scheduled/delay0": "4f1644381147fea7",
    "large/seq/decreasing": "86551006a5391673",
    "large/seq/default": "3213285c1f217c88",
    "large/seq/delay0": "7780ecf1f83d89ac",
    "seq/interference/decreasing": "eec5d1fd88a6af1c",
    "seq/interference/default": "fa47c13636c423b8",
    "seq/interference/delay0": "23b13e6d83447542",
    "seq/interference/self": "5ca6de54d776bcc8",
    "seq/seq/decreasing": "5c43a7b415e3307f",
    "seq/seq/default": "7ac09315987fed67",
    "seq/seq/delay0": "f5cf82a996db1f11",
    "sweep/interference/decreasing": "ae7baa0dfd731d9c",
    "sweep/interference/default": "1b48805ce49db7ec",
    "sweep/interference/delay0": "27a6ba9b49f05a3f",
    "sweep/interference/self": "f10737b2b02f3b79",
    "sweep/scheduled-no-mono/decreasing": "8150ffa47b323852",
    "sweep/scheduled-no-mono/default": "2ac8cdad3d81f94d",
    "sweep/scheduled-no-mono/delay0": "e26a8b070115aefc",
    "sweep/scheduled/decreasing": "8f3a95475bc9803b",
    "sweep/scheduled/default": "cd49e83d72ffd596",
    "sweep/scheduled/delay0": "c5366ef4bb0e4c2d",
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
