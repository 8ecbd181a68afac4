#!/usr/bin/env python3
"""racebox benchmark: one workload per call, in fresh worker processes.

Usage:
  python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of an untraced worker.  --trace 1
prints the per-layer metrics of a worker whose later passes are traced,
with the tracing overhead against its untraced passes.  setup_s is the
median over SETUP_SAMPLES process starts, each timed from spawn to the
worker's READY line (interpreter, `import racebox`, inputs) and scaled
to the reference speed by the kernel runs the worker made meanwhile
(see pace.py).
The last line of stdout is the result; the line before it holds the
machine block and the full worker report (also saved under out/).  Exits 1 when an output check
fails and 2 when the checkout holds no racebox sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from pace import mean_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "analyze-large", "fuzz", "cli-cold")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170


def _worker(args, trace: int,
            setup_only: bool = False) -> tuple[float, float, dict]:
    """Start one worker; return (seconds until READY, the same at the
    reference speed, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=RUN_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, _, kernel_secs = ready.partition(" ")
    if word != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return setup_s, setup_s * mean_speed(json.loads(kernel_secs)), (
        json.loads(rest.strip().splitlines()[-1]) if not setup_only else {})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    if not (ROOT / "src" / "racebox" / "__init__.py").is_file():
        print(f"no racebox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # setup samples before and after the measured worker, so that a slow
    # phase of the machine does not decide the median alone
    setups = [_worker(args, 0, setup_only=True)[:2]
              for _ in range(SETUP_SAMPLES // 2)]
    *setup, rep = _worker(args, args.trace)
    setups += [tuple(setup)] + [_worker(args, 0, setup_only=True)[:2]
                                for _ in range(SETUP_SAMPLES // 2)]
    if args.trace:
        from metrics import PER_LAYER as units
        metrics = rep["layers"]
    else:
        from metrics import END_TO_END as units
        metrics = dict(rep["metrics"],
                       setup_s=statistics.median(s for _, s in setups))
    detail = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "setup_samples_s": {"wall": [w for w, _ in setups],
                            "scaled": [s for _, s in setups]},
        "report": rep,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(detail))
    correct = rep["correct"]
    print(json.dumps({
        "correct": correct,
        "attempted": rep["runs"],
        "failed": rep["failed_hard"],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
