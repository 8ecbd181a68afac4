"""The analyze CLI with kernel runs (see pace.py) at its start, every
INTERVAL_S, after its imports and at its exit, for untraced
cli-cold runs.

Usage: paced_cli.py <analyze arguments>; the kernel runs' midpoints and
times are written as JSON to the file named by PERFBENCH_PACE when the
CLI exits.  perf_counter is the system's monotonic clock, so the worker
can place them among its own.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pace import Pace  # noqa: E402

pace = Pace()
pace.sample()
pace.start()

import racebox.cli  # noqa: E402

pace.sample()
code = 0
try:
    racebox.cli.main(sys.argv[1:], prog_name="analyze")
except SystemExit as done:
    code = done.code
finally:
    sys.stdout.flush()
    pace.stop()
    pace.sample()
    Path(os.environ["PERFBENCH_PACE"]).write_text(
        json.dumps([pace.at, pace.secs]))
sys.exit(code)
