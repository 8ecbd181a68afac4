"""The analyze CLI with boundary spans, for traced cli-cold runs.

Usage: traced_cli.py <analyze arguments>; the spans are written as JSON
to the file named by PERFBENCH_SPANS when the CLI exits.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402

import racebox.cli  # noqa: E402

tracer = Tracer()
install(tracer)
code = 0
try:
    racebox.cli.main(sys.argv[1:], prog_name="analyze")
except SystemExit as done:
    code = done.code
finally:
    sys.stdout.flush()
    Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(tracer.spans))
sys.exit(code)
