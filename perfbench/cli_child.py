"""Run one ``sandbag`` CLI command with span tracing, for traced cli_mix runs.

Usage: python3 perfbench/cli_child.py <sandbag arguments...>

Behaves like ``python -m sandbag`` (same stdout, same exit code) and
adds one line to stderr, ``PERFBENCH_TRACE {json}``, holding the span
aggregates and the time spent inside ``sandbag.cli.main``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import sandbag.cli  # noqa: E402

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
t1 = time.perf_counter()
code = sandbag.cli.main(sys.argv[1:])
main_s = time.perf_counter() - t1
sys.stdout.flush()
snap = tracer.snapshot()
snap["main_s"] = main_s
sys.stderr.write("PERFBENCH_TRACE " + json.dumps(snap) + "\n")
sys.exit(code)
