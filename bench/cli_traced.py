"""`python -m flpdl.cli ARGS` with spans, for the traced run of the cli workload.

Usage: BENCH_SPANS=out.json PYTHONPATH=src python3 bench/cli_traced.py ARGS

Same exit code, stdout and stderr as the plain command; an exception that
escapes main still ends in a traceback and exit 1. The spans (the import of
flpdl, main, and every wrapped library call) are written to BENCH_SPANS when
the process ends.
"""

import json
import os
import sys
import time

started = time.perf_counter()
import flpdl.cli  # noqa: E402

imported = time.perf_counter()

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.record("cli.import", started, imported)
tracing.install(tracer)
try:
    code = tracer.wrap(flpdl.cli.main, "cli.main")(sys.argv[1:])
finally:
    with open(os.environ["BENCH_SPANS"], "w") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
