"""Run one fueterlab CLI command with spans recorded, for the traced passes
of the cli_cold workload:

    python3 bench/cli_shim.py SPANS_JSON <fueterlab arguments>

The import of fueterlab.cli is the span `cli.import`; `main` and the layers
it calls get the probes of spans.py.  The spans and counters are written to
SPANS_JSON when the command returns, and the exit code is the command's.
"""

import json
import sys

import spans

tracer = spans.Tracer()
idx = tracer.open(spans.IMPORT_SPAN)
import fueterlab.cli  # noqa: E402

tracer.close(idx)

code = 1
try:
    with spans.traced(tracer):
        code = fueterlab.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as f:
        json.dump(tracer.dump(), f)
sys.exit(code)
