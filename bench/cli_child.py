"""Traced ``tbsl`` command for the cli_cold workload.

Usage: python -X importtime bench/cli_child.py STATS_JSON ARG...

Installs the span wrappers of :mod:`tracing`, runs ``tbsl.cli.main`` on
the arguments, and writes per-layer calls and self times to STATS_JSON.
"""

import json
import sys

import tracing

tracer = tracing.Tracer()
tracer.install()
tracer.op = 0

import tbsl.cli  # noqa: E402  (imported once the wrappers are in place)

try:
    code = tbsl.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.layer_totals(), fh)
sys.exit(code)
