"""Traced CLI launcher: ``python launcher.py TRACE_FILE OP_ID -- ARGS...``.

Times ``import timberline.cli`` in this fresh interpreter, installs the
benchmark's layer wrappers, runs ``timberline.cli.main(ARGS)`` and writes
the spans to TRACE_FILE.  The exit code is the CLI's.
"""

from __future__ import annotations

import sys
import time

import tracing


def main() -> int:
    trace_file, op_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py TRACE_FILE OP_ID -- ARGS...")
    tracer = tracing.Tracer()
    tracer.op = int(op_id)
    start = time.perf_counter()
    import timberline.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = timberline.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
