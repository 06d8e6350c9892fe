"""Run one illposed CLI command with layer tracing and save the trace.

    python perfbench/traced_child.py TRACE_JSON SUBCOMMAND [ARGS...]

Behaves like `python -m illposed.cli SUBCOMMAND [ARGS...]` (same outputs,
same exit code) and then writes the import time and the span aggregates of
the command to TRACE_JSON.
"""

import json
import sys
import time

import layertrace


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from illposed import cli
    import_s = time.perf_counter() - t0
    tracer = layertrace.Tracer()
    with layertrace.traced(tracer), tracer.span(f"cli.main_{argv[0].replace('-', '_')}"):
        code = cli.main(argv)
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "stats": tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
