"""Run one qheis command under the benchmark's layer trace.

    python perfbench/cli_child.py TRACE_FILE ARG...

behaves like ``python -m qheis.cli ARG...`` (same streams, same exit code)
and writes the layer trace of the call, with the time taken to import
``qheis.cli``, to TRACE_FILE as JSON.
"""

import json
import sys
import time


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qheis.cli

    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    tracer.timers[("task", "cli.import_s")] = import_s
    tracer.install()
    try:
        code = qheis.cli.main(argv)
    except SystemExit as e:  # argparse rejects the command line
        code = e.code
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_file, "w") as f:
            json.dump({"snapshot": tracer.snapshot(), "spans": tracer.spans, "spans_dropped": tracer.spans_dropped}, f)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
