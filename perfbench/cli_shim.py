"""`python -m polydet.cli` with the tracer installed, for traced CLI runs.

Exits exactly as the CLI does (uncaught exceptions still end in a traceback
and exit code 1) and writes its import time stamp, time in main(), layer
totals and absent entry points as JSON to the file named by
PERFBENCH_CHILD_OUT.
"""
import json
import os
import sys
import time

import polydet.cli

t_imported = time.monotonic()

import tracer as tr  # noqa: E402  (after the timed import of the program)


def run() -> int:
    tracer = tr.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return polydet.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        with open(os.environ["PERFBENCH_CHILD_OUT"], "w") as fh:
            json.dump({"t_imported": t_imported, "main_s": main_s,
                       "totals": tracer.totals(),
                       "absent": tracer.absent}, fh)


if __name__ == "__main__":
    sys.exit(run())
