"""One traced `tiltlab run`: python3 child.py TRACE_PATH run CONFIG [options].

The arguments after TRACE_PATH are handed to tiltlab's CLI unchanged. The
environment variable PERFBENCH_T0 holds the time.monotonic() stamp the
benchmark took just before spawning this process; the root span opens there,
so interpreter start and imports land in cli.self_s. The spans are written to
TRACE_PATH after the run, and the exit code is the CLI's.
"""

import os
import sys

import tiltlab.cli

import tracing

if __name__ == "__main__":
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    code = tracer.run_root(float(os.environ["PERFBENCH_T0"]), lambda: tiltlab.cli.main(argv))
    tracer.dump(trace_path)
    sys.exit(code)
