"""Run one ``selftest-lab`` command under the tracer in a fresh process.

Usage: ``python perfbench/traced_cli.py SPANS.json SPAWNED ARG...`` with the
package on ``PYTHONPATH``.  Stdout, stderr and the exit code are those of
``python -m selftest_lab ARG...``; the spans go to ``SPANS.json`` when the
command ends.  SPAWNED is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so the ``cli.import`` span covers interpreter start-up as well as
the package import, as a user's fresh ``selftest-lab`` process pays both.
"""

import json
import sys
from time import perf_counter


def main():
    spans_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import selftest_lab.cli as cli

    from tracer import IMPORT_SPAN, Tracer

    tracer = Tracer()
    tracer.spans.append([IMPORT_SPAN, spawned, perf_counter(), -1, -1, False])
    tracer.install()
    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
