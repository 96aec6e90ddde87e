#!/usr/bin/env python3
"""Print the ``selftest_lab`` submodules one CLI command loads.

    PYTHONPATH=src python3 scripts/cli_modules.py COMMAND ARG...

Runs ``cli.run([COMMAND, ARG...])`` inside this fresh process, with the
command's report discarded, then prints one JSON line: the arguments, the
exit code and the sorted names of the loaded submodules.  It calls ``run``,
not ``python -m selftest_lab``'s ``main``, since ``main`` ends the process
before anything here could print.
"""

import contextlib
import json
import os
import sys


def main():
    argv = sys.argv[1:]
    from selftest_lab import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("selftest_lab."))
    print(json.dumps({"argv": argv, "exit": code, "modules": loaded}))


if __name__ == "__main__":
    main()
