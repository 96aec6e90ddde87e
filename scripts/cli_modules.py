#!/usr/bin/env python3
"""Print the ``selftest_lab`` submodules one CLI command loads.

    PYTHONPATH=src python3 scripts/cli_modules.py COMMAND ARG...

Runs ``python -m selftest_lab COMMAND ARG...`` inside this fresh process,
with the command's report discarded, then prints one JSON line: the
arguments, the exit code and the sorted names of the loaded submodules.
"""

import contextlib
import json
import os
import runpy
import sys


def main():
    argv = sys.argv[1:]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            runpy.run_module("selftest_lab", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as exc:
            code = exc.code
    loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("selftest_lab."))
    print(json.dumps({"argv": argv, "exit": code, "modules": loaded}))


if __name__ == "__main__":
    main()
