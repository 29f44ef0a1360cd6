"""Traced stand-in for ``python -m loopfusion``: one command-line query per process.

    PYTHONPATH=src python3 perfbench/cli_shim.py SUBCOMMAND [OPTIONS...]

Times the import, installs the span wrappers, runs ``loopfusion.cli.main``
and exits with its code.  After the command's own output it prints one line,
``PERFBENCH_TRACE <json>``, with the per-layer sums of this process.
"""

from __future__ import annotations

import json
import sys
import time

MARKER = "PERFBENCH_TRACE "


def main(argv: list) -> int:
    start = time.perf_counter()
    from loopfusion import cli

    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    run = tracer.span("cli.main", cli.main)
    start = time.perf_counter()
    code = run(argv)
    totals = tracer.layer_totals()
    totals["cli.import_s"] = import_s
    totals["trace.covered_s"] = import_s + time.perf_counter() - start
    sys.stdout.write("\n" + MARKER + json.dumps(totals) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
