"""Traced stand-in for ``python -m slicectl.cli``.

Usage: ``python bench/cli_child.py OUT.json <slicectl arguments...>``

Times ``import slicectl.cli``, installs the same wrappers the in-process
workloads use, runs the command, and writes the span totals and the import
time to OUT.json when the command has finished. The exit code is the
command's own. PYTHONPATH must point at the checkout's ``src``.
"""

import json
import sys
import time

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import slicectl.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = slicectl.cli.main(argv)
    finally:
        tracer.uninstall()
        spans = tracer.dump()
        spans["import_s"] = import_s
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
