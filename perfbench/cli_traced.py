"""Run one `quadsing` CLI call with the layer functions traced.

Usage: python3 perfbench/cli_traced.py SPANS_FILE CLI_ARGS...

Writes the CLI's own output to stdout and, to SPANS_FILE, a JSON object
with the spans ([name, start, end, parent]), the size counts, and the first and
last timestamps of the process; exits with the CLI's code.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, timed_imports  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    timed_imports(tracer)
    tracer.install()
    import quadsing.cli

    code = quadsing.cli.run(argv)
    sys.stdout.flush()
    record = {"start": START, "end": time.perf_counter(),
              "spans": tracer.records(), "sizes": tracer.sizes}
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
