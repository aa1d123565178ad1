"""Run one bcspec CLI command with spans around the package's public calls.

Usage: python3 perfbench/traced_cli.py SPAN_FILE OP_ID CLI_ARG...

Behaves like ``python -m bcspec.cli CLI_ARG...`` (same stdout, same exit
code) and writes the op's spans and its import time to SPAN_FILE.  Exits
with code 70 without running the command when a binding is left unwrapped.
"""

import sys
import time

_start = time.perf_counter()
import bcspec.cli  # noqa: E402  (the import is what process.import_s times)

IMPORT_S = time.perf_counter() - _start

from tracer import Tracer, instrument  # noqa: E402

COVERAGE_EXIT = 70


def main() -> int:
    span_file, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer(op)
    missing = instrument(tracer)
    if missing:
        print(f"trace coverage: unwrapped bindings: {', '.join(missing)}", file=sys.stderr)
        return COVERAGE_EXIT
    try:
        code = bcspec.cli.main(sys.argv[3:])
    except SystemExit as exc:  # argparse errors exit from inside main
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    tracer.save(span_file, import_s=IMPORT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
