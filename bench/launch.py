"""Traced stand-in for ``python -m wedgespec.cli``.

Usage: ``BENCH_TRACE_FILE=spans.json python3 bench/launch.py ARGS...``.
Imports the CLI, wraps the package's public functions, runs ``main(ARGS)``
and writes the spans to BENCH_TRACE_FILE; the exit code is main's.
"""

import os
import sys

from wedgespec import cli

import tracing


def main():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["BENCH_TRACE_FILE"])
    return code


if __name__ == "__main__":
    sys.exit(main())
