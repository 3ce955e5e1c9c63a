"""Run the ``aluthge`` CLI with the benchmark's spans installed.

Usage: python3 bench/cli_traced.py TRACE_OUT [aluthge CLI arguments...]

Behaves like ``python3 -m aluthge.cli`` (same stdout, stderr and exit
code) and writes the aggregated trace of the call, with the ``cli.main``
span inside it, to TRACE_OUT as JSON.
"""

import json
import sys

from tracer import Tracer, install

import aluthge.cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    tracer.open_op("cli")
    try:
        code = aluthge.cli.main(argv)
    finally:
        tracer.close_op()
        with open(out_path, "w", encoding="utf-8") as fp:
            json.dump(tracer.trace.to_doc(), fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
