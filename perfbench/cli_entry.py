"""Traced stand-in for `python -m classrecon.cli`, run in a fresh interpreter.

    python -X importtime perfbench/cli_entry.py SPANS_FILE ARGS...

Times `import classrecon.cli` as the span `cli.import` (with the sympy
share read from -X importtime by the caller), runs the CLI with the
tracer installed, writes the spans to SPANS_FILE and exits with the CLI's
exit code.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    start = perf_counter()
    import classrecon.cli

    end = perf_counter()
    from tracer import Tracer

    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.span("cli.import", start, end)
    tracer.install()
    try:
        code = classrecon.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
