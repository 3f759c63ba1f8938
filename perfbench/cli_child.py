"""Run one ``cbiou`` command under the benchmark tracer.

Usage: python3 perfbench/cli_child.py SPANS_JSON CBIOU_ARGS...

Times ``import cbiou.cli`` (recorded as the ``cli.import_s`` sample), runs
``cbiou.cli.main`` with every layer wrapped, writes the spans and counts to
SPANS_JSON and exits with the command's exit code.
"""

import sys
import time

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from cbiou import cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.samples["cli.import_s"].append(import_s)
    with tracing.instrumented(tracer):
        code = cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
