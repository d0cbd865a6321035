"""Run the primeavg command line with the span recorder installed.

    python perfbench/traced_cli.py TRACE_DIR <primeavg arguments>

Behaves like ``python -m primeavg.cli <primeavg arguments>`` and writes the
spans of this process and of its pool workers under TRACE_DIR.
"""

import sys

import tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer.install(trace_dir)
    from primeavg import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
