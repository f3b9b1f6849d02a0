"""Run one disclim CLI command with the benchmark's tracer installed.

    python -X importtime perfbench/cli_shim.py SPANS_JSON <disclim arguments>

disclim is imported before anything of the benchmark's, so ``-X importtime``
charges the package with the same modules a plain ``python -m disclim``
loads.  The spans and counts are written to SPANS_JSON when the command ends.
"""

import sys

import disclim.cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return disclim.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
