"""Traced stand-in for ``python -m extremalcurves``.

    python perfbench/launch.py SPANS_PATH OP_ID [CLI ARGS...]

Times ``import extremalcurves.cli`` as a ``startup.import`` span,
installs the benchmark's wrappers, and runs ``extremalcurves.cli.main``
with the remaining arguments.  The spans go to SPANS_PATH when the
command ends, so stdout, stderr and the exit code stay the program's own.
"""

import sys

from tracing import Tracer


def main() -> None:
    spans_path, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer(op)
    with tracer.span("startup.import"):
        import extremalcurves.cli
    tracer.install()
    sys.argv = ["extremalcurves", *sys.argv[3:]]
    try:
        extremalcurves.cli.main()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
