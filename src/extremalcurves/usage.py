"""The argparse parser over the command line grammar, ``cli.COMMANDS``.

``cli.run`` reads a plain argv off the grammar itself and builds this
parser, every subparser with all its arguments, only for the rest: help,
usage, ``--version`` and every error message come from here alone.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, cli


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse's own drops the error of a failed write: help or version
        # text that cannot reach stdout must fail the call like other output
        if message and file is sys.stdout is not None:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extremalcurves",
        description="Numerical invariants of extremal curves and their gonality sequences.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, *arguments) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for arg, kwargs in (cli.FORMAT, *arguments):
            p.add_argument(arg, **{key: cli._late(value) for key, value in kwargs.items()})
    return parser
