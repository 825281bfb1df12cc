"""The README's examples, run as written.

Each ``$ extremalcurves ...`` block of the Command line section runs
through ``cli.run`` with stderr merged into stdout, and must print the
lines that follow it.  The shell suffixes the examples use are applied
to the result: ``| head -N`` keeps the first N lines, and
``; echo "exit $?"`` appends the exit code.  The Library example block
runs as Python.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from extremalcurves.cli import run

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

EXAMPLES = re.findall(r"^    \$ extremalcurves (.*)\n((?:    .*\n)+)", README, re.MULTILINE)


def _shell(command: str) -> str:
    command, echo, _ = command.partition('; echo "exit $?"')
    command, pipe, head = command.partition(" | head -")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = run(shlex.split(command))
    lines = buf.getvalue().splitlines()
    if pipe:
        lines = lines[:int(head)]
    if echo:
        lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def test_readme_has_its_examples():
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_command_line_example(command, expected):
    assert _shell(command) == re.sub(r"^    ", "", expected, flags=re.MULTILINE)


def test_library_example():
    (code,) = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(code, {})
    assert out.getvalue() == "violated\n"
