"""The environment for a child interpreter: this process's environment with
the directory of the package under test first on PYTHONPATH, so the child
imports the same ``extremalcurves`` as the tests."""

import os
from pathlib import Path

import extremalcurves

SRC = str(Path(extremalcurves.__file__).resolve().parents[1])


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
