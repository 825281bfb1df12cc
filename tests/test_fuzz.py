"""Seeded random and extreme argv through the command line.

Every call runs through ``cli.run`` in one child process under a
timeout, so that a call that hangs fails the test.  It must return an
exit code the CLI documents for these subcommands (0, 2 or 3; the
random draw ends with ``selfcheck`` in each format, which exits 0)
without an exception escaping, and write to stderr exactly when it
fails.  Random integers are drawn from -3..60, with the sizes capped so
the whole run stays short: scan windows up to r = 12, the foursecant
sweep up to n = 40 and ledger genera up to 200.

Extreme integers are +-10**20 only: values from 10**6 to 10**18 would
make some subcommands allocate per unit of the input before failing.
The plane table, scan without --d-max (or with a huge one) and table1
never get one, because their output grows with the input.
"""

import itertools
import json
import random
import subprocess
import sys

from child_env import child_env

FAMILIES = ("hyperelliptic", "trigonal", "bielliptic", "general_fourgonal")


def _ints(rng, count, lo=-3, hi=60):
    return [str(rng.randint(lo, hi)) for _ in range(count)]


def _argv(rng) -> list[str]:
    command = rng.choice(("profile", "classify", "slope", "embed", "bounds", "plane",
                          "scan", "verylast", "table1", "family"))
    if command in ("profile", "classify", "slope"):
        argv = [command, *_ints(rng, 2)]
        if command == "profile" and rng.random() < 0.5:
            argv.append("--lenient")
        if command == "slope" and rng.random() < 0.5:
            argv += ["--gamma", *_ints(rng, 1)]
    elif command == "embed":
        argv = [command, *_ints(rng, 3)]
    elif command == "bounds":
        argv = [command, *_ints(rng, 1), *_ints(rng, 1, hi=200)]
        for _ in range(rng.randint(0, 2)):
            argv += ["--assume", "=".join(_ints(rng, 2))]
    elif command == "plane":
        argv = [command, *_ints(rng, 1)]
        if rng.random() < 0.5:
            argv += ["--r", *_ints(rng, 1)]
    elif command == "scan":
        argv = [command, *_ints(rng, 2, hi=12)]
        if rng.random() < 0.3:
            argv += ["--d-max", *_ints(rng, 1)]
    elif command == "table1":
        argv = [command, "--gamma-max", *_ints(rng, 1),
                "--mode", rng.choice(("paper-faithful", "resolved", "exact"))]
    elif command == "family":
        argv = ["slope", "--family", rng.choice((*FAMILIES, "elliptic"))]
    else:
        argv = [command, *_ints(rng, 1, hi=40)]
    return argv + ["--format", rng.choice(("md", "csv", "json"))]


H, M = str(10**20), str(-10**20)

# A tuple is one integer slot: a small valid value, then the extremes.
TEMPLATES = (
    ("profile", ("10", H, M), ("4", H, M)),
    ("classify", ("13", H, M), ("5", H, M)),
    ("slope", ("13", H, M), ("5", H, M), "--gamma", ("4", H, M)),
    ("embed", ("4", H, M), ("12", H, M), ("3", H, M)),
    ("plane", ("7", H, M), "--r", ("5", H, M)),
    ("bounds", ("4", H, M), ("12", H, M),
     ("--assume=2=7", f"--assume={H}=7", f"--assume={M}=7", f"--assume=2={H}",
      f"--assume=2={M}")),
    ("verylast", ("3", H, M)),
    ("scan", ("3", H, M), ("4", H, M), "--d-max", ("9", M)),
)

EXTREME = [list(argv) + ["--format", fmt]
           for template in TEMPLATES
           for argv in itertools.product(*((s,) if isinstance(s, str) else s
                                           for s in template))
           for fmt in ("md", "csv", "json")]

CHILD = """
import contextlib, io, json, sys
from extremalcurves.cli import run
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            results.append([argv, run(argv), err.getvalue()])
    except BaseException:
        print(argv, file=sys.stderr)
        raise
print(json.dumps(results))
"""


def _run_in_child(argvs: list) -> list:
    """[argv, exit code, stderr] of each argv, run through ``cli.run`` in one
    child process, so that a call that hangs fails the test at the timeout."""
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_random_argv_exit_cleanly():
    rng = random.Random(20260601)
    argvs = [_argv(rng) for _ in range(600)]
    argvs += [["selfcheck", "--format", fmt] for fmt in ("md", "csv", "json")]
    codes = {}
    for argv, code, err in _run_in_child(argvs):
        assert code in (0, 2, 3), (argv, code, err)
        assert (code == 0) == (err == ""), (argv, code, err)
        codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 2, 3}, codes


def test_extreme_integers_exit_cleanly():
    results = _run_in_child(EXTREME)
    assert len(results) == len(EXTREME) == 3 * 147
    codes = {}
    for argv, code, err in results:
        assert code in (0, 2, 3), (argv, code, err)
        assert (code == 0) == (err == ""), (argv, code, err)
        codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 2, 3}, codes
