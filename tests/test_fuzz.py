"""Seeded random argv through the command line.

Every call must return an exit code the CLI documents for these
subcommands (0, 2 or 3) without an exception escaping.  Integers are
drawn from -3..60, with the sizes capped so the whole run stays short:
scan windows up to r = 12, the foursecant sweep up to n = 40 and ledger
genera up to 200.
"""

import random

from extremalcurves.cli import run


def _ints(rng, count, lo=-3, hi=60):
    return [str(rng.randint(lo, hi)) for _ in range(count)]


def _argv(rng) -> list[str]:
    command = rng.choice(
        ("profile", "classify", "slope", "embed", "bounds", "plane", "scan", "verylast"))
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
    else:
        argv = [command, *_ints(rng, 1, hi=40)]
    return argv + ["--format", rng.choice(("md", "csv", "json"))]


def test_random_argv_exit_cleanly(capsys):
    rng = random.Random(20260601)
    codes = {}
    for _ in range(600):
        argv = _argv(rng)
        code = run(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code, err)
        assert (code == 0) == (err == ""), (argv, code, err)
        codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 2, 3}, codes
