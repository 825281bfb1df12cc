"""Start-up cost guard: a subcommand imports only its own layer.

Each check runs in a fresh interpreter and compares ``sys.modules`` with
what the bare interpreter had already loaded, so the result does not
depend on what this test process has imported.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extremalcurves

SRC = str(Path(extremalcurves.__file__).resolve().parents[1])

HEAVY = {"dataclasses", "random", "csv", "json"}

CHILD = """
import io, sys
bare = set(sys.modules)
import extremalcurves.cli
on_import = set(sys.modules) - bare
stdout, sys.stdout = sys.stdout, io.StringIO()
code = extremalcurves.cli.run({argv!r})
out, sys.stdout = sys.stdout.getvalue(), stdout
on_run = set(sys.modules) - bare - on_import
print(code, repr(out))
print(" ".join(sorted(on_import)))
print(" ".join(sorted(on_run)))
"""


def _child(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_profile_loads_only_its_layer():
    result, on_import, on_run = _child(CHILD.format(argv=["profile", "10", "4"]))
    assert result == "0 'm=3 eps=0 pi=9\\n'"
    on_import, on_run = set(on_import.split()), set(on_run.split())
    assert not HEAVY & (on_import | on_run)
    ours = {m for m in on_import if m.startswith("extremalcurves")}
    assert ours == {"extremalcurves", "extremalcurves.cli", "extremalcurves.errors"}
    ours = {m for m in on_run if m.startswith("extremalcurves")}
    assert ours == {"extremalcurves.castelnuovo"}


@pytest.mark.parametrize("argv", [["bounds", "4", "12"]], ids=" ".join)
def test_ledger_commands_skip_the_model_layers(argv):
    result, on_import, on_run = _child(CHILD.format(argv=argv))
    assert result.startswith("0 ")
    loaded = set(on_import.split()) | set(on_run.split())
    assert "extremalcurves.gonality" in loaded
    assert not {"extremalcurves.extremal", "extremalcurves.lattice"} & loaded


# the package modules a subcommand loads when it runs, on top of the cli's
# own: the ledger and the lattice only where the command uses them
RUN_LAYERS = {
    "scan 3 4": "castelnuovo extremal tables verdicts",
    "classify 13 5": "castelnuovo extremal tables",
    "slope 13 5": "castelnuovo extremal tables verdicts",
    "table1": "tables",
    "plane 7": "castelnuovo tables verdicts",
}


@pytest.mark.parametrize("argv", sorted(RUN_LAYERS))
def test_subcommand_loads_only_its_layers(argv):
    result, _, on_run = _child(CHILD.format(argv=argv.split()))
    assert result.startswith("0 ")
    ours = {m for m in on_run.split() if m.startswith("extremalcurves")}
    assert ours == {f"extremalcurves.{m}" for m in RUN_LAYERS[argv].split()}


ARGUMENTS = """
import argparse, io, sys
import extremalcurves.cli
progs = []
add_argument = argparse.ArgumentParser.add_argument
def counting(self, *args, **kwargs):
    progs.append(self.prog)
    return add_argument(self, *args, **kwargs)
argparse.ArgumentParser.add_argument = counting
stdout, sys.stdout = sys.stdout, io.StringIO()
code = extremalcurves.cli.run({argv!r})
sys.stdout = stdout
print(code, " ".join(sorted({{p for p in progs if p.startswith("extremalcurves ")}})))
"""


@pytest.mark.parametrize("argv", [
    ["scan", "3", "4"], ["plane", "7", "--format", "csv"], ["selfcheck", "--help"], ["--version"],
], ids=" ".join)
def test_run_builds_only_the_named_subparser(argv):
    # only the parsers that get arguments count: the others cost a name and a help line
    built = "" if argv[0].startswith("-") else f"extremalcurves {argv[0]}"
    assert _child(ARGUMENTS.format(argv=argv)) == [f"0 {built}"]


def test_no_module_uses_dataclasses():
    names = sorted(p.stem for p in Path(extremalcurves.__file__).parent.glob("*.py")
                   if p.stem not in ("__init__", "__main__"))
    code = ("import importlib, sys\n"
            "bare = set(sys.modules)\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('extremalcurves.' + name)\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))\n")
    (loaded,) = _child(code)
    loaded = set(loaded.split())
    assert {f"extremalcurves.{name}" for name in names} <= loaded
    assert "dataclasses" not in loaded


def test_every_public_name_resolves():
    for name in extremalcurves.__all__:
        assert getattr(extremalcurves, name) is not None


def test_every_public_definition_lives_where_the_table_says():
    # the lazy table names each definition's module; a moved definition must move there too
    defined = 0
    for name, module in extremalcurves._HOME.items():
        value = getattr(extremalcurves, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == f"extremalcurves.{module}", name
            defined += 1
    assert defined == len(extremalcurves._HOME) - 4  # the field tuples and the stars
