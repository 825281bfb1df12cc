"""Start-up cost guard: a subcommand imports only its own layer.

Each check runs in a fresh interpreter and compares ``sys.modules`` with
what the bare interpreter had already loaded, so the result does not
depend on what this test process has imported.
"""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import extremalcurves
from child_env import child_env

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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
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
    assert ours == {"extremalcurves.castelnuovo", "extremalcurves.commands"}


@pytest.mark.parametrize("argv", [["bounds", "4", "12"]], ids=" ".join)
def test_ledger_commands_skip_the_model_layers(argv):
    result, on_import, on_run = _child(CHILD.format(argv=argv))
    assert result.startswith("0 ")
    loaded = set(on_import.split()) | set(on_run.split())
    assert "extremalcurves.gonality" in loaded
    assert not {"extremalcurves.extremal", "extremalcurves.lattice"} & loaded


# the package modules a subcommand loads when it runs, on top of the cli's
# own: the ledger and the lattice only where the command uses them, and the
# handlers' module for every command but scan, whose handler is the cli's
RUN_LAYERS = {
    "scan 3 4": "castelnuovo extremal tables verdicts",
    "bounds 4 12": "commands gonality tables",
    "embed 4 12 3": "castelnuovo commands extremal lattice",
    "classify 13 5": "castelnuovo commands extremal tables",
    "slope 13 5": "castelnuovo commands extremal tables verdicts",
    "table1": "commands summary tables",
    "plane 7": "castelnuovo commands tables verdicts",
    "verylast 5": "castelnuovo commands extremal gonality lattice tables",
}


@pytest.mark.parametrize("argv", sorted(RUN_LAYERS))
def test_subcommand_loads_only_its_layers(argv):
    result, _, on_run = _child(CHILD.format(argv=argv.split()))
    assert result.startswith("0 ")
    ours = {m for m in on_run.split() if m.startswith("extremalcurves")}
    assert ours == {f"extremalcurves.{m}" for m in RUN_LAYERS[argv].split()}


def test_scan_child_source_does_not_grow():
    # With bytecode writing off, a child compiles every package module it
    # imports, and the compile's memory peak counts in its peak RSS.  A
    # `python -m extremalcurves scan 3 4` child also compiles __main__.
    _, on_import, on_run = _child(CHILD.format(argv=["scan", "3", "4"]))
    package = Path(extremalcurves.__file__).parent
    lines = {name: len((package / f"{name}.py").read_text(encoding="utf-8").splitlines())
             for name in ["__main__"] + [m.partition(".")[2] or "__init__"
                                         for m in (on_import + " " + on_run).split()
                                         if m.startswith("extremalcurves")]}
    assert len(lines) == 8
    assert sum(lines.values()) <= 1300
    assert lines["tables"] <= 320


ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv, code", [
    ("profile 10 4", 0), ("scan 3 4 --format csv", 0), ("bounds 4 12 --assume 2=4", 3),
    ("slope --family trigonal --format json", 0), ("table1 --mode resolved", 0),
])
def test_a_plain_call_loads_no_argparse(argv, code):
    result, on_import, on_run = _child(CHILD.format(argv=argv.split()))
    assert result.startswith(f"{code} ")
    assert not ARGPARSE & set(f"{on_import} {on_run}".split())


@pytest.mark.parametrize("argv", ["scan 3 4 -h", "profile x 4"])
def test_help_and_errors_load_argparse(argv):
    _, on_import, on_run = _child(CHILD.format(argv=argv.split()))
    assert ARGPARSE <= set(f"{on_import} {on_run}".split())


PARSERS = """
import argparse, io, sys
import extremalcurves.cli
made, given = [], set()
init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument
def making(self, *args, **kwargs):
    made.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
def counting(self, *args, **kwargs):
    given.add(self.prog)
    return add_argument(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = making
argparse.ArgumentParser.add_argument = counting
stdout, sys.stdout = sys.stdout, io.StringIO()
code = extremalcurves.cli.run({argv!r})
sys.stdout = stdout
print(code, len(made), " ".join(sorted(p for p in given if p.startswith("extremalcurves "))))
"""


# per argv: the exit code, the parsers made and the subparsers given arguments
WHOLE = "0 11 " + " ".join(sorted(f"extremalcurves {name}" for name in (
    "profile", "classify", "embed", "bounds", "slope", "table1", "scan", "verylast", "plane",
    "selfcheck")))
BUILT = {"scan 3 4": "0 0 ", "plane 7 --format csv": "0 0 ",
         "selfcheck --help": WHOLE, "--version": WHOLE}


@pytest.mark.parametrize("argv", BUILT)
def test_run_builds_the_whole_parser_or_none(argv):
    # a plain argv builds no parser; any other builds the whole parser,
    # every subparser with its arguments
    assert _child(PARSERS.format(argv=argv.split())) == [BUILT[argv]]


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
    assert set(extremalcurves.__all__) <= set(dir(extremalcurves))


def test_a_wrapper_on_the_defining_module_is_seen_through_the_package(monkeypatch):
    # the package reads a loaded module from sys.modules but caches no name
    from extremalcurves import gonality

    original = gonality.close

    def w(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(gonality, "close", w)
    assert extremalcurves.close is w


def test_every_public_definition_lives_where_the_table_says():
    # the lazy table names each definition's module; a moved definition must move there too
    defined = 0
    for name, module in extremalcurves._HOME.items():
        value = getattr(extremalcurves, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == f"extremalcurves.{module}", name
            defined += 1
    assert defined == len(extremalcurves._HOME) - 4  # the field tuples and the stars
