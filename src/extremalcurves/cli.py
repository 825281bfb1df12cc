"""Command line front end: read argv, run the subcommand's handler, and map
errors to exit codes.  Subcommands mirror the library, and ``COMMANDS`` is
their grammar.  Results go to stdout in markdown (default), csv, or json;
diagnostics go to stderr.  Exit codes: 0 success, 1 selfcheck failure, 2
invalid input or usage (an input too large to hold or output that cannot be
written included), 3 a bound contradiction, 4 an internal fault: an invariant
check of the package itself failed (an ``ArithmeticError`` other than
overflow), reported on one ``internal error:`` line.

``run`` reads a plain argv off ``COMMANDS`` and hands any other to argparse
(``usage``), the one source of help, usage and error text.  The handler
``_cmd_<name>`` is scan's here and any other's in ``commands``, which a scan
child never loads.  Every handler imports the layers it runs, writes its own
output to stdout or reports to stderr, and returns the exit code; an error it
raises, while writing too, ``run`` maps to its code.  Scan's runs go to the
renderer as they are, and no record is made.

``main`` ends the process: once the output is flushed it freezes the collector
(``gc.freeze``), so the exit collections skip every object still alive.
``run`` leaves the collector alone, for callers whose process goes on.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import ContradictionError, DomainError, InvalidInput


def _cmd_scan(args) -> int:
    from .tables import write_scan

    write_scan(sys.stdout, args.r_lo, args.r_hi, args.d_max, args.format)
    return 0


def _late(value):
    return value() if callable(value) and not isinstance(value, type) else value


# The grammar: per subcommand its summary and, after FORMAT, each argument as the
# (name, kwargs) add_argument takes, where a function gives a value when it is used
# (_late).  The handler is _cmd_<name>, here or in commands, looked up when the call runs.
INT = {"type": int}
FORMAT = ("--format", {"choices": ("md", "csv", "json"), "default": "md",
                       "help": "output format (default md)"})
COMMANDS = {
    "profile": ("ratio, remainder and maximal genus for (d, r)", ("d", INT), ("r", INT), (
        "--lenient", {"action": "store_true", "default": False,
                      "help": "accept any d >= r+1 instead of d >= 2r+1"})),
    "classify": ("candidate models for an extremal curve", ("d", INT), ("r", INT)),
    "embed": ("re-embed a surface class as an extremal curve",
              ("gamma", INT), ("lam", {"type": int, "metavar": "lambda"}), ("n", INT)),
    "bounds": ("gonality-sequence intervals for (gamma, g)", ("gamma", INT), ("g", INT), (
        "--assume", {"action": "append", "metavar": "R=V",
                     "help": "assert d_R = V before propagating (repeatable)"})),
    "slope": ("slope-inequality verdicts for extremal models",
              ("d", {"type": int, "nargs": "?"}), ("r", {"type": int, "nargs": "?"}),
              ("--gamma", {"type": int, "help": "only models with this gonality"}),
              ("--family", {"choices": lambda: import_module(".verdicts", __package__).FAMILIES,
                            "help": "verdict for a named curve family instead"})),
    "table1": ("summary table of extremal families per gonality",
               ("--gamma-max", {"type": int, "default": 6, "dest": "gamma_max"}),
               ("--mode", {"choices": lambda: import_module(".summary", __package__).MODES,
                           "default": lambda: import_module(".summary", __package__).MODES[0]})),
    "scan": ("flat per-model records over an (r, d) window", ("r_lo", INT), ("r_hi", INT),
             ("--d-max", {"type": int, "default": None, "dest": "d_max"})),
    "verylast": ("foursecant sweep on the surface of invariant n", ("n", INT)),
    "plane": ("gonality sequence of a smooth plane curve", ("k", INT), (
        "--r", {"type": int, "default": None, "help": "single index instead of the whole table"})),
    "selfcheck": ("recompute core facts two ways and compare",),
}


def _value(kwargs: dict, token: str):
    """``token`` as an argument's value; ValueError where argparse must judge it."""
    if (token.startswith("-") or token not in _late(kwargs.get("choices", (token,)))
            or kwargs.get("type") is int and not (token.isascii() and token.isdigit())):
        raise ValueError(token)
    return kwargs.get("type", str)(token)  # int() raises too past its limit on digits


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What the whole parser makes of a plain ``argv``, or None for any other.
    Plain is the subcommand, all its positionals (none if all are optional),
    then options in full, each but a flag with a value token of its own, and
    no option but an ``append`` one repeated."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, *spec = COMMANDS[argv[0]]
    positionals = [(arg, kw) for arg, kw in spec if arg[0] != "-"]
    options = {arg: (kw.get("dest", arg[2:]), kw) for arg, kw in (FORMAT, *spec) if arg[0] == "-"}
    tokens = argv[1:]
    count = next((i for i, token in enumerate(tokens) if token.startswith("-")), len(tokens))
    if count != len(positionals) and (count or any("nargs" not in kw for _, kw in positionals)):
        return None
    try:
        values = {dest: _value(kw, text) for (dest, kw), text in zip(positionals, tokens[:count])}
        rest = iter(tokens[count:])
        for token in rest:
            dest, kw = options[token]
            action = kw.get("action")
            if dest in values and action != "append":
                return None
            value = action == "store_true" or _value(kw, next(rest, "-"))
            values[dest] = values.get(dest, []) + [value] if action == "append" else value
    except (KeyError, ValueError):
        return None
    for dest, kw in (*positionals, *options.values()):
        values.setdefault(dest, _late(kw.get("default")))
    return SimpleNamespace(command=argv[0], **values)


def _say(line: str) -> None:
    """Write one diagnostic line to stderr, the one place that does.  A line
    stderr cannot take is dropped: the exit code still says what happened."""
    try:
        sys.stderr.write(line + "\n")
    except OSError:
        pass


def run(argv: list[str]) -> int:
    args = _read(argv)
    if args is None:
        try:
            args = import_module(".usage", __package__).build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    name = f"_cmd_{args.command}"
    handler = globals().get(name) or getattr(import_module(".commands", __package__), name)
    try:
        return handler(args)
    except ContradictionError as exc:
        _say(f"contradiction: {exc}")
        return 3
    except (InvalidInput, DomainError) as exc:
        _say(f"error: {exc}")
        return 2
    except (OverflowError, MemoryError) as exc:
        _say(f"error: input too large to hold ({type(exc).__name__})")
        return 2
    except ArithmeticError as exc:  # a broken invariant: a fault here, not in the input
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return 4


def main() -> None:
    if sys.stderr is None:  # started with fd 2 closed: diagnostics go nowhere
        sys.stderr = open(os.devnull, "w")
    if sys.stdout is None:  # started with fd 1 closed: no call can write its output
        _say("error: cannot write output: stdout is closed")
        sys.exit(2)
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
        sys.stderr.reconfigure(encoding="utf-8")
    code = 0
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # a reader gone early (``| head``) is no failure
        if not isinstance(exc, BrokenPipeError):
            _say(f"error: cannot write output: {exc}")
            code = 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
    # The process ends here, and the OS takes back every object still alive.
    # Frozen objects are left out of the interpreter's shutdown collections,
    # which would otherwise walk every object start-up and the imports made;
    # refcounting still frees, and closes, whatever module teardown drops.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
