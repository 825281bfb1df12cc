"""Command line front end.

Subcommands mirror the library, and ``COMMANDS`` is their grammar.  Results go
to stdout in markdown (default), csv, or json; diagnostics go to stderr.  Exit
codes: 0 success, 1 selfcheck failure, 2 invalid input or usage (an input too
large to hold or output that cannot be written included), 3 a bound
contradiction, 4 an internal fault: an invariant check of the package itself
failed (an ``ArithmeticError`` other than overflow), reported on one
``internal error:`` line.

``run`` reads a plain argv off ``COMMANDS`` and hands any other to argparse
(``usage``), the one source of help, usage and error text.  A ``_cmd_*``
handler imports the layers it runs and returns its result: a dict is one
record (its ``map`` values nested tables), any other iterable of dicts a table
(a ``(fieldnames, records)`` pair names its fields), a str finished text, and
an int the exit code of a run that has already reported to stderr.  ``run``
writes it in the chosen format, the one place that writes stdout, a table in
batches as its records are made: ``scan``, ``table1`` and ``plane`` hold no
rows, ``bounds`` and ``verylast`` no more than their ledger.  json and csv load
only for those formats.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import ContradictionError, DomainError, InvalidInput


def _write(result, fmt: str, out) -> None:
    """Write a handler's result to ``out``: a dict is one record (a ``k=v``
    line in md, each ``map`` value a table after it, nested in json), any
    other iterable of dicts or a ``(fieldnames, records)`` pair a table, a
    str already text.  Every table is rendered in batches."""
    if isinstance(result, str):
        out.write(result)
        return
    fieldnames = None
    if isinstance(result, tuple):
        fieldnames, result = result
    elif isinstance(result, dict):
        if fmt == "md":  # the plain fields, then each map value a table after a blank line
            out.write(" ".join(f"{k}={v}" for k, v in result.items()
                               if not isinstance(v, map)) + "\n")
            for value in result.values():
                if isinstance(value, map):
                    from .tables import write_records

                    out.write("\n")
                    write_records(out, value, "md")
            return
        if fmt == "json":  # json.dumps(result, indent=2), a map value streamed
            import json

            sep = "{"
            for key, value in result.items():
                out.write(f"{sep}\n  {json.dumps(key)}: ")
                if isinstance(value, map):  # a table one level in, in batches
                    from .tables import write_records

                    # a raw newline in json only starts a line, and only the
                    # last piece ends in one, the document's own
                    nested = SimpleNamespace(write=lambda text: out.write(
                        text.rstrip("\n").replace("\n", "\n  ")))
                    write_records(nested, value, "json")
                else:
                    out.write(json.dumps(value, indent=2).replace("\n", "\n  "))
                sep = ","
            out.write("\n}\n")
            return
        result = [result]
    from .tables import write_records

    write_records(out, result, fmt, fieldnames)


def _entry_record(entry) -> dict:
    return {
        "r": entry.index,
        "lo": entry.lo,
        "hi": entry.hi,
        "exact": entry.exact,
        "tags": " ".join(entry.provenance),
    }


def _cmd_profile(args) -> dict:
    from .castelnuovo import profile

    p = profile(args.d, args.r, strict=not args.lenient)
    return {"m": p.m, "eps": p.eps, "pi": p.pi}


def _cmd_classify(args) -> list[dict]:
    from .extremal import classify_extremal

    return [m.record() for m in classify_extremal(args.d, args.r)]


def _cmd_embed(args) -> dict:
    from .extremal import embed_extremal

    res = embed_extremal(args.gamma, args.lam, args.n)
    return {
        "gamma": res.gamma,
        "lambda": res.lam,
        "n": res.n,
        "beta": res.scroll.beta,
        "r": res.r,
        "d": res.d,
        "eps": res.eps,
        "genus": res.genus,
        "pi": res.profile.pi,
        "extremal": res.model is not None,
        "class": res.model.class_label if res.model else "",
    }


def _parse_assumption(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("=")
    if not sep:
        raise InvalidInput(f"assumption {text!r} is not of the form R=V")
    try:
        return int(head), int(tail)
    except ValueError:
        raise InvalidInput(f"assumption {text!r} needs integer R and V") from None


def _cmd_bounds(args) -> map:
    from .gonality import baseline_ledger, with_assumptions

    led = baseline_ledger(args.gamma, args.g)
    if args.assume:
        pairs = [_parse_assumption(text) for text in args.assume]
        led = with_assumptions(led, pairs)
    return map(_entry_record, map(led.entry, range(1, led.max_index + 1)))


def _cmd_slope(args) -> dict | list[dict]:
    from .verdicts import known_family_verdict, slope_verdict

    if args.family is not None:
        if (args.d, args.r, args.gamma) != (None, None, None):
            raise InvalidInput("slope takes d and r (with --gamma) or --family, not both")
        return {"family": args.family, **known_family_verdict(args.family).record()}
    if args.d is None or args.r is None:
        raise InvalidInput("slope needs either d and r or --family")
    from .extremal import classify_extremal

    records = [
        {"kind": model.kind.value, "gamma": model.gamma, "d": model.d, "r": model.r,
         **slope_verdict(model).record()}
        for model in classify_extremal(args.d, args.r)
        if args.gamma is None or model.gamma == args.gamma
    ]
    if not records:
        raise InvalidInput(
            f"no extremal model with gonality {args.gamma} at d={args.d} r={args.r}"
        )
    return records


def _cmd_table1(args) -> map:
    from .tables import TableRow, table1_rows

    return map(TableRow.record, table1_rows(args.gamma_max, args.mode))


def _cmd_scan(args) -> tuple:
    from .tables import SCAN_FIELDS, scan

    return SCAN_FIELDS, scan(args.r_lo, args.r_hi, args.d_max)


def _cmd_verylast(args) -> dict | map:
    from .gonality import VerylastRow, verylast_sequence

    led, rows = verylast_sequence(args.n)
    entries = map(_entry_record, map(led.entry, range(rows[0].r - 1, rows[-1].r + 2)))
    if args.format == "csv":
        return entries
    return {"n": args.n, "gamma": led.gamma, "genus": led.g,
            "rows": map(VerylastRow.record, rows), "entries": entries}


def _cmd_plane(args) -> dict | map:
    from .castelnuovo import plane_genus
    from .verdicts import plane_curve_gonality, plane_slope_verdict

    def record(r: int) -> dict:
        v = plane_slope_verdict(args.k, r)
        return {"r": r, "d_r": plane_curve_gonality(args.k, r),
                "status": str(v.status), "tag": v.tag}

    if args.r is not None:
        return record(args.r)
    return map(record, range(1, plane_genus(args.k) + 3))


def _cmd_selfcheck(args) -> str | list[dict] | int:
    from .selfcheck import run_selfcheck

    count, failures, groups = run_selfcheck()
    if failures:
        for line in failures:
            _say(line)
        _say(f"{len(failures)} of {count} checks failed")
        return 1
    if args.format == "md":
        return f"ok {count} checks\n"
    return [dict(zip(("group", "checks", "failed"), group)) for group in groups]


def _late(value):
    return value() if callable(value) and not isinstance(value, type) else value


# The grammar: per subcommand its summary and, after FORMAT, each argument as the
# (name, kwargs) add_argument takes, where a function gives a value when it is used
# (_late).  The handler is _cmd_<name>, looked up when the call runs.
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
               ("--mode", {"choices": lambda: import_module(".tables", __package__).MODES,
                           "default": lambda: import_module(".tables", __package__).MODES[0]})),
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
        # No top-level option takes a value: argparse hands argv to the subparser
        # the first non-option token names, and to none if there is none ("").
        parser = import_module(".usage", __package__).build_parser(
            next((arg for arg in argv if not arg.startswith("-")), ""))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        result = globals()[f"_cmd_{args.command}"](args)
        if isinstance(result, int):
            return result
        _write(result, args.format, sys.stdout)
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
    return 0


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
    sys.exit(code)


if __name__ == "__main__":
    main()
