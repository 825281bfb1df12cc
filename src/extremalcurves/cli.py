"""Command line front end.

Subcommands mirror the library: profile, classify, embed, bounds, slope,
table1, scan, verylast, plane, selfcheck.  Results go to stdout in
markdown (default), csv, or json; diagnostics go to stderr.  Exit codes:
0 success, 1 selfcheck failure, 2 invalid input or usage (an input too
large to hold included), 3 a bound contradiction, 4 an internal fault:
an invariant check of the package itself failed (an ``ArithmeticError``
other than overflow), reported on one ``internal error:`` line.

Each ``_cmd_*`` handler returns its result and writes nothing to stdout:
a dict is one record, any other iterable of dicts a table (a
``(fieldnames, records)`` pair names its fields), a str finished text,
and an int the exit code of a run that has already reported to stderr.
``run`` renders the result in the chosen format and is the one place
that writes stdout, a table in batches as its records are made.  Tables
the input sizes come as iterators: ``scan``, ``table1`` and ``plane``
hold no rows, ``bounds`` and csv and json ``verylast`` no more than their
ledger, and only md ``verylast``, which nests two tables, is held whole.

Each handler imports the layers it runs, and json and csv load only for
those formats, so a call pays start-up only for what it uses.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import ContradictionError, DomainError, InvalidInput


def _write(result, fmt: str, out) -> None:
    """Write a handler's result to ``out``: a dict is one record (a ``k=v``
    line in md; in json a ``map`` value is a nested table, rendered in
    batches), any other iterable of dicts or a ``(fieldnames, records)``
    pair a table, rendered in batches, a str already text."""
    if isinstance(result, str):
        out.write(result)
        return
    fieldnames = None
    if isinstance(result, tuple):
        fieldnames, result = result
    elif isinstance(result, dict):
        if fmt == "md":
            out.write(" ".join(f"{k}={v}" for k, v in result.items()) + "\n")
            return
        if fmt == "json":  # json.dumps(result, indent=2), a map value streamed
            import json

            sep = "{"
            for key, value in result.items():
                out.write(f"{sep}\n  {json.dumps(key)}: ")
                if isinstance(value, map):  # a table one level in, in batches
                    from types import SimpleNamespace

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


def _cmd_table1(args) -> tuple:
    from .tables import TABLE_FIELDS, TableRow, table1_rows

    return TABLE_FIELDS, map(TableRow.record, table1_rows(args.gamma_max, args.mode))


def _cmd_scan(args) -> tuple:
    from .tables import SCAN_FIELDS, scan

    return SCAN_FIELDS, scan(args.r_lo, args.r_hi, args.d_max)


def _cmd_verylast(args) -> str | dict | map:
    from .gonality import VerylastRow, verylast_sequence

    led, rows = verylast_sequence(args.n)
    entries = map(_entry_record, map(led.entry, range(rows[0].r - 1, rows[-1].r + 2)))
    rows = map(VerylastRow.record, rows)
    if args.format == "csv":
        return entries
    if args.format == "json":
        return {"n": args.n, "gamma": led.gamma, "genus": led.g,
                "rows": rows, "entries": entries}
    from .tables import serialize

    return (f"n={args.n} gamma={led.gamma} genus={led.g}\n\n"
            + serialize(rows, "md") + "\n" + serialize(entries, "md"))


def _cmd_plane(args) -> dict | tuple:
    from .castelnuovo import plane_genus
    from .verdicts import plane_curve_gonality, plane_slope_verdict

    def record(r: int) -> dict:
        v = plane_slope_verdict(args.k, r)
        return {"r": r, "d_r": plane_curve_gonality(args.k, r),
                "status": str(v.status), "tag": v.tag}

    if args.r is not None:
        return record(args.r)
    return ("r", "d_r", "status", "tag"), map(record, range(1, plane_genus(args.k) + 3))


def _cmd_selfcheck(args) -> str | list[dict] | int:
    from .selfcheck import run_selfcheck

    count, failures, groups = run_selfcheck()
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        print(f"{len(failures)} of {count} checks failed", file=sys.stderr)
        return 1
    if args.format == "md":
        return f"ok {count} checks\n"
    return [dict(zip(("group", "checks", "failed"), group)) for group in groups]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser.  Given a ``command``, only that subparser
    gets its arguments; the other subcommands are registered by name and
    help alone, which keeps every help text, usage line and invalid-choice
    message the same at a fraction of the cost.  None builds them all."""
    parser = argparse.ArgumentParser(
        prog="extremalcurves",
        description="Numerical invariants of extremal curves and their"
        " gonality sequences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary):
        if command not in (None, name):
            sub.add_parser(name, help=summary, add_help=False)
            return None
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("md", "csv", "json"), default="md",
                       help="output format (default md)")
        p.set_defaults(func=func)
        return p

    if p := add("profile", _cmd_profile, "ratio, remainder and maximal genus for (d, r)"):
        p.add_argument("d", type=int)
        p.add_argument("r", type=int)
        p.add_argument("--lenient", action="store_true",
                       help="accept any d >= r+1 instead of d >= 2r+1")

    if p := add("classify", _cmd_classify, "candidate models for an extremal curve"):
        p.add_argument("d", type=int)
        p.add_argument("r", type=int)

    if p := add("embed", _cmd_embed, "re-embed a surface class as an extremal curve"):
        p.add_argument("gamma", type=int)
        p.add_argument("lam", type=int, metavar="lambda")
        p.add_argument("n", type=int)

    if p := add("bounds", _cmd_bounds, "gonality-sequence intervals for (gamma, g)"):
        p.add_argument("gamma", type=int)
        p.add_argument("g", type=int)
        p.add_argument("--assume", action="append", metavar="R=V",
                       help="assert d_R = V before propagating (repeatable)")

    if p := add("slope", _cmd_slope, "slope-inequality verdicts for extremal models"):
        from .verdicts import FAMILIES
        p.add_argument("d", type=int, nargs="?")
        p.add_argument("r", type=int, nargs="?")
        p.add_argument("--gamma", type=int, help="only models with this gonality")
        p.add_argument("--family", choices=FAMILIES,
                       help="verdict for a named curve family instead")

    if p := add("table1", _cmd_table1, "summary table of extremal families per gonality"):
        from .tables import MODES
        p.add_argument("--gamma-max", type=int, default=6, dest="gamma_max")
        p.add_argument("--mode", choices=MODES, default=MODES[0])

    if p := add("scan", _cmd_scan, "flat per-model records over an (r, d) window"):
        p.add_argument("r_lo", type=int)
        p.add_argument("r_hi", type=int)
        p.add_argument("--d-max", type=int, default=None, dest="d_max")

    if p := add("verylast", _cmd_verylast, "foursecant sweep on the surface of invariant n"):
        p.add_argument("n", type=int)

    if p := add("plane", _cmd_plane, "gonality sequence of a smooth plane curve"):
        p.add_argument("k", type=int)
        p.add_argument("--r", type=int, default=None,
                       help="single index instead of the whole table")

    add("selfcheck", _cmd_selfcheck, "recompute core facts two ways and compare")
    return parser


def run(argv: list[str]) -> int:
    # The top-level options take no value, so argparse hands the rest of
    # argv to the subparser named by the first token that is not an
    # option; no such token ("" names none) means no subparser runs.
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        _write(result, args.format, sys.stdout)
    except ContradictionError as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        return 3
    except (InvalidInput, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        print(f"error: input too large to hold ({type(exc).__name__})", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a broken invariant: a fault here, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
        sys.stderr.reconfigure(encoding="utf-8")
    code = 0
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``): output nobody reads is not
        # a failure.  stdout goes to devnull so that the flush at shutdown
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
