"""Every subcommand's handler but ``scan``'s, which a scan child runs from
``cli``.  Each writes its own output and returns its exit code."""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .cli import _say
from .errors import InvalidInput


def _write(result, fmt: str) -> int:
    """Write a handler's result to stdout and return 0, its exit code: a
    dict is one record (a ``k=v`` line in md, each ``map`` value a table
    after it, nested in json), any other iterable of dicts a table.  A table
    is written in batches as its records are made: ``table1`` and ``plane``
    hold no rows, ``bounds`` and ``verylast`` no more than their ledger.
    This writer and the renderers in ``tables`` load json and csv only for
    those formats."""
    out = sys.stdout
    if isinstance(result, dict):
        if fmt == "md":  # the plain fields, then each map value a table after a blank line
            out.write(" ".join(f"{k}={v}" for k, v in result.items()
                               if not isinstance(v, map)) + "\n")
            for value in result.values():
                if isinstance(value, map):
                    from .tables import write_records

                    out.write("\n")
                    write_records(out, value, "md")
            return 0
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
                else:  # a scalar, as indent=2 encodes it
                    out.write(json.dumps(value))
                sep = ","
            out.write("\n}\n")
            return 0
        result = [result]
    from .tables import write_records

    write_records(out, result, fmt)
    return 0


def _entry_record(entry) -> dict:
    return {
        "r": entry.index,
        "lo": entry.lo,
        "hi": entry.hi,
        "exact": entry.exact,
        "tags": " ".join(entry.provenance),
    }


def _cmd_profile(args) -> int:
    from .castelnuovo import profile

    p = profile(args.d, args.r, strict=not args.lenient)
    return _write({"m": p.m, "eps": p.eps, "pi": p.pi}, args.format)


def _cmd_classify(args) -> int:
    from .extremal import classify_extremal

    return _write([m.record() for m in classify_extremal(args.d, args.r)], args.format)


def _cmd_embed(args) -> int:
    from .extremal import embed_extremal

    res = embed_extremal(args.gamma, args.lam, args.n)
    return _write({
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
    }, args.format)


def _parse_assumption(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("=")
    if not sep:
        raise InvalidInput(f"assumption {text!r} is not of the form R=V")
    try:
        return int(head), int(tail)
    except ValueError:
        raise InvalidInput(f"assumption {text!r} needs integer R and V") from None


def _cmd_bounds(args) -> int:
    from .gonality import baseline_ledger, with_assumptions

    led = baseline_ledger(args.gamma, args.g)
    if args.assume:
        pairs = [_parse_assumption(text) for text in args.assume]
        led = with_assumptions(led, pairs)
    return _write(map(_entry_record, map(led.entry, range(1, led.max_index + 1))), args.format)


def _cmd_slope(args) -> int:
    from .verdicts import known_family_verdict, slope_verdict

    if args.family is not None:
        if (args.d, args.r, args.gamma) != (None, None, None):
            raise InvalidInput("slope takes d and r (with --gamma) or --family, not both")
        return _write({"family": args.family, **known_family_verdict(args.family).record()},
                      args.format)
    if args.d is None or args.r is None:
        raise InvalidInput("slope needs either d and r or --family")
    from .extremal import classify_extremal

    records = [
        {"kind": str(model.kind), "gamma": model.gamma, "d": model.d, "r": model.r,
         **slope_verdict(model).record()}
        for model in classify_extremal(args.d, args.r)
        if args.gamma is None or model.gamma == args.gamma
    ]
    if not records:
        raise InvalidInput(
            f"no extremal model with gonality {args.gamma} at d={args.d} r={args.r}"
        )
    return _write(records, args.format)


def _cmd_table1(args) -> int:
    from .summary import TableRow, table1_rows

    return _write(map(TableRow.record, table1_rows(args.gamma_max, args.mode)), args.format)


def _cmd_verylast(args) -> int:
    from .gonality import VerylastRow, verylast_sequence

    led, rows = verylast_sequence(args.n)
    entries = map(_entry_record, map(led.entry, range(rows[0].r - 1, rows[-1].r + 2)))
    if args.format == "csv":
        return _write(entries, "csv")
    return _write({"n": args.n, "gamma": led.gamma, "genus": led.g,
                   "rows": map(VerylastRow.record, rows), "entries": entries}, args.format)


def _cmd_plane(args) -> int:
    from .castelnuovo import plane_genus
    from .verdicts import plane_curve_gonality, plane_slope_verdict

    def record(r: int) -> dict:
        v = plane_slope_verdict(args.k, r)
        return {"r": r, "d_r": plane_curve_gonality(args.k, r),
                "status": str(v.status), "tag": v.tag}

    if args.r is not None:
        return _write(record(args.r), args.format)
    return _write(map(record, range(1, plane_genus(args.k) + 3)), args.format)


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    count, failures, groups = run_selfcheck()
    if failures:
        for line in failures:
            _say(line)
        _say(f"{len(failures)} of {count} checks failed")
        return 1
    if args.format == "md":
        sys.stdout.write(f"ok {count} checks\n")
        return 0
    return _write([dict(zip(("group", "checks", "failed"), group)) for group in groups],
                  args.format)
