"""Every subcommand's handler but ``scan``'s, which a scan child runs from ``cli``."""

from __future__ import annotations

from .cli import _say
from .errors import InvalidInput


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
        {"kind": str(model.kind), "gamma": model.gamma, "d": model.d, "r": model.r,
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
    from .summary import TableRow, table1_rows

    return map(TableRow.record, table1_rows(args.gamma_max, args.mode))


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
