"""Symbolic summary table, parameter scans, and record serialization.

The summary table lists, per gonality, the degree ranges an extremal
curve in P^r can occupy and whether the r-th slope inequality is settled
there.  Rows are symbolic in r; ``row_models`` instantiates a row at a
concrete r and ``expected_status`` says what verdict the row claims, so
the table can be cross-checked against the engine.  ``table1_rows``
checks its arguments when called and yields the rows one at a time;
``table1`` is the same rows as a list.

``scan`` walks a concrete (r, d) window instead and yields one flat
record per extremal model, including its slope verdict and the
Brill-Noether number at the extremal genus.  It checks its arguments
when called and returns an iterator, not a list.

``write_records`` renders records as markdown, csv or json to a text
stream, BATCH records per write, so its memory does not grow with the
number of records; ``serialize`` runs it into a string.

The engine layers and the csv and json encoders are imported inside the
functions that use them, so ``table1`` and markdown output load neither.
"""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from .errors import InvalidInput
from .verdicts import Status

TABLE_FIELDS = ("d", "gamma", "m", "eps", "slope")
SCAN_FIELDS = ("r", "d", "m", "eps", "pi", "kind", "gamma", "verdict", "rho")

BATCH = 512  # records per write: rendering memory stays flat in the record count

STAR = "★"
STAR_RESOLVED = "yes if r=4; no if r>=5"


class TableRow(namedtuple("TableRow", "degree_expr gamma m eps eps_expr verdict"
                                       " degree_lo degree_hi star", defaults=(False,))):
    """One symbolic row: a degree range in r, its invariants, and the
    slope-column token.  degree_lo/degree_hi are (coefficient, offset)
    pairs meaning coefficient*r + offset; None marks the filler row."""

    __slots__ = ()

    def record(self) -> dict:
        return {
            "d": self.degree_expr,
            "gamma": "" if self.gamma is None else self.gamma,
            "m": "" if self.m is None else self.m,
            "eps": self.eps_expr,
            "slope": self.verdict,
        }


def table1(gamma_max: int = 6, mode: str = "paper-faithful") -> list[TableRow]:
    """Rows of the degree/gonality summary table up to the given gonality.

    mode "paper-faithful" leaves the open gamma=4 corner as a star;
    "resolved" spells out its r=4 / r>=5 split.  Everything else is
    identical between the modes.
    """
    return list(table1_rows(gamma_max, mode))


def table1_rows(gamma_max: int = 6, mode: str = "paper-faithful") -> Iterator[TableRow]:
    """The rows of ``table1`` one at a time.  The arguments are checked
    when it is called, so a huge gamma_max streams its about
    gamma_max**2/2 rows instead of holding them."""
    if gamma_max < 4:
        raise InvalidInput(f"need gamma_max >= 4, got {gamma_max}")
    if mode not in ("paper-faithful", "resolved"):
        raise InvalidInput(f"unknown mode {mode!r}; use paper-faithful or resolved")
    return _table1_rows(gamma_max, mode)


def _table1_rows(gamma_max: int, mode: str) -> Iterator[TableRow]:
    yield TableRow("2r+1 <= d <= 3r-3", 3, 2, None, "2 <= eps <= r-2",
                   "yes (trigonal)", (2, 1), (3, -3))
    yield TableRow("3r-2", 3, 3, 0, "0", "yes (trigonal)", (3, -2), (3, -2))
    for gam in range(4, gamma_max + 1):
        for eps in range(gam - 2):  # fixed small remainders, one row each
            offset = eps - (gam - 2)
            expr = f"{gam - 1}r{offset}"
            if gam == 4:
                token = (STAR if mode == "paper-faithful" else STAR_RESOLVED) \
                    if eps == 0 else "no"
            else:
                token = ""
            yield TableRow(expr, gam, gam - 1, eps, str(eps), token,
                           (gam - 1, offset), (gam - 1, offset),
                           star=(gam == 4 and eps == 0))
        yield TableRow(f"{gam - 1}r <= d <= {gam}r-{gam}", gam, gam - 1,
                       None, f"{gam - 2} <= eps <= r-2", "yes",
                       (gam - 1, 0), (gam, -gam))
        yield TableRow(f"{gam}r-{gam - 1}", gam, gam, 0, "0", "yes",
                       (gam, -(gam - 1)), (gam, -(gam - 1)))
    yield TableRow("...", None, None, None, "", "", None, None)


def row_models(row: TableRow, r: int) -> list[ExtremalModel]:
    """The row's extremal models at a concrete r (empty off the row)."""
    from .extremal import ModelKind, classify_extremal

    if r < 3:
        raise InvalidInput(f"need r >= 3, got {r}")
    if row.degree_lo is None:
        return []
    d_lo = row.degree_lo[0] * r + row.degree_lo[1]
    d_hi = row.degree_hi[0] * r + row.degree_hi[1]
    out = []
    for d in range(d_lo, d_hi + 1):
        if d < 2 * r + 1:
            continue
        for model in classify_extremal(d, r):
            if model.gamma != row.gamma:
                continue
            if model.kind is ModelKind.PLANE_VERONESE:
                continue
            if model.m != row.m:
                continue
            if row.eps is not None and model.eps != row.eps:
                continue
            out.append(model)
    return out


def expected_status(row: TableRow, r: int) -> Status | None:
    """The verdict the row claims at a concrete r; None where it is silent."""
    if row.star:
        if r == 4:
            return Status.HOLDS
        if r >= 5:
            return Status.VIOLATED
        return None
    if row.verdict.startswith("yes"):
        return Status.HOLDS
    if row.verdict == "no":
        return Status.VIOLATED
    return None


def scan(r_lo: int, r_hi: int, d_max: int | None = None) -> Iterator[dict]:
    """Flat per-model records over r in [r_lo, r_hi], d from 2r+1 up.

    The degree ceiling is d_max when given, else 6r-5 per r (one full
    period past the highest tabulated family).  rho is the Brill-Noether
    number at the extremal genus.  The arguments are checked when scan is
    called; the records come from the returned iterator one at a time,
    so a window is never held whole.
    """
    if r_lo < 3:
        raise InvalidInput(f"need r_lo >= 3, got {r_lo}")
    if r_hi < r_lo:
        raise InvalidInput(f"need r_hi >= r_lo, got {r_hi} < {r_lo}")
    if d_max is not None:  # no degree d >= 2r+1 fits under d_max past this r
        r_hi = min(r_hi, (d_max - 1) // 2)
    return _scan_records(r_lo, r_hi, d_max)


def _scan_records(r_lo: int, r_hi: int, d_max: int | None) -> Iterator[dict]:
    from .castelnuovo import brill_noether
    from .extremal import classify_extremal
    from .gonality import slope_verdict

    for r in range(r_lo, r_hi + 1):
        ceiling = d_max if d_max is not None else 6 * r - 5
        for d in range(2 * r + 1, ceiling + 1):
            for model in classify_extremal(d, r):
                yield {
                    "r": r,
                    "d": d,
                    "m": model.m,
                    "eps": model.eps,
                    "pi": model.g,
                    "kind": str(model.kind),
                    "gamma": model.gamma,
                    "verdict": str(slope_verdict(model).status),
                    "rho": brill_noether(d, r, model.g),
                }


def write_records(out, records: Iterable[dict], fmt: str = "md",
                  fieldnames: tuple[str, ...] | None = None) -> None:
    """Write flat records to the text stream ``out`` as a markdown pipe
    table, csv, or json, one ``out.write`` per BATCH records.

    Fields come from the first record unless given explicitly; no records
    at all need explicit fieldnames.  The header goes out with the first
    batch, so an error raised while the first batch is made leaves ``out``
    untouched.  Output ends with a newline.
    """
    records = iter(records)
    if fieldnames is None:
        first = next(records, None)
        if first is None:
            raise InvalidInput("empty record list needs explicit fieldnames")
        fieldnames = tuple(first)
        records = chain((first,), records)
    render = _RENDERERS.get(fmt)
    if render is None:
        raise InvalidInput(f"unknown format {fmt!r}; use md, csv, or json")
    batches = iter(lambda: list(islice(records, BATCH)), [])
    for text in render(batches, fieldnames):
        out.write(text)


def serialize(records: Iterable[dict], fmt: str = "md",
              fieldnames: tuple[str, ...] | None = None) -> str:
    """``write_records`` into a string."""
    buf = io.StringIO()
    write_records(buf, records, fmt, fieldnames)
    return buf.getvalue()


def _cell(value) -> str:
    return "" if value is None else str(value)


def _md(batches, fieldnames):
    head = ("| " + " | ".join(fieldnames) + " |\n"
            + "| " + " | ".join("---" for _ in fieldnames) + " |\n")
    for batch in batches:
        yield head + "".join("| " + " | ".join([_cell(rec.get(f)) for f in fieldnames])
                             + " |\n" for rec in batch)
        head = ""
    if head:
        yield head


def _csv(batches, fieldnames):
    # csv.writer writes None as "" and any other value as str(value)
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for batch in batches:
        writer.writerows(map(rec.get, fieldnames) for rec in batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    if buf.tell():
        yield buf.getvalue()


def _json(batches, fieldnames):
    # Equal to json.dumps(records, indent=2) for flat records, through one
    # C-encoder call per batch: indent= forces the pure-Python encoder.  With
    # these separators the list comes out as '[{' rec '},\n    {' rec ... '}]',
    # and an encoded key or value never holds a raw newline, so '},\n    {'
    # occurs only between two records and, once each record is re-indented,
    # '{\n    \n  }' only for an empty one.
    import json

    encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
    sep = "[\n"
    for batch in batches:
        body = encode(batch)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
        yield (sep + "  {\n    " + body + "\n  }").replace("{\n    \n  }", "{}")
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


_RENDERERS = {"md": _md, "csv": _csv, "json": _json}
