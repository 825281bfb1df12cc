"""Symbolic summary table, parameter scans, and record serialization.

The summary table lists, per gonality, the degree ranges an extremal
curve in P^r can occupy and whether the r-th slope inequality is settled
there.  Rows are symbolic in r; ``row_models`` instantiates a row at a
concrete r and ``expected_status`` says what verdict the row claims, so
the table can be cross-checked against the engine.  ``table1_rows``
checks its arguments when called and yields the rows one at a time;
``table1`` is the same rows as a list.

``scan`` walks a concrete (r, d) window instead and yields one
``ScanRecord`` row per extremal model, including its slope verdict and
the Brill-Noether number at the extremal genus.  It checks its arguments
when called and returns an iterator, not a list.

``write_records`` renders records as markdown, csv or json to a text
stream, BATCH records per write, so its memory does not grow with the
number of records; ``serialize`` runs it into a string.  A record is a
dict or a row, a tuple in fieldnames order such as a ``ScanRecord``; a
batch of rows goes through one format template per table, with no
per-record dict.

The engine layers, the verdicts and the csv and json encoders are
imported inside the functions that use them, so ``table1`` and markdown
output load none of them.
"""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from .errors import InvalidInput

TABLE_FIELDS = ("d", "gamma", "m", "eps", "slope")
SCAN_FIELDS = ("r", "d", "m", "eps", "pi", "kind", "gamma", "verdict", "rho")

BATCH = 512  # records per write: rendering memory stays flat in the record count


class ScanRecord(namedtuple("ScanRecord", SCAN_FIELDS)):
    """One extremal model of a scan: its (r, d) point, the split (m, eps),
    the genus pi, the kind and gonality, the slope status token and the
    Brill-Noether number rho."""

    __slots__ = ()

    def record(self) -> dict:
        return dict(zip(SCAN_FIELDS, self))


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
    from .verdicts import Status

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


def scan(r_lo: int, r_hi: int, d_max: int | None = None) -> Iterator[ScanRecord]:
    """One ``ScanRecord`` per model over r in [r_lo, r_hi], d from 2r+1 up.

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


def _scan_records(r_lo: int, r_hi: int, d_max: int | None) -> Iterator[ScanRecord]:
    from .castelnuovo import brill_noether
    from .extremal import classify_extremal
    from .verdicts import slope_verdict

    new = tuple.__new__
    for r in range(r_lo, r_hi + 1):
        ceiling = d_max if d_max is not None else 6 * r - 5
        for d in range(2 * r + 1, ceiling + 1):
            models = classify_extremal(d, r)
            rho = brill_noether(d, r, models[0].g)  # one genus pi(d, r) for all
            for model in models:
                # _value_ is the token str() returns, without the call
                yield new(ScanRecord, (r, d, model.m, model.eps, model.g,
                                       model.kind._value_, model.gamma,
                                       slope_verdict(model).status._value_, rho))


def write_records(out, records: Iterable[dict | tuple], fmt: str = "md",
                  fieldnames: tuple[str, ...] | None = None) -> None:
    """Write flat records to the text stream ``out`` as a markdown pipe
    table, csv, or json, one ``out.write`` per BATCH records.

    A record is a dict or a row: a tuple of values in fieldnames order,
    such as a ``ScanRecord``; the records of one batch are all of one
    kind.  Fields come from the first record (a row's ``_fields``) unless
    given explicitly; no records at all need explicit fieldnames.  A row
    renders as the dict of its fieldnames would, and a dict renders as
    ever: markdown and csv read its fields by name, json writes its own
    keys.  The header goes out with the first batch, so an error raised
    while the first batch is made leaves ``out`` untouched.  Output ends
    with a newline.
    """
    records = iter(records)
    if fieldnames is None:
        first = next(records, None)
        if first is None:
            raise InvalidInput("empty record list needs explicit fieldnames")
        fieldnames = tuple(first) if isinstance(first, dict) else first._fields
        records = chain((first,), records)
    render = _RENDERERS.get(fmt)
    if render is None:
        raise InvalidInput(f"unknown format {fmt!r}; use md, csv, or json")
    batches = iter(lambda: list(islice(records, BATCH)), [])
    for text in render(batches, fieldnames):
        out.write(text)


def serialize(records: Iterable[dict | tuple], fmt: str = "md",
              fieldnames: tuple[str, ...] | None = None) -> str:
    """``write_records`` into a string."""
    buf = io.StringIO()
    write_records(buf, records, fmt, fieldnames)
    return buf.getvalue()


def _cell(value) -> str:
    return "" if value is None else str(value)


def _rows(batch: list, fieldnames: tuple[str, ...]) -> list:
    """The batch as rows: a dict record gives its fields in order, None
    for a missing one."""
    if isinstance(batch[0], dict):
        return [tuple(map(rec.get, fieldnames)) for rec in batch]
    return batch


def _md(batches, fieldnames):
    head = ("| " + " | ".join(fieldnames) + " |\n"
            + "| " + " | ".join("---" for _ in fieldnames) + " |\n")
    row = "| " + " | ".join(["%s"] * len(fieldnames)) + " |\n"
    for batch in batches:
        cells = tuple(chain.from_iterable(_rows(batch, fieldnames)))
        if None in cells:  # %s would write None as "None", not as an empty cell
            cells = tuple(map(_cell, cells))
        yield head + (row * len(batch)) % cells
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
        writer.writerows(_rows(batch, fieldnames))
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    if buf.tell():
        yield buf.getvalue()


def _json(batches, fieldnames):
    # Equal to json.dumps(records, indent=2) for flat records, through one
    # C-encoder call per batch: indent= forces the pure-Python encoder.  An
    # encoded key or scalar never holds a raw newline.
    #
    # Rows: the batch's values are encoded as one flat list with "\n"
    # between items, so the pieces between newlines are the values, and
    # they fill a template of the record with its keys already encoded.  A
    # nested value adds pieces, or starts one with "[" or "{", which no
    # scalar does; such a batch, and a row of no fields, takes the
    # pure-Python encoder, which is exact for any value.
    #
    # Dicts: with these separators the list comes out as
    # '[{' rec '},\n    {' rec ... '}]', so '},\n    {' occurs only between
    # two records and, once each record is re-indented, '{\n    \n  }' only
    # for an empty one.
    import json

    encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
    flat = json.JSONEncoder(separators=("\n", ": ")).encode
    record = ("  {\n    " + ",\n    ".join(json.dumps(f).replace("%", "%%") + ": %s"
                                          for f in fieldnames) + "\n  }")
    sep = "[\n"
    for batch in batches:
        if isinstance(batch[0], dict):
            body = encode(batch)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
            yield (sep + "  {\n    " + body + "\n  }").replace("{\n    \n  }", "{}")
        else:
            values = list(chain.from_iterable(batch))
            text = flat(values)
            pieces = text[1:-1].split("\n")
            if len(pieces) == len(values) and not (
                    text[1] in "[{" or "\n[" in text or "\n{" in text):
                yield sep + ",\n".join([record] * len(batch)) % tuple(pieces)
            else:
                batch = [dict(zip(fieldnames, row)) for row in batch]
                yield sep + json.dumps(batch, indent=2)[2:-2]
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


_RENDERERS = {"md": _md, "csv": _csv, "json": _json}
