"""Symbolic summary table, parameter scans, and record serialization.

The summary table lists, per gonality, the degree ranges an extremal
curve in P^r can occupy and whether the r-th slope inequality is settled
there.  Rows are symbolic in r: a ``TableRow`` is its gonality, its
degree range and its verdict token, and the printed d, m and eps columns
are read off the range.  ``row_models`` instantiates a row at a concrete
r and ``expected_status`` says what verdict the row claims, so the table
can be cross-checked against the engine from the same facts it prints.
``table1_rows`` checks its arguments when called and yields the rows one
at a time; ``table1`` is the same rows as a list.

``scan`` walks a concrete (r, d) window instead and yields one
``ScanRecord`` row per extremal model, including its slope verdict and
the Brill-Noether number at the extremal genus, from one ``classify_run``
and ``slope_run`` per run of degrees and C-level zips that step pi and rho
by one difference of ``max_genus`` and ``brill_noether`` per degree.  It
checks its arguments when called and returns an iterator, not a list.

``write_records`` renders records as markdown, csv or json to a text
stream, BATCH records per write, so its memory does not grow with the
number of records; ``serialize`` runs it into a string.  A record is a
row, a tuple in fieldnames order such as a ``ScanRecord``, or a dict
read at the fieldnames, with None for a missing field, in every format;
the renderers see rows only, one format template per table.

The engine layers, the verdicts and the csv and json encoders are
imported inside the functions that use them, so ``table1`` and markdown
output load none of them.
"""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice, repeat

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


# table1's modes, ``table1 --mode``'s choices; the first is the default
MODES = ("paper-faithful", "resolved")
STAR = "★"
STAR_RESOLVED = "yes if r=4; no if r>=5"


class TableRow(namedtuple("TableRow", "gamma degree_lo degree_hi verdict")):
    """One symbolic row: its gonality, its degree range in r and its
    slope-column token.  degree_lo/degree_hi are (coefficient, offset)
    pairs meaning coefficient*r + offset; None marks the filler row.  The
    printed d, m and eps are read off the range: by d - 1 = m(r-1) + eps,
    m is the coefficient and eps starts at coefficient + offset - 1."""

    __slots__ = ()

    def record(self) -> dict:
        if self.degree_lo is None:
            return dict(zip(TABLE_FIELDS, ("...", "", "", "", self.verdict)))
        (m, offset), d = self.degree_lo, _linear(self.degree_lo)
        eps = str(m + offset - 1)
        if self.degree_hi != self.degree_lo:
            d, eps = f"{d} <= d <= {_linear(self.degree_hi)}", f"{eps} <= eps <= r-2"
        return dict(zip(TABLE_FIELDS, (d, self.gamma, m, eps, self.verdict)))


def _linear(degree: tuple[int, int]) -> str:
    """coefficient*r + offset as printed: cr, cr+o or cr-o."""
    coefficient, offset = degree
    return f"{coefficient}r{offset:+d}" if offset else f"{coefficient}r"


def table1(gamma_max: int = 6, mode: str = MODES[0]) -> list[TableRow]:
    """Rows of the degree/gonality summary table up to the given gonality.

    mode "paper-faithful" leaves the open gamma=4 corner as a star;
    "resolved" spells out its r=4 / r>=5 split.  Everything else is
    identical between the modes.
    """
    return list(table1_rows(gamma_max, mode))


def table1_rows(gamma_max: int = 6, mode: str = MODES[0]) -> Iterator[TableRow]:
    """The rows of ``table1`` one at a time.  The arguments are checked
    when it is called, so a huge gamma_max streams its about
    gamma_max**2/2 rows instead of holding them."""
    if gamma_max < 4:
        raise InvalidInput(f"need gamma_max >= 4, got {gamma_max}")
    if mode not in MODES:
        raise InvalidInput(f"unknown mode {mode!r}; use {' or '.join(MODES)}")
    return _table1_rows(gamma_max, mode)


def _table1_rows(gamma_max: int, mode: str) -> Iterator[TableRow]:
    yield TableRow(3, (2, 1), (3, -3), "yes (trigonal)")
    yield TableRow(3, (3, -2), (3, -2), "yes (trigonal)")
    star = STAR if mode == "paper-faithful" else STAR_RESOLVED
    for gam in range(4, gamma_max + 1):
        for eps in range(gam - 2):  # fixed small remainders, one row each
            degree = (gam - 1, eps - (gam - 2))
            yield TableRow(gam, degree, degree, "" if gam > 4 else "no" if eps else star)
        yield TableRow(gam, (gam - 1, 0), (gam, -gam), "yes")
        yield TableRow(gam, (gam, 1 - gam), (gam, 1 - gam), "yes")
    yield TableRow(None, None, None, "")


def row_models(row: TableRow, r: int) -> list[ExtremalModel]:
    """The row's scroll models at a concrete r (empty off the row).  Their
    m is the row's coefficient, which fixes eps on a one-degree row."""
    from .extremal import classify_extremal

    if r < 3:
        raise InvalidInput(f"need r >= 3, got {r}")
    if row.degree_lo is None:
        return []
    (a, b), (c, e) = row.degree_lo, row.degree_hi
    return [model for d in range(max(a * r + b, 2 * r + 1), c * r + e + 1)
            for model in classify_extremal(d, r)
            if model.k is None and (model.gamma, model.m) == (row.gamma, a)]


def expected_status(row: TableRow, r: int) -> Status | None:
    """The verdict the row claims at a concrete r; None where it is silent."""
    from .verdicts import Status

    if row.verdict in (STAR, STAR_RESOLVED):  # holds at r = 4, fails from r = 5 on
        return Status.HOLDS if r == 4 else Status.VIOLATED if r >= 5 else None
    if row.verdict.startswith("yes"):
        return Status.HOLDS
    return Status.VIOLATED if row.verdict == "no" else None


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
    return chain.from_iterable(_scan_runs(r_lo, r_hi, d_max))


def _scan_runs(r_lo: int, r_hi: int, d_max: int | None):  # one record iterator per run
    from .castelnuovo import brill_noether, max_genus
    from .extremal import classify_run
    from .verdicts import slope_run

    for r in range(r_lo, r_hi + 1):
        d, stop = 2 * r + 1, (d_max if d_max is not None else 6 * r - 5) + 1
        while d < stop:
            models, end = classify_run(d, r)
            verdicts, ends = zip(*map(slope_run, models))
            end, rows = min(stop, end, *filter(None, ends)), []
            _, _, _, m, eps, _, pi, _, _ = models[0]  # the models share one split and genus
            rho = brill_noether(d, r, pi)
            for model, verdict in zip(models, verdicts):
                kind, gamma, status = str(model.kind), model.gamma, str(verdict.status)
                if end == d + 1:  # one degree: its row, not a set of iterators
                    rows.append([(r, d, m, eps, pi, kind, gamma, status, rho)])
                    continue
                step = max_genus(m, eps + 1, r) - pi
                rows.append(zip(repeat(r), range(d, end), repeat(m), count(eps),
                                count(pi, step), repeat(kind), repeat(gamma), repeat(status),
                                count(rho, brill_noether(d + 1, r, pi + step) - rho)))
            rows = rows[0] if len(rows) == 1 else chain.from_iterable(zip(*rows))
            yield map(tuple.__new__, repeat(ScanRecord), rows)
            d = end


def write_records(out, records: Iterable[dict | tuple], fmt: str = "md",
                  fieldnames: tuple[str, ...] | None = None) -> None:
    """Write flat records to the text stream ``out`` as a markdown pipe
    table, csv, or json, one ``out.write`` per BATCH records.

    A record is a row, a tuple of values in fieldnames order such as a
    ``ScanRecord``, or a dict read at the fieldnames, with None for a
    missing field, in every format.  Fields come from the first record (a
    dict's keys, a row's ``_fields``) unless given explicitly; no records
    at all, or a first row without ``_fields``, need explicit fieldnames
    and raise ``InvalidInput`` without them.  A record of another kind
    than the first, or a row of another width, raises ``InvalidInput`` as
    its batch is made.  The header goes out with the first batch, so an
    error raised while the first batch is made leaves ``out`` untouched.
    Output ends with a newline.
    """
    records = iter(records)
    first = list(islice(records, 1))
    kind = dict if first and isinstance(first[0], dict) else tuple
    if fieldnames is None:
        if not first:
            raise InvalidInput("empty record list needs explicit fieldnames")
        fieldnames = tuple(first[0]) if kind is dict else getattr(first[0], "_fields", None)
        if fieldnames is None:
            raise InvalidInput("rows without _fields need explicit fieldnames")
    render = _RENDERERS.get(fmt)
    if render is None:
        raise InvalidInput(f"unknown format {fmt!r}; use md, csv, or json")

    def rows(batch: list) -> list:
        # one C-level pass per check, so a row batch costs no Python step per record
        if not all(map(isinstance, batch, repeat(kind))):
            raise InvalidInput(f"records mix {kind.__name__}s with other kinds")
        if kind is dict:
            return [tuple(map(rec.get, fieldnames)) for rec in batch]
        if set(map(len, batch)) != {len(fieldnames)}:
            raise InvalidInput(f"a row does not hold the fields {fieldnames}")
        return batch

    records = chain(first, records)
    batches = map(rows, iter(lambda: list(islice(records, BATCH)), []))
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


def _md(batches, fieldnames):
    head = ("| " + " | ".join(fieldnames) + " |\n"
            + "| " + " | ".join("---" for _ in fieldnames) + " |\n")
    row = "| " + " | ".join(["%s"] * len(fieldnames)) + " |\n"
    for batch in batches:
        cells = tuple(chain.from_iterable(batch))
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
        writer.writerows(batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    if buf.tell():
        yield buf.getvalue()


def _json(batches, fieldnames):
    # Equal to json.dumps(records, indent=2) for any records, through one
    # C-encoder call per batch of flat ones: indent= forces the pure-Python
    # encoder.  The batch's values are encoded as one flat list with "\n"
    # between items; an encoded scalar never holds a raw newline, so the
    # pieces between newlines are the values, and they fill a template of
    # the record with its keys already encoded.  A nested value adds
    # pieces, or starts one with "[" or "{", which no scalar does; such a
    # batch, and a row of no fields, takes the pure-Python encoder, which
    # is exact for any value.
    import json

    flat = json.JSONEncoder(separators=("\n", ": ")).encode
    record = ("  {\n    " + ",\n    ".join(json.dumps(f).replace("%", "%%") + ": %s"
                                          for f in fieldnames) + "\n  }")
    sep = "[\n"
    for batch in batches:
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
