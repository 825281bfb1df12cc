"""Parameter scans and record serialization.

``scan`` walks a concrete (r, d) window and yields one ``ScanRecord`` row
per extremal model, with its slope verdict and the Brill-Noether number at
the extremal genus; it checks its arguments when called.  Per r it
consumes one ``classify_runs`` walk and cuts its runs where ``slope_run``
ends a verdict.  A one-degree run goes out as full rows, batched with its
neighbours; a longer one, of one model, as its fixed cells and its
(d, eps, pi, rho) ranges, which ``scan`` zips with the repeated cells.

``write_records`` renders records as markdown, csv or json, at most BATCH
records per write, and ``serialize`` into a string; ``write_scan`` renders
a scan's runs through the same code and makes no record.  The summary
table lives in ``summary``; its names resolve from here too.  The engine
layers, the verdicts and the csv and json encoders are imported inside the
functions that use them, so markdown loads none.
"""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat

from .errors import InvalidInput, need_int

SCAN_FIELDS = ("r", "d", "m", "eps", "pi", "kind", "gamma", "verdict", "rho")

BATCH = 512  # records per write: rendering memory stays flat in the record count

# the summary table's names, read from summary on first use (PEP 562)
_SUMMARY = frozenset("MODES STAR STAR_RESOLVED TABLE_FIELDS TableRow expected_status"
                     " row_models table1 table1_rows".split())


def __getattr__(name: str):
    if name not in _SUMMARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import summary

    return getattr(summary, name)


class ScanRecord(namedtuple("ScanRecord", SCAN_FIELDS)):
    """One extremal model of a scan: its (r, d) point, the split (m, eps),
    the genus pi, the kind and gonality, the slope status token and the
    Brill-Noether number rho."""

    __slots__ = ()

    def record(self) -> dict:
        return dict(zip(SCAN_FIELDS, self))


def scan(r_lo: int, r_hi: int, d_max: int | None = None) -> Iterator[ScanRecord]:
    """One ``ScanRecord`` per model over r in [r_lo, r_hi], d from 2r+1 up.

    The degree ceiling is d_max when given, else 6r-5 per r (one full
    period past the highest tabulated family).  rho is the Brill-Noether
    number at the extremal genus.  The arguments are checked when scan is
    called; the records come from the returned iterator one at a time,
    expanded from the window's runs, so a window is never held whole.
    """
    runs = _scan_runs(*_window(r_lo, r_hi, d_max))
    return chain.from_iterable(map(tuple.__new__, repeat(ScanRecord), _rows(*run))
                               for run in runs)


def write_scan(out, r_lo: int, r_hi: int, d_max: int | None = None, fmt: str = "md") -> None:
    """``write_records(out, scan(r_lo, r_hi, d_max), fmt)``, rendered a run
    at a time: the same text, with no record made.  The arguments are
    checked before the first write."""
    _write_runs(out, fmt, _scan_runs(*_window(r_lo, r_hi, d_max)), SCAN_FIELDS)


def _window(r_lo, r_hi, d_max) -> tuple[int, int, int | None]:
    """The checked window, r_hi cut to the last r with a degree 2r+1 <= d_max."""
    need_int(r_lo=r_lo, r_hi=r_hi, d_max=0 if d_max is None else d_max)  # None: no ceiling
    if r_lo < 3:
        raise InvalidInput(f"need r_lo >= 3, got {r_lo}")
    if r_hi < r_lo:
        raise InvalidInput(f"need r_hi >= r_lo, got {r_hi} < {r_lo}")
    if d_max is not None:  # no degree d >= 2r+1 fits under d_max past this r
        r_hi = min(r_hi, (d_max - 1) // 2)
    return r_lo, r_hi, d_max


def _scan_runs(r_lo: int, r_hi: int, d_max: int | None):
    """The window's runs, at most BATCH records each: consecutive one-degree
    runs as their models' full rows, a longer run, of one model, as its
    fixed cells and its (d, eps, pi, rho) columns."""
    from .castelnuovo import brill_noether, max_genus
    from .extremal import classify_runs
    from .verdicts import slope_run

    rows = []
    for r in range(r_lo, r_hi + 1):
        stop = (d_max if d_max is not None else 6 * r - 5) + 1
        for models, end in classify_runs(r, 2 * r + 1, stop):
            _, d, _, m, eps, _, pi, _, _ = models[0]  # the models share one split and genus
            rho = brill_noether(d, r, pi)
            if end == d + 1:
                for kind, _, _, _, _, gamma, _, _, k in models:
                    verdict, _ = slope_run(d, r, gamma, k)
                    rows.append((r, d, m, eps, pi, str(kind), gamma, str(verdict.status), rho))
                    if len(rows) == BATCH:
                        yield None, rows, BATCH
                        rows = []
                continue
            if rows:
                yield None, rows, len(rows)
                rows = []
            ((kind, _, _, _, _, gamma, _, _, _),) = models  # past one degree, one model
            pi_step = max_genus(m, eps + 1, r) - pi
            rho_step = brill_noether(d + 1, r, pi + pi_step) - rho
            while d < end:  # a verdict's run ends at the latest where its model's does
                verdict, cut = slope_run(d, r, gamma, None)
                n = min(cut or end, end, d + BATCH) - d
                yield ((r, None, m, None, None, str(kind), gamma, str(verdict.status), None),
                       (range(d, d + n), range(eps, eps + n), range(pi, pi + n * pi_step, pi_step),
                        range(rho, rho + n * rho_step, rho_step)), n)
                d, eps, pi, rho = d + n, eps + n, pi + n * pi_step, rho + n * rho_step
    if rows:
        yield None, rows, len(rows)


def _rows(fixed: tuple | None, cells, n: int):
    """A run's n full rows: its cells, or its fixed cells zipped with its columns."""
    if fixed is None:
        return cells
    columns = iter(cells)
    return islice(zip(*[next(columns) if cell is None else repeat(cell) for cell in fixed]), n)


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
    _write_runs(out, fmt, ((None, batch, len(batch)) for batch in batches), fieldnames)


def serialize(records: Iterable[dict | tuple], fmt: str = "md",
              fieldnames: tuple[str, ...] | None = None) -> str:
    """``write_records`` into a string."""
    buf = io.StringIO()
    write_records(buf, records, fmt, fieldnames)
    return buf.getvalue()


def _write_runs(out, fmt: str, runs, fieldnames: tuple[str, ...]) -> None:
    """Write the runs rendered in ``fmt``, at most BATCH records a write; a
    run that fills a write goes out at once.  An unknown format raises
    before the first run.  The format gives its head, its separator between
    records, its tail, its text for no records and three functions: the row
    template of given fixed cells (for full rows the all-``%s`` one, made
    once); ``fill``, the template's arguments from a run's values and
    whether all are ints, or None; and ``whole``, the text of full rows, for
    a run that ``fill`` or a falsy template refuses.  The values come flat
    from one C-level pass, as a list: a tuple of unknown length grows by
    resizing, and the small tuples so made pile up on free lists."""
    form = _FORMATS.get(fmt)
    if form is None:
        raise InvalidInput(f"unknown format {fmt!r}; use md, csv, or json")
    head, sep, tail, empty, template, fill, whole = form(fieldnames)
    last = None
    row = free = template(repeat(None, len(fieldnames)))
    parts, held, lead = [], 0, head
    for fixed, cells, n in runs:
        if fixed is not last:
            last, row = fixed, free if fixed is None else template(fixed)
        values = list(chain.from_iterable(cells if fixed is None else zip(*cells)))
        ints = fixed is not None and set(map(type, cells)) == {range}  # ranges hold ints
        args = fill(values, ints or set(map(type, values)) <= {int})
        if held + n > BATCH:
            out.write("".join(parts))
            parts, held = [], 0
        parts += lead, (sep.join([row] * n) % tuple(args) if row and args is not None
                        else whole(_rows(fixed, cells, n)))
        lead, held = sep, held + n
        if held == BATCH:
            out.write("".join(parts))
            parts, held = [], 0
    rest = "".join(parts) + (empty if lead is head else tail)
    if rest:
        out.write(rest)


def _cell(value) -> str:
    return "" if value is None else str(value)


def _md(fieldnames):
    head = ("| " + " | ".join(fieldnames) + " |\n"
            + "| " + " | ".join("---" for _ in fieldnames) + " |\n")

    def template(cells) -> str:
        return "| " + " | ".join(
            ["%s" if cell is None else str(cell).replace("%", "%%") for cell in cells]) + " |\n"

    def fill(values: list, ints: bool) -> list:  # %s would write None as "None", not ""
        return values if ints or None not in values else list(map(_cell, values))

    return head, "", "", head, template, fill, None


def _csv(fieldnames):
    # csv.writer writes None as "" and any other value as str(value), quoted
    # where it holds a delimiter, quote or line break; str of an int never
    # does, so a run of int values fills the template the writer made of
    # its fixed cells
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def written(write, rows) -> str:
        write(rows)
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    def template(cells) -> str:
        return written(writer.writerow, ["%s" if cell is None else str(cell).replace("%", "%%")
                                         for cell in cells])

    head = written(writer.writerow, fieldnames)
    return (head, "", "", head, template, lambda values, ints: values if ints else None,
            lambda rows: written(writer.writerows, rows))


def _json(fieldnames):
    # Equal to json.dumps(records, indent=2) for any records.  Fixed cells
    # go into the record template as json.dumps(indent=2) writes them at the
    # record's depth.  Int values fill it as their str, others from one
    # C-encoder call per run (indent= forces the pure-Python encoder), as a
    # flat list with "\n" between items: no encoded scalar holds a raw
    # newline, and a nested value adds pieces or starts one with "[" or "{".
    # A run that holds one, and a row of no fields, take json.dumps itself.
    import json
    from json.encoder import encode_basestring_ascii

    flat = json.JSONEncoder(separators=("\n", ": ")).encode

    def fill(values: list, ints: bool) -> list | None:
        if ints:
            return values
        text = flat(values)
        pieces = text[1:-1].split("\n") if values else []
        if len(pieces) != len(values) or text[1] in "[{" or "\n[" in text or "\n{" in text:
            return None
        return pieces

    def encoded(cell) -> str:
        if type(cell) is int:
            return str(cell)
        if type(cell) is str:
            return encode_basestring_ascii(cell)
        return json.dumps(cell, indent=2).replace("\n", "\n    ")

    keys = [json.dumps(f).replace("%", "%%") + ": " for f in fieldnames]

    def template(cells) -> str:
        return fieldnames and "  {\n    " + ",\n    ".join(
            [key + ("%s" if cell is None else encoded(cell).replace("%", "%%"))
             for key, cell in zip(keys, cells)]) + "\n  }"

    def whole(rows) -> str:
        return json.dumps([dict(zip(fieldnames, row)) for row in rows], indent=2)[2:-2]

    return "[\n", ",\n", "\n]\n", "[]\n", template, fill, whole


_FORMATS = {"md": _md, "csv": _csv, "json": _json}
