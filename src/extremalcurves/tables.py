"""Parameter scans and record serialization.

``scan`` walks a concrete (r, d) window and yields one ``ScanRecord`` row
per extremal model, including its slope verdict and the Brill-Noether
number at the extremal genus.  It checks its arguments when called and
returns an iterator, not a list.  It walks runs of degrees, one
``classify_run`` and ``slope_run`` per run.  Within a run r, m, kind,
gamma and the verdict are fixed, d, eps, pi and rho step by constants
(one difference of ``max_genus`` and ``brill_noether``), and a run of
more than one degree lists one model.

``write_records`` renders records as markdown, csv or json to a text
stream, at most BATCH records per write, so its memory does not grow
with the number of records; ``serialize`` runs it into a string.  A
record is a row, a tuple in fieldnames order such as a ``ScanRecord``,
or a dict read at the fieldnames, with None for a missing field.

The renderers take runs: a run's fixed cells (a full row, None where a
cell steps) and its rows of stepping cells.  Each fills the fixed cells
into its row template once, anew only for another fixed tuple than the
last run's, and formats only the stepping cells per record.
``write_records`` passes its batches as runs with no fixed cells;
``write_scan`` passes a scan's runs, at most BATCH records each, and
makes no record; ``scan`` expands the same runs.  The summary table
lives in ``summary``, which no scan loads; its names resolve from here
too.  The engine layers, the verdicts and the csv and json encoders are
imported inside the functions that use them, so markdown loads none.
"""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice, repeat

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
    return chain.from_iterable(map(tuple.__new__, repeat(ScanRecord), _full(*run))
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


_STEPPING = (None,) * len(SCAN_FIELDS)  # a run with no fixed cells


def _scan_runs(r_lo: int, r_hi: int, d_max: int | None):
    """The window's runs, at most BATCH records each: a one-degree run as
    its models' full rows, a longer one, of one model, as its fixed cells
    and its (d, eps, pi, rho) rows."""
    from .castelnuovo import brill_noether, max_genus
    from .extremal import classify_run
    from .verdicts import slope_run

    for r in range(r_lo, r_hi + 1):
        d, stop = 2 * r + 1, (d_max if d_max is not None else 6 * r - 5) + 1
        while d < stop:
            models, end = classify_run(d, r)
            verdicts, ends = zip(*[slope_run(model) for model in models])
            end = min(chain((stop, end), filter(None, ends)))
            _, _, _, m, eps, _, pi, _, _ = models[0]  # the models share one split and genus
            rho = brill_noether(d, r, pi)
            if end == d + 1:
                yield _STEPPING, [(r, d, m, eps, pi, str(model.kind), model.gamma,
                                   str(verdict.status), rho)
                                  for model, verdict in zip(models, verdicts)]
            else:  # classify_run lists one model past one degree
                (model,), (verdict,) = models, verdicts
                fixed = (r, None, m, None, None, str(model.kind), model.gamma,
                         str(verdict.status), None)
                step = max_genus(m, eps + 1, r) - pi
                rows = zip(range(d, end), count(eps), count(pi, step),
                           count(rho, brill_noether(d + 1, r, pi + step) - rho))
                for _ in range(d, end, BATCH):
                    yield fixed, list(islice(rows, BATCH))
            d = end


def _full(fixed: tuple, rows: list):
    """A run's rows with its fixed cells in place, through C-level zips."""
    if fixed.count(None) == len(fixed):
        return rows
    steps = iter(zip(*rows))  # the stepping cells' columns
    return islice(zip(*[next(steps, ()) if cell is None else repeat(cell) for cell in fixed]),
                  len(rows))


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
    Output ends with a newline.  Each batch renders as a run with no fixed
    cells, through the renderers ``write_scan`` gives a scan's runs.
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
    _write_runs(out, fmt, zip(repeat((None,) * len(fieldnames)), batches), fieldnames)


def serialize(records: Iterable[dict | tuple], fmt: str = "md",
              fieldnames: tuple[str, ...] | None = None) -> str:
    """``write_records`` into a string."""
    buf = io.StringIO()
    write_records(buf, records, fmt, fieldnames)
    return buf.getvalue()


def _write_runs(out, fmt: str, runs, fieldnames: tuple[str, ...]) -> None:
    """Write the runs rendered in ``fmt``: the renderer's (text, records)
    pieces joined, at most BATCH records a write; a piece that fills a write
    goes out at once.  An unknown format raises before the first run."""
    render = _RENDERERS.get(fmt)
    if render is None:
        raise InvalidInput(f"unknown format {fmt!r}; use md, csv, or json")
    parts, held = [], 0
    for text, records in render(runs, fieldnames):
        if held + records > BATCH:
            out.write("".join(parts))
            parts, held = [], 0
        parts.append(text)
        held += records
        if held == BATCH:
            out.write("".join(parts))
            parts, held = [], 0
    if parts:
        out.write("".join(parts))


def _cell(value) -> str:
    return "" if value is None else str(value)


def _md(runs, fieldnames):
    head = ("| " + " | ".join(fieldnames) + " |\n"
            + "| " + " | ".join("---" for _ in fieldnames) + " |\n")
    fixed = None
    for cells, rows in runs:
        if cells is not fixed:
            fixed, row = cells, "| " + " | ".join(
                "%s" if cell is None else str(cell).replace("%", "%%") for cell in cells) + " |\n"
        values = list(chain.from_iterable(rows))
        if None in values:  # %s would write None as "None", not as an empty cell
            values = list(map(_cell, values))
        yield head + (row * len(rows)) % tuple(values), len(rows)
        head = ""
    if head:
        yield head, 0


def _csv(runs, fieldnames):
    # csv.writer writes None as "" and any other value as str(value), quoted
    # where it holds a delimiter, quote or line break; str of an int never
    # does, so a run of int stepping cells fills the template the writer
    # made of its fixed cells
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def written() -> str:
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    writer.writerow(fieldnames)
    head, fixed = written(), None
    for cells, rows in runs:
        values = list(chain.from_iterable(rows))
        if set(map(type, values)) <= {int}:
            if cells is not fixed:
                writer.writerow(["%s" if cell is None else str(cell).replace("%", "%%")
                                 for cell in cells])
                fixed, row = cells, written()
            yield head + (row * len(rows)) % tuple(values), len(rows)
        else:
            writer.writerows(_full(cells, rows))
            yield head + written(), len(rows)
        head = ""
    if head:
        yield head, 0


def _json(runs, fieldnames):
    # Equal to json.dumps(records, indent=2) for any records.  A run's fixed
    # cells go into its record template once: an int as its str, a str by
    # the escaper json.dumps uses, any other value by json.dumps(indent=2),
    # indented to the record's depth.  Stepping ints fill it as their str,
    # other values from one C-encoder call per run (indent= forces the
    # pure-Python encoder) as one flat list with "\n" between items.  No
    # encoded scalar holds a raw newline, so the pieces between newlines are
    # the values; a nested value adds pieces, or starts one with "[" or "{".
    # A run that holds one, and a row of no fields, take the pure-Python
    # encoder, which is exact for any value.
    import json
    from json.encoder import encode_basestring_ascii

    flat = json.JSONEncoder(separators=("\n", ": ")).encode

    def scalars(values: list) -> list | None:
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
    sep, fixed = "[\n", None
    for cells, rows in runs:
        if cells is not fixed:
            fixed, record = cells, fieldnames and "  {\n    " + ",\n    ".join(
                key + ("%s" if cell is None else encoded(cell).replace("%", "%%"))
                for key, cell in zip(keys, cells)) + "\n  }"
        values = list(chain.from_iterable(rows))
        pieces = values if set(map(type, values)) <= {int} else scalars(values)
        if record and pieces is not None:
            yield sep + ",\n".join([record] * len(rows)) % tuple(pieces), len(rows)
        else:
            records = [dict(zip(fieldnames, row)) for row in _full(cells, rows)]
            yield sep + json.dumps(records, indent=2)[2:-2], len(rows)
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n", 0


_RENDERERS = {"md": _md, "csv": _csv, "json": _json}
