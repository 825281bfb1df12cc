"""Symbolic table rows, concrete scans, and serialization."""

import csv
import io
import json
import random
from itertools import islice

import pytest

from extremalcurves import (
    InvalidInput,
    SCAN_FIELDS,
    STAR,
    STAR_RESOLVED,
    ScanRecord,
    Status,
    brill_noether,
    classify_extremal,
    expected_status,
    row_models,
    scan,
    serialize,
    slope_verdict,
    table1,
)
import extremalcurves.extremal
import extremalcurves.verdicts
from extremalcurves.cli import run
from extremalcurves.tables import BATCH, _rows, _write_runs, write_records


def test_table_shape():
    rows = table1(6)
    assert len(rows) == 18
    assert [row.gamma for row in rows] == [
        3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, None,
    ]
    assert rows[0].record() == {
        "d": "2r+1 <= d <= 3r-3", "gamma": 3, "m": 2,
        "eps": "2 <= eps <= r-2", "slope": "yes (trigonal)",
    }
    assert rows[1].record() == {
        "d": "3r-2", "gamma": 3, "m": 3, "eps": "0", "slope": "yes (trigonal)",
    }
    assert rows[2].record() == {
        "d": "3r-2", "gamma": 4, "m": 3, "eps": "0", "slope": STAR,
    }
    assert rows[2] == (4, (3, -2), (3, -2), STAR)
    assert rows[3].record() == {
        "d": "3r-1", "gamma": 4, "m": 3, "eps": "1", "slope": "no",
    }
    assert rows[4].record() == {
        "d": "3r <= d <= 4r-4", "gamma": 4, "m": 3,
        "eps": "2 <= eps <= r-2", "slope": "yes",
    }
    assert rows[15].record() == {
        "d": "5r <= d <= 6r-6", "gamma": 6, "m": 5,
        "eps": "4 <= eps <= r-2", "slope": "yes",
    }
    assert rows[17].record() == {"d": "...", "gamma": "", "m": "", "eps": "", "slope": ""}
    # larger tables extend; shared rows and the filler are unchanged
    wide = table1(8)
    assert len(wide) == 18 + 7 + 8
    assert wide[:17] == rows[:17]
    assert wide[-1] == rows[-1]


def test_table_blank_verdicts_above_gonality_four():
    rows = table1(6)
    blanks = [row for row in rows if row.verdict == "" and row.degree_lo is not None]
    assert [(row.gamma, row.record()["eps"]) for row in blanks] == [
        (5, "0"), (5, "1"), (5, "2"), (6, "0"), (6, "1"), (6, "2"), (6, "3"),
    ]


def test_table_modes():
    faithful = table1(6)
    resolved = table1(6, mode="resolved")
    diffs = [(a, b) for a, b in zip(faithful, resolved) if a != b]
    assert len(diffs) == 1
    star_row, split_row = diffs[0]
    assert star_row.verdict == STAR == "★"
    assert split_row.verdict == STAR_RESOLVED == "yes if r=4; no if r>=5"
    assert star_row[:3] == split_row[:3] == (4, (3, -2), (3, -2))
    assert [expected_status(star_row, r) for r in range(3, 31)] == \
        [expected_status(split_row, r) for r in range(3, 31)]


def test_table_validation():
    with pytest.raises(InvalidInput):
        table1(3)
    with pytest.raises(InvalidInput):
        table1(6, mode="terse")


def test_row_models_fixed_degree_rows():
    rows = table1(6)
    star = rows[2]
    models = row_models(star, 5)
    assert [(m.d, m.gamma, m.eps) for m in models] == [(13, 4, 0)]
    assert row_models(star, 4)[0].d == 10
    assert [(m.d, m.r) for m in row_models(star, 3)] == [(7, 3)]
    typeii = rows[5]
    assert [(m.d, m.gamma) for m in row_models(typeii, 6)] == [(21, 4)]


def test_row_models_band_rows():
    band = table1(6)[4]  # 3r <= d <= 4r-4 at gonality 4
    models = row_models(band, 6)
    assert [(m.d, m.eps) for m in models] == [(18, 2), (19, 3), (20, 4)]
    trigonal = table1(6)[0]
    assert [(m.d, m.eps) for m in row_models(trigonal, 5)] == [(11, 2), (12, 3)]
    six_band = table1(6)[15]  # empty window below r = gamma - 1
    assert row_models(six_band, 4) == []
    assert row_models(table1(6)[17], 7) == []
    with pytest.raises(InvalidInput):
        row_models(band, 2)


def test_expected_status():
    rows = table1(6)
    star = rows[2]
    assert expected_status(star, 3) is None
    assert expected_status(star, 4) is Status.HOLDS
    assert all(expected_status(star, r) is Status.VIOLATED for r in range(5, 31))
    assert expected_status(rows[0], 7) is Status.HOLDS
    assert expected_status(rows[3], 7) is Status.VIOLATED
    assert expected_status(rows[6], 7) is None
    assert expected_status(rows[17], 7) is None


def test_rows_agree_with_engine():
    hits = 0
    for row in table1(6, mode="resolved"):
        for r in range(5, 13):
            want = expected_status(row, r)
            if want is None:
                continue
            for model in row_models(row, r):  # empty windows instantiate nothing
                assert slope_verdict(model).status is want
                hits += 1
    assert hits > 150


def test_row_models_need_no_eps_filter():
    # d - 1 = m(r-1) + eps: once m is the coefficient c of d = cr + o, the
    # remainder is c + o - 1, so an eps filter on one-degree rows is implied
    pairs = nonempty = 0
    for row in table1(12, mode="resolved"):
        for r in range(3, 41):
            want = []
            if row.degree_lo is not None:
                (c, o), (c_hi, o_hi) = row.degree_lo, row.degree_hi
                want = [model for d in range(max(c * r + o, 2 * r + 1), c_hi * r + o_hi + 1)
                        for model in classify_extremal(d, r)
                        if model.k is None and (model.gamma, model.m) == (row.gamma, c)
                        and (row.degree_lo != row.degree_hi or model.eps == c + o - 1)]
            assert row_models(row, r) == want, (row, r)
            pairs += 1
            nonempty += bool(want)
    assert (pairs, nonempty) == (2850, 2646)  # 75 rows, the filler among them


def test_scan_window():
    records = list(scan(3, 4))
    assert len(records) == 26
    assert records[0].record() == {
        "r": 3, "d": 7, "m": 3, "eps": 0, "pi": 6,
        "kind": "type_ii", "gamma": 3, "verdict": "holds", "rho": -2,
    }
    assert records[1].record() == {
        "r": 3, "d": 7, "m": 3, "eps": 0, "pi": 6,
        "kind": "type_iii", "gamma": 4, "verdict": "undetermined", "rho": -2,
    }
    assert records[2].record() == {
        "r": 3, "d": 8, "m": 3, "eps": 1, "pi": 9,
        "kind": "type_iii", "gamma": 4, "verdict": "violated", "rho": -7,
    }
    by_key = {(rec.r, rec.d, rec.gamma): rec for rec in records}
    assert by_key[(4, 10, 4)].verdict == "holds"
    assert by_key[(4, 11, 4)].verdict == "violated"
    assert by_key[(4, 12, 4)].verdict == "holds"
    assert by_key[(4, 16, 5)].verdict == "holds"
    assert all(rec._fields == tuple(rec.record()) == SCAN_FIELDS for rec in records)


def test_scan_options():
    assert list(scan(3, 5)) == list(scan(3, 5))
    assert list(scan(3, 3, d_max=9)) == list(scan(3, 3))[:5]
    assert list(scan(3, 3, d_max=6)) == []
    with pytest.raises(InvalidInput):
        scan(2, 5)
    with pytest.raises(InvalidInput):
        scan(5, 3)


def test_serialize_markdown():
    records = list(scan(3, 4))[:1]
    assert serialize(records, "md") == (
        "| r | d | m | eps | pi | kind | gamma | verdict | rho |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| 3 | 7 | 3 | 0 | 6 | type_ii | 3 | holds | -2 |\n"
    )


def test_serialize_csv():
    records = list(scan(3, 4))[:2]
    assert serialize(records, "csv") == (
        "r,d,m,eps,pi,kind,gamma,verdict,rho\n"
        "3,7,3,0,6,type_ii,3,holds,-2\n"
        "3,7,3,0,6,type_iii,4,undetermined,-2\n"
    )


def test_serialize_json():
    records = list(scan(3, 4))[:2]
    text = serialize(records, "json")
    assert text.endswith("\n")
    assert json.loads(text) == [rec.record() for rec in records]


def test_serialize_edge_cases():
    assert serialize([], "csv", fieldnames=("a", "b")) == "a,b\n"
    assert serialize([], "md", fieldnames=("a",)) == "| a |\n| --- |\n"
    assert serialize([{"a": None}], "md") == "| a |\n| --- |\n|  |\n"
    assert serialize([(), ()], "json", ()) == serialize([{}, {}], "json") == "[\n  {},\n  {}\n]\n"
    with pytest.raises(InvalidInput):
        serialize([], "csv")
    with pytest.raises(InvalidInput):
        serialize([(1, 2)], "md")
    with pytest.raises(InvalidInput):
        serialize([{"a": 1}], "yaml")


# text shaped like a boundary between two json records, and like an empty record
SPLIT, EMPTY = "},\n    {", "{\n    \n  }"
VALUES = (None, True, False, 0, -7, -10**30, 10**30, 0.1, -2.5, 1e300, "", "★",
          'say "hi"', "back\\slash", "two\nlines", "é", "a,b", "pipe | cell", SPLIT, EMPTY,
          "%s", "100%", "%(r)s")
# a row's json template holds its keys, so one of them holds a format character
FIELDS = ("r", "name", "é", "x %s y")


def _old_serialize(records, fmt, fieldnames):
    """The renderer that held everything in memory, for comparison."""
    def cell(value):
        return "" if value is None else str(value)

    if fmt == "md":
        lines = ["| " + " | ".join(fieldnames) + " |",
                 "| " + " | ".join("---" for _ in fieldnames) + " |"]
        lines += ["| " + " | ".join(cell(rec.get(f)) for f in fieldnames) + " |"
                  for rec in records]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([cell(rec.get(f)) for f in fieldnames] for rec in records)
        return buf.getvalue()
    records = [{f: rec.get(f) for f in fieldnames} for rec in records]
    return json.dumps(records, indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1])
def test_serialize_matches_the_whole_text_renderer(count):
    rng = random.Random(count)
    fieldnames = FIELDS
    records = [{f: rng.choice(VALUES) for f in fieldnames if rng.random() < 0.7}
               for _ in range(count)]
    # the split text as keys and values, and an empty record, about a batch boundary
    for i, rec in zip(range(BATCH - 2, count),
                      ({}, {"name": SPLIT, SPLIT: EMPTY}, {EMPTY: 1, "x %s y": EMPTY, "r": SPLIT})):
        records[i] = rec
    for fmt in ("md", "csv", "json"):
        want = _old_serialize(records, fmt, fieldnames)
        assert serialize(records, fmt, fieldnames) == want
        assert serialize(iter(records), fmt, fieldnames) == want
        if records:
            assert serialize(records, fmt) == _old_serialize(records, fmt, tuple(records[0]))


@pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1])
def test_rows_serialize_as_their_dicts(count):
    rng = random.Random(count)
    rows = [tuple(rng.choice(VALUES) for _ in FIELDS) for _ in range(count)]
    dicts = [dict(zip(FIELDS, row)) for row in rows]
    scanned = list(islice(scan(3, 24), count))
    for fmt in ("md", "csv", "json"):
        want = _old_serialize(dicts, fmt, FIELDS)
        assert serialize(rows, fmt, FIELDS) == serialize(dicts, fmt, FIELDS) == want
        assert serialize(iter(rows), fmt, FIELDS) == want
        want = serialize([rec.record() for rec in scanned], fmt, SCAN_FIELDS)
        assert serialize(scanned, fmt, SCAN_FIELDS) == want
        if scanned:  # a ScanRecord names its own fields
            assert serialize(scanned, fmt) == want


@pytest.mark.parametrize("nested", [[5], [1, "two"], [[]], {"a": [1]}, {"%s": None}, [], {}],
                         ids=repr)
def test_row_with_a_nested_value_renders_as_json_dumps(nested):
    rows = [(1, "a", 0.5, "b")] * (BATCH + 3)
    rows[0] = (nested, 3, "d", None)  # the first batch's only nested value is its first
    rows[BATCH + 1] = (2, nested, None, nested)
    dicts = [dict(zip(FIELDS, row)) for row in rows]
    for records in (rows, dicts):
        assert serialize(records, "json", FIELDS) == json.dumps(dicts, indent=2) + "\n"
    assert serialize(dicts, "json") == json.dumps(dicts, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_fixed_cells_render_as_their_full_rows(fmt):
    # a scan's fixed cells are ints and tokens; the renderers take any value
    # there, nested ones and format characters included, and runs of full
    # rows between column runs of one fixed tuple
    rng = random.Random(fmt)
    cells = [value for value in VALUES if value is not None] + [[5], {"a": [1]}, [], (1, "%s")]
    for _ in range(200):
        fixed = tuple(rng.choice(cells) if rng.random() < 0.5 else None for _ in FIELDS)
        runs = []
        for n in (rng.randint(1, 3) for _ in range(rng.randint(1, 4))):
            if rng.random() < 0.3:
                runs.append((None, [tuple(rng.choice(VALUES) for _ in FIELDS)
                                    for _ in range(n)], n))
            else:
                runs.append((fixed, [[rng.choice(VALUES) for _ in range(n)]
                                     for _ in range(fixed.count(None))], n))
        out = io.StringIO()
        _write_runs(out, fmt, runs, FIELDS)
        rows = [row for run in runs for row in _rows(*run)]
        assert list(map(len, rows)) == [len(FIELDS)] * sum(n for _, _, n in runs)
        assert out.getvalue() == serialize(rows, fmt, FIELDS), runs


# a row of another width, and a record of another kind than the first
MALFORMED = [((1, 2), (3, 4, 5)), ((1, 2), (4,)), ((1, 2), {"a": 5, "b": 6}),
             ({"a": 1, "b": 2}, (5, 6)), ((1, 2), [5, 6]), ((1, 2), None)]


@pytest.mark.parametrize("good, bad", MALFORMED, ids=repr)
@pytest.mark.parametrize("at", [1, BATCH + 1])
@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_malformed_records_raise_invalid_input(fmt, at, good, bad):
    records = [good] * (BATCH + 3)
    records[at] = bad
    out = io.StringIO()
    with pytest.raises(InvalidInput):
        write_records(out, records, fmt, ("a", "b"))
    # the batches before the bad one are out, so a bad first batch writes nothing
    written = out.getvalue()
    assert serialize([good] * BATCH, fmt, ("a", "b")).startswith(written)
    assert (written == "") == (at < BATCH)


def test_scan_profiles_each_run_once(monkeypatch):
    # one check and profile per r, then the run walk steps the split; the
    # decision calls grow with the runs of degrees, not with the records:
    # past r = 5 every r has the same runs in number
    calls = {"profile": 0, "slope_run": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(extremalcurves.extremal, "profile")
    counting(extremalcurves.verdicts, "slope_run")
    seen = {}
    for r in (8, 40, 80):
        calls.update(profile=0, slope_run=0)
        seen[r] = (len(list(scan(r, r))), calls["profile"], calls["slope_run"])
    assert seen == {8: (31, 1, 15), 40: (159, 1, 15), 80: (319, 1, 15)}
    calls.update(profile=0, slope_run=0)
    records = list(scan(3, 48))
    assert len(records) == 4653
    assert calls["profile"] == 46 and calls["slope_run"] <= 16 * 46


def _scan_reference(r_lo, r_hi, d_max=None):
    # the per-point loop scan ran before it walked runs of degrees
    for r in range(r_lo, r_hi + 1):
        ceiling = d_max if d_max is not None else 6 * r - 5
        for d in range(2 * r + 1, ceiling + 1):
            for model in classify_extremal(d, r):
                yield (r, d, model.m, model.eps, model.g, model.kind.value, model.gamma,
                       slope_verdict(model).status.value, brill_noether(d, r, model.g))


# windows that cut every run boundary: d_max below 2*r_lo+1 and at it,
# inside a period, at 3r-2 and 3r-1 and far past 6r-5; r_lo = r_hi; r = 4
# (the fourgonal 10-4 case) and r = 5 (plane models between scroll records);
# far windows whose one-degree runs fill many batches (r = 3 and 5) or
# alternate with longer runs (r = 4 and 6); and a window whose batch of
# one-degree runs, begun at r = 3, crosses BATCH inside a degree
DIFFERENTIAL = [(3, 40, None), (6, 9, 12), (6, 9, 13), (3, 12, 200), (20, 22, 500),
                (17, 17, None), (4, 4, None), (5, 5, None), (5, 5, 120)] + [
    (r, r, d_max) for r in (3, 4, 5, 6, 7, 9, 13) for d_max in range(2 * r, 6 * r + 2)] + [
    (r, r, 3000) for r in (3, 4, 5, 6)] + [(3, 5, 121)]


def test_scan_equals_the_per_point_reference():
    for r_lo, r_hi, d_max in DIFFERENTIAL:
        records = list(scan(r_lo, r_hi, d_max))
        assert records == list(_scan_reference(r_lo, r_hi, d_max)), (r_lo, r_hi, d_max)
        assert all(type(rec) is ScanRecord for rec in records)
    straddling = list(scan(3, 5, 121))
    assert straddling[BATCH - 1][:2] == straddling[BATCH][:2] == (5, 118)


# the differential windows, a run longer than BATCH (r = 600 has runs of 597
# degrees) and a window with no record
@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_cli_scan_prints_the_serialized_scan(capsys, fmt):
    for r_lo, r_hi, d_max in DIFFERENTIAL + [(600, 600, None), (3, 5, 6)]:
        argv = ["scan", str(r_lo), str(r_hi), "--format", fmt]
        argv += [] if d_max is None else ["--d-max", str(d_max)]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out == serialize(scan(r_lo, r_hi, d_max), fmt, SCAN_FIELDS), argv


def test_equal_slope_verdicts_are_one_object():
    # a plane verdict names its index, so only the scroll models share
    seen = {}
    for r in range(3, 13):
        for d in range(2 * r + 1, 6 * r - 4):
            for model in classify_extremal(d, r):
                if model.k is None:
                    verdict = slope_verdict(model)
                    assert seen.setdefault(verdict, verdict) is verdict
    assert len(seen) == 6
