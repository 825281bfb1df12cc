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
    Status,
    classify_extremal,
    expected_status,
    row_models,
    scan,
    serialize,
    slope_verdict,
    table1,
)
import extremalcurves.extremal
from extremalcurves.tables import BATCH


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
    assert rows[2].star
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
    assert [(row.gamma, row.eps) for row in blanks] == [
        (5, 0), (5, 1), (5, 2), (6, 0), (6, 1), (6, 2), (6, 3),
    ]


def test_table_modes():
    faithful = table1(6)
    resolved = table1(6, mode="resolved")
    diffs = [(a, b) for a, b in zip(faithful, resolved) if a != b]
    assert len(diffs) == 1
    star_row, split_row = diffs[0]
    assert star_row.verdict == STAR == "★"
    assert split_row.verdict == STAR_RESOLVED == "yes if r=4; no if r>=5"
    assert star_row.star and split_row.star


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
        serialize([{"a": 1}], "yaml")


# the text the json renderer splits a batch at, and the text of an empty record
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
    assert serialize(rows, "json", FIELDS) == json.dumps(dicts, indent=2) + "\n"


def test_scan_profiles_each_point_once(monkeypatch):
    calls = 0
    profile = extremalcurves.extremal.profile

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return profile(*args, **kwargs)

    monkeypatch.setattr(extremalcurves.extremal, "profile", counting)
    records = list(scan(3, 48))
    assert len(records) == 4653
    assert calls == len({(rec.r, rec.d) for rec in records}) == 4462


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
