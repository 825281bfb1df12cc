"""The value types: immutable, compared by value, validated on construction,
and printed the way the command line's error messages quote them."""

import pytest

from extremalcurves import (
    DivisorClass,
    ExtremalModel,
    GonalityEntry,
    GonalityLedger,
    InvalidInput,
    ModelKind,
    ScrollEmbedding,
    SlopeVerdict,
    Status,
    TableRow,
    VerylastRow,
    baseline_ledger,
    classify_extremal,
    embed_extremal,
    known_family_verdict,
    plane_curve_gonality,
    plane_slope_verdict,
    profile,
    scan,
    table1,
    verylast_sequence,
)


def _samples():
    """One value of each type, with its field names in order."""
    return [
        (DivisorClass(1, 2, 3), "n a b"),
        (ScrollEmbedding(n=1, beta=2, r=4), "n beta r"),
        (profile(10, 4), "d r m eps pi"),
        (known_family_verdict("trigonal"), "status tag reason"),
        (classify_extremal(13, 5)[0], "kind d r m eps gamma g scroll_class k"),
        (embed_extremal(4, 12, 3),
         "gamma lam n scroll eps profile genus model hypothesis_met"),
        (baseline_ledger(4, 12).entry(2), "index lo hi exact provenance"),
        (verylast_sequence(3)[1][0], "a r degree eps"),
        (table1()[-1], "gamma degree_lo degree_hi verdict"),
    ]


def _fields(value, names):
    return {name: getattr(value, name) for name in names.split()}


def test_reprs():
    assert [repr(v) for v, _ in _samples()] == [
        "DivisorClass(n=1, a=2, b=3)",
        "ScrollEmbedding(n=1, beta=2, r=4)",
        "CurveProfile(d=10, r=4, m=3, eps=0, pi=9)",
        "SlopeVerdict(status=<Status.HOLDS: 'holds'>, tag='known-family',"
        " reason='every slope inequality holds for trigonal curves')",
        "ExtremalModel(kind=<ModelKind.TYPE_II: 'type_ii'>, d=13, r=5, m=3, eps=0,"
        " gamma=3, g=12, scroll_class=(3, 1), k=None)",
        "EmbedResult(gamma=4, lam=12, n=3, scroll=ScrollEmbedding(n=3, beta=4, r=6),"
        " eps=0, profile=CurveProfile(d=16, r=6, m=3, eps=0, pi=15), genus=15,"
        " model=ExtremalModel(kind=<ModelKind.TYPE_III: 'type_iii'>, d=16, r=6, m=3,"
        " eps=0, gamma=4, g=15, scroll_class=(4, -4), k=None), hypothesis_met=True)",
        "GonalityEntry(index=2, lo=5, hi=8, exact=False,"
        " provenance=('gonality', 'gonal-ceiling'))",
        "VerylastRow(a=0, r=4, degree=12, eps=2)",
        "TableRow(gamma=None, degree_lo=None, degree_hi=None, verdict='')",
    ]
    assert str(DivisorClass(1, 2, 3)) == "2*C0 + 3*L on F1"


@pytest.mark.parametrize("value, names", _samples(), ids=lambda v: type(v).__name__)
def test_immutable(value, names):
    with pytest.raises(AttributeError):
        setattr(value, names.split()[0], 0)
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("value, names", _samples(), ids=lambda v: type(v).__name__)
def test_equality_and_hash_by_value(value, names):
    twin = type(value)(**_fields(value, names))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


def test_unequal_values():
    assert DivisorClass(1, 2, 3) != DivisorClass(1, 2, 4)
    assert profile(10, 4) != profile(11, 4)
    assert len({DivisorClass(0, a, b) for a in range(3) for b in range(3)}) == 9


def test_keyword_construction():
    model = ExtremalModel(kind=ModelKind.PLANE_VERONESE, d=14, r=5, m=3, eps=1,
                          gamma=6, g=15, k=7)
    assert model == classify_extremal(14, 5)[-1]
    assert model.scroll_class is None
    assert ScrollEmbedding(n=1, beta=2, r=4) == ScrollEmbedding.from_unisecant(1, 2)
    assert SlopeVerdict(status=Status.HOLDS, tag="t", reason="r").record() == {
        "status": "holds", "tag": "t", "reason": "r"}
    assert GonalityEntry(index=1, lo=2, hi=2, exact=True, provenance=("x",)).index == 1
    assert VerylastRow(a=0, r=4, degree=12, eps=2) == verylast_sequence(3)[1][0]
    row = TableRow(gamma=3, degree_lo=(3, -2), degree_hi=(3, -2), verdict="yes (trigonal)")
    assert row == table1()[1]
    res = embed_extremal(4, 12, 3)
    assert (res.d, res.r) == (16, 6)


def test_invalid_data_rejected_by_constructor():
    with pytest.raises(InvalidInput):
        DivisorClass(-1, 0, 0)
    with pytest.raises(InvalidInput):
        DivisorClass(n=-1, a=0, b=0)
    with pytest.raises(InvalidInput):
        ScrollEmbedding(n=3, beta=2, r=2)
    with pytest.raises(InvalidInput):
        ScrollEmbedding(n=1, beta=2, r=5)
    with pytest.raises(InvalidInput, match=r"claimed eps=1, but the model is ExtremalModel\(kind="):
        ExtremalModel(kind=ModelKind.TYPE_II, d=13, r=5, m=3, eps=1, gamma=3, g=12,
                      scroll_class=(3, 1))
    with pytest.raises(InvalidInput, match=r"claimed g=11, but the model is .* g=12,"):
        ExtremalModel(ModelKind.TYPE_III, 13, 5, 3, 0, 4, 11, (4, -3))
    with pytest.raises(InvalidInput, match=r"claimed k=6, but the model is .* k=7\)"):
        ExtremalModel(kind=ModelKind.PLANE_VERONESE, d=14, r=5, m=3, eps=1,
                      gamma=6, g=15, k=6)


# a float, a str or None where an int belongs is refused at the call, by name,
# as invalid input that is also the TypeError Python raises for such arguments
@pytest.mark.parametrize("call, args, name", [
    (scan, (3.0, 4), "r_lo"), (scan, (3, "4"), "r_hi"), (scan, (3, 4, 20.5), "d_max"),
    (baseline_ledger, (4.0, 12), "gamma"), (baseline_ledger, ("4", 12), "gamma"),
    (baseline_ledger, (4, 12.0), "g"), (GonalityLedger, (4, None), "g"),
    (verylast_sequence, (4.0,), "n"),
    (profile, (10.0, 4), "d"), (profile, ("10", 4), "d"), (profile, (10, None), "r"),
    (classify_extremal, (13.0, 5), "d"), (embed_extremal, (4.0, 12, 3), "gamma"),
    (embed_extremal, (4, 12, 3.0), "n"), (plane_curve_gonality, (7.0, 2), "k"),
    (plane_slope_verdict, (7, 2.0), "r"), (table1, (6.5,), "gamma_max"),
], ids=lambda value: getattr(value, "__name__", repr(value)))
def test_non_integer_arguments_are_invalid_input(call, args, name):
    with pytest.raises(InvalidInput, match=f"^need an integer {name}, got ") as caught:
        call(*args)
    assert isinstance(caught.value, TypeError)
