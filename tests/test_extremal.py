"""Classification, verification, and construction of extremal models."""

import copy
import pickle

import pytest

from extremalcurves import (
    DivisorClass,
    DomainError,
    EmbeddingError,
    ExtremalModel,
    InvalidInput,
    ModelKind,
    PlaneCurveContraction,
    UnsupportedInput,
    classify_extremal,
    embed_extremal,
    gonality_from_class,
    scroll_from_rn,
    verify_extremal_class,
)
from extremalcurves.castelnuovo import plane_genus, profile
from extremalcurves.extremal import classify_runs
from extremalcurves.selfcheck import classified_classes, no_degenerate_models, tally

WINDOWS = [(d, r) for r in range(3, 13) for d in range(2 * r + 1, 5 * r)]


def test_classify_divisible_degree():
    models = classify_extremal(13, 5)
    assert [m.kind for m in models] == [ModelKind.TYPE_II, ModelKind.TYPE_III]
    assert [m.gamma for m in models] == [3, 4]
    assert models[0].scroll_class == (3, 1)
    assert models[0].class_label == "3H+L"
    assert models[1].scroll_class == (4, -3)
    assert models[1].class_label == "4H-3L"
    assert all(m.g == 12 for m in models)


def test_classify_remainder_one():
    models = classify_extremal(14, 5)
    assert [m.kind for m in models] == [ModelKind.TYPE_III, ModelKind.PLANE_VERONESE]
    assert models[0].gamma == 4 and models[0].scroll_class == (4, -2)
    assert models[1].gamma == 6 and models[1].k == 7
    assert models[1].scroll_class is None and models[1].class_label == ""
    assert all(m.g == 15 for m in models)


def test_classify_higher_section():
    models = classify_extremal(21, 6)
    assert [m.kind for m in models] == [ModelKind.TYPE_II, ModelKind.TYPE_III]
    assert models[0].gamma == 4 and models[0].scroll_class == (4, 1)
    assert models[1].gamma == 5 and models[1].scroll_class == (5, -4)
    assert all(m.g == 30 for m in models)


def test_classify_gates():
    with pytest.raises(InvalidInput):
        classify_extremal(10, 5)  # below the d >= 2r+1 regime
    with pytest.raises(InvalidInput):
        classify_extremal(7, 2)


def test_classify_record_shape():
    rec = classify_extremal(13, 5)[0].record()
    assert rec == {
        "kind": "type_ii",
        "gamma": 3,
        "m": 3,
        "eps": 0,
        "d": 13,
        "r": 5,
        "genus": 12,
        "class": "3H+L",
        "k": None,
    }


def test_model_validation():
    with pytest.raises(InvalidInput):
        ExtremalModel(kind=ModelKind.TYPE_II, d=13, r=5, m=3, eps=0,
                      gamma=3, g=12, scroll_class=(3, 2))
    with pytest.raises(InvalidInput):
        ExtremalModel(kind=ModelKind.TYPE_III, d=13, r=5, m=3, eps=0,
                      gamma=4, g=11, scroll_class=(4, -3))
    with pytest.raises(InvalidInput):
        ExtremalModel(kind=ModelKind.PLANE_VERONESE, d=14, r=4, m=3, eps=1,
                      gamma=6, g=15, k=7)


def test_maximal_genus_check_covers_plane_models():
    # pi(2k, 5) is the plane-curve genus, so plane models need no genus check of their own
    for k in range(6, 2001):
        assert profile(2 * k, 5).pi == plane_genus(k)
    ExtremalModel(kind=ModelKind.PLANE_VERONESE, d=14, r=5, m=3, eps=1, gamma=6, g=15, k=7)
    with pytest.raises(InvalidInput, match=r"claimed g=14, but the model is .* g=15,"):
        ExtremalModel(kind=ModelKind.PLANE_VERONESE, d=14, r=5, m=3, eps=1,
                      gamma=6, g=14, k=7)


def _per_kind(d, r, p):
    """(gamma, scroll class, k) of each kind, from the trichotomy."""
    return {
        ModelKind.TYPE_II: (p.m, (p.m, 1), None),
        ModelKind.TYPE_III: (p.m + 1, (p.m + 1, -(r - p.eps - 2)), None),
        ModelKind.PLANE_VERONESE: (d // 2 - 1, None, d // 2),
    }


def test_constructor_derives_every_field():
    count = absent = 0
    for r in range(3, 31):
        for d in range(2 * r + 1, 8 * r + 1):
            p = profile(d, r)
            per_kind = _per_kind(d, r, p)
            models = classify_extremal(d, r)
            for model in models:
                gamma, scroll_class, k = per_kind[model.kind]
                assert model == (model.kind, d, r, p.m, p.eps, gamma, p.pi, scroll_class, k)
                assert ExtremalModel(model.kind, d, r) == model
                count += 1
            for kind in set(ModelKind) - {model.kind for model in models}:
                with pytest.raises(InvalidInput, match=f"no {kind} model at d={d} r={r}"):
                    ExtremalModel(kind, d, r)
                absent += 1
    assert count == 2964
    assert absent == 5352


def test_the_run_walk_steps_what_classify_extremal_lists():
    # the runs tile the degrees up to stop; each lists classify_extremal at
    # its first degree, and its later degrees keep the kinds and gamma with
    # m fixed and eps one up; past one degree a run lists one model
    runs = 0
    for r in range(3, 31):
        for start, stop in ((2 * r + 1, 8 * r), (3 * r, 5 * r + 2), (4 * r, 4 * r)):
            d = start
            for models, end in classify_runs(r, start, stop):
                assert models == classify_extremal(d, r) and d < end <= stop, (r, d)
                assert end == d + 1 or len(models) == 1, (r, d)
                for later in range(d + 1, end):
                    assert [(m.kind, m.gamma, m.m, m.eps) for m in classify_extremal(later, r)] \
                        == [(m.kind, m.gamma, m.m, m.eps + later - d) for m in models], (r, later)
                d = end
                runs += 1
            assert d == max(start, stop)
    assert runs == 543
    with pytest.raises(InvalidInput, match="need r >= 3"):
        next(classify_runs(2, 7, 20))
    with pytest.raises(InvalidInput, match="need an integer d"):
        next(classify_runs(4, 9.0, 20))


def _sample_models():
    """A model of each kind, with and without a remainder, and an embedded one."""
    return [*classify_extremal(13, 5), *classify_extremal(14, 5),
            *classify_extremal(21, 6), embed_extremal(5, 13, 2).model]


def _wrong_claims(model):
    """Each claim of the model on its own, changed by one."""
    for name in ("m", "eps", "gamma", "g", "k"):
        value = getattr(model, name)
        for delta in (-1, 1):
            yield name, (model.d // 2 if value is None else value) + delta
    if model.scroll_class is None:
        yield "scroll_class", (model.gamma, 0)
    else:
        h, l = model.scroll_class
        for delta in (-1, 1):
            yield "scroll_class", (h + delta, l)
            yield "scroll_class", (h, l + delta)


@pytest.mark.parametrize("model", _sample_models(), ids=lambda m: f"{m.kind}-{m.d}-{m.r}")
def test_each_claim_is_checked(model):
    fields = model._asdict()
    assert ExtremalModel(*model) == model
    for name in ("m", "eps", "gamma", "g", "scroll_class", "k"):
        assert ExtremalModel(model.kind, model.d, model.r, **{name: fields[name]}) == model
    for name, wrong in _wrong_claims(model):
        with pytest.raises(InvalidInput):
            ExtremalModel(model.kind, model.d, model.r, **{name: wrong})
        with pytest.raises(InvalidInput):
            ExtremalModel(*{**fields, name: wrong}.values())


def test_constructor_refuses_bad_kinds_and_ranks():
    with pytest.raises(InvalidInput, match="need r >= 3, got r=2"):
        ExtremalModel(ModelKind.TYPE_III, 7, 2)
    with pytest.raises(InvalidInput, match="type-II models need eps=0"):
        ExtremalModel(ModelKind.TYPE_II, 14, 5)
    with pytest.raises(InvalidInput, match="plane models need r=5 and d=2k"):
        ExtremalModel(ModelKind.PLANE_VERONESE, 13, 5)
    with pytest.raises(InvalidInput, match="unknown model kind 'plane_veronese'"):
        ExtremalModel("plane_veronese", 14, 5)


@pytest.mark.parametrize("kind", list(ModelKind), ids=str)
def test_constructor_refuses_degrees_below_the_regime(kind):
    for r in range(3, 13):
        for d in (2 * r - 1, 2 * r):
            regime = rf"extremal curves need d >= 2r\+1 = {2 * r + 1}, got d={d}"
            with pytest.raises(InvalidInput, match=regime):
                ExtremalModel(kind, d, r)


def test_models_round_trip_pickle_and_copy():
    models = [m for r in range(3, 9) for d in range(2 * r + 1, 4 * r + 1)
              for m in classify_extremal(d, r)] + _sample_models()
    assert any(m.kind is ModelKind.PLANE_VERONESE for m in models)
    for model in models:
        for twin in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert twin == model and type(twin) is ExtremalModel


def test_verify_known_classes():
    scroll = scroll_from_rn(5, 0)
    assert verify_extremal_class(3, 1, scroll)
    assert verify_extremal_class(4, -3, scroll)
    assert not verify_extremal_class(2, 0, scroll)  # d=8 below the regime
    assert not verify_extremal_class(2, 5, scroll)  # bisecant, g=11 < 12
    assert not verify_extremal_class(1, 0, scroll)
    with pytest.raises(DomainError):
        verify_extremal_class(0, 0, scroll)
    with pytest.raises(DomainError):
        verify_extremal_class(-1, 2, scroll)


def test_verify_all_classified_models():
    assert tally(classified_classes(WINDOWS)) == (677, [])


def test_embed_surface_class():
    res = embed_extremal(4, 12, 3)
    assert (res.r, res.d, res.genus) == (6, 16, 15)
    assert res.scroll.beta == 4 and res.eps == 0
    assert res.hypothesis_met and res.model is not None
    assert res.model.kind is ModelKind.TYPE_III
    assert res.model.scroll_class == (4, -4)
    assert res.profile.m == 3 and res.genus == res.profile.pi


def test_embed_with_remainder():
    res = embed_extremal(5, 13, 2)
    assert (res.r, res.d, res.eps, res.genus) == (5, 18, 1, 28)
    assert res.model.scroll_class == (5, -2)


def test_embed_cone_case():
    res = embed_extremal(4, 8, 2)
    assert res.scroll.is_cone and res.scroll.beta == 2
    assert (res.r, res.d, res.genus) == (3, 8, 9)
    assert res.model.scroll_class == (4, 0)
    assert res.model.class_label == "4H"


def test_embed_cone_needs_disjoint_section():
    with pytest.raises(EmbeddingError):
        embed_extremal(5, 11, 2)  # beta=2=n but the curve meets C0


def test_embed_plane_contraction():
    with pytest.raises(PlaneCurveContraction):
        embed_extremal(4, 4, 1)
    with pytest.raises(PlaneCurveContraction):
        embed_extremal(3, 3, 1)


def test_embed_rejects_low_gonality():
    with pytest.raises(UnsupportedInput):
        embed_extremal(2, 7, 3)
    with pytest.raises(UnsupportedInput):
        embed_extremal(7, 2, 0)  # swaps to gonality 2 on the product surface
    with pytest.raises(DomainError):
        embed_extremal(4, 5, 2)  # 4*C0+5*L is not smoothable on F2


def test_embed_refuses_only_the_cone_and_the_plane_classes():
    # beta < n cannot happen: a smoothable class has lam >= gamma*n with
    # gamma >= 3, so beta = (lam-n-1) div (gamma-2) >= n, and on n=0 the
    # ruling swap leaves lam >= gamma >= 3
    cones, planes = [], []
    for n in range(12):
        for gamma in range(-3, 15):
            for lam in range(-40, 220):
                try:
                    embed_extremal(gamma, lam, n)
                except PlaneCurveContraction:
                    planes.append((gamma, lam, n))
                except EmbeddingError:
                    x = DivisorClass(n, gamma, lam).normalized_ruling()
                    cones.append(((x.b - x.n - 1) // (x.a - 2) == x.n, x.b > x.a * x.n))
                except (DomainError, InvalidInput):
                    pass
    assert planes == [(a, a, 1) for a in range(3, 15)]
    assert cones == [(True, True)] * 286


def test_embed_without_hypothesis_is_unproven():
    res = embed_extremal(6, 7, 0)
    assert not res.hypothesis_met
    assert res.model is None
    assert (res.r, res.d, res.genus) == (3, 13, 30)


def test_embed_ruling_swap_equivalence():
    assert embed_extremal(9, 4, 0) == embed_extremal(4, 9, 0)


def test_embed_classify_round_trip():
    for gamma in range(4, 9):
        for n in range(4):
            lam = max(gamma * n, gamma * (gamma + n - 2))  # hypothesis with room
            res = embed_extremal(gamma, lam, n)
            assert res.hypothesis_met
            twins = [m for m in classify_extremal(res.d, res.r)
                     if m.kind is ModelKind.TYPE_III and m.gamma == gamma]
            assert twins == [res.model]


def test_no_degenerate_models():
    assert tally(no_degenerate_models(WINDOWS)) == (254, [])


def test_section_and_plane_kinds_never_coexist():
    # at r=5 a section model needs d = 1 mod 4 while a plane model needs d even
    for d in range(11, 60):
        kinds = {m.kind for m in classify_extremal(d, 5)}
        assert not ({ModelKind.TYPE_II, ModelKind.PLANE_VERONESE} <= kinds)


def test_gonality_from_class():
    assert gonality_from_class(DivisorClass(3, 4, 12)) == 4
    assert gonality_from_class(DivisorClass(1, 5, 5)) == 4
    assert gonality_from_class(DivisorClass(0, 7, 2)) == 2
    assert gonality_from_class(DivisorClass(2, 3, 7)) == 3
    with pytest.raises(DomainError):
        gonality_from_class(DivisorClass(2, 0, 1))
    with pytest.raises(DomainError):
        gonality_from_class(DivisorClass(0, 1, 0))
    with pytest.raises(DomainError):
        gonality_from_class(DivisorClass(2, -1, 3))
