"""Ledger construction, propagation, verdicts, and the worked families."""

import random
import re

import pytest

from extremalcurves import (
    ContradictionError,
    GonalityLedger,
    InvalidInput,
    ModelKind,
    Status,
    UnsupportedInput,
    apply_extremal_facts,
    baseline_ledger,
    classify_extremal,
    close,
    embed_extremal,
    known_family_verdict,
    plane_curve_gonality,
    plane_slope_verdict,
    slope_verdict,
    verylast_sequence,
    with_assumptions,
)
from extremalcurves.selfcheck import foursecant_sweep, tally
from extremalcurves.verdicts import FAMILIES, slope_run


def rows(led):
    return [(e.index, e.lo, e.hi, e.exact, e.provenance) for e in led.entries()]


def test_baseline_fourgonal_genus_twelve():
    led = baseline_ledger(4, 12)
    assert led.frozen and led.max_index == 14
    assert rows(led) == [
        (1, 4, 4, True, ("gonality", "gonal-ceiling")),
        (2, 5, 8, False, ("gonality", "gonal-ceiling")),
        (3, 6, 12, False, ("gonality", "gonal-ceiling")),
        (4, 7, 15, False, ("gonality", "canonical")),
        (5, 8, 16, False, ("gonality", "canonical")),
        (6, 9, 17, False, ("gonality", "canonical")),
        (7, 10, 18, False, ("gonality", "canonical")),
        (8, 11, 19, False, ("gonality", "canonical")),
        (9, 12, 20, False, ("gonality", "canonical")),
        (10, 13, 21, False, ("gonality", "canonical")),
        (11, 22, 22, True, ("canonical",)),
        (12, 24, 24, True, ("riemann-roch",)),
        (13, 25, 25, True, ("riemann-roch",)),
        (14, 26, 26, True, ("riemann-roch",)),
    ]
    assert led.exact_value(1) == 4
    assert led.exact_value(2) is None


def test_canonical_chain_beats_ceiling():
    # for g=9 the chain down from d_8 = 16 caps hi_3 at 11, under 3*gamma=12
    led = baseline_ledger(4, 9)
    e = led.entry(3)
    assert (e.lo, e.hi) == (6, 11)
    assert e.provenance == ("gonality", "canonical")


def test_baseline_hyperelliptic():
    led = baseline_ledger(2, 5)
    assert rows(led) == [
        (1, 2, 2, True, ("gonality", "gonal-ceiling")),
        (2, 3, 4, False, ("gonality", "gonal-ceiling")),
        (3, 4, 6, False, ("gonality", "gonal-ceiling")),
        (4, 8, 8, True, ("canonical", "gonal-ceiling")),
        (5, 10, 10, True, ("riemann-roch", "gonal-ceiling")),
        (6, 11, 11, True, ("riemann-roch",)),
        (7, 12, 12, True, ("riemann-roch",)),
    ]


def test_baseline_soundness_for_hyperelliptic():
    # true hyperelliptic values d_r = min(2r, r+g) must sit in every interval
    for g in range(3, 15):
        led = baseline_ledger(2, g)
        for e in led.entries():
            true = min(2 * e.index, e.index + g)
            assert e.lo <= true <= e.hi


def test_baseline_validation():
    with pytest.raises(InvalidInput):
        baseline_ledger(1, 12)
    with pytest.raises(InvalidInput):
        baseline_ledger(4, 2)


def test_ledger_rejects_gonality_above_brill_noether():
    for g in range(3, 30):
        top = (g + 3) // 2
        assert GonalityLedger(top, g).gamma == top
        with pytest.raises(InvalidInput, match="Brill-Noether maximum"):
            GonalityLedger(top + 1, g)


def test_facts_degree_3r_minus_1():
    model = [m for m in classify_extremal(14, 5) if m.gamma == 4][0]
    led = apply_extremal_facts(baseline_ledger(4, 15), model)
    assert led.exact_value(4) == 13 and led.entry(4).provenance == ("extremal-drop",)
    assert led.exact_value(5) == 14 and led.entry(5).provenance == ("extremal-degree",)
    e6 = led.entry(6)
    assert (e6.lo, e6.hi) == (15, 17)
    assert e6.provenance == ("extremal-degree", "gonal-residual")


def test_facts_degree_3r_minus_2():
    # degree 13 = 3r-2 at r=5: no drop or degree fact, only the projection
    model = [m for m in classify_extremal(13, 5) if m.gamma == 4][0]
    led = apply_extremal_facts(baseline_ledger(4, 12), model)
    assert led.exact_value(6) == 16
    assert led.entry(6).provenance == ("dual-projection",)
    assert led.entry(5).hi == 15  # chained back down from d_6
    assert led.entry(4).hi == 14
    assert led.exact_value(5) is None


def test_facts_high_degree():
    model = [m for m in classify_extremal(21, 6) if m.gamma == 4][0]
    led = apply_extremal_facts(baseline_ledger(4, 30), model)
    assert led.exact_value(5) == 20
    assert led.entry(5).provenance == ("extremal-drop", "gonal-ceiling")
    assert led.exact_value(6) == 21
    assert led.entry(7).hi == 24
    e8 = led.entry(8)
    assert e8.hi == 28  # hi_7 + hi_1 through subadditivity
    assert e8.provenance == ("extremal-degree", "gonal-ceiling+gonal-residual")


def test_facts_reject_mismatched_ledger():
    model = [m for m in classify_extremal(14, 5) if m.gamma == 4][0]
    with pytest.raises(InvalidInput):
        apply_extremal_facts(baseline_ledger(4, 12), model)
    with pytest.raises(InvalidInput):
        apply_extremal_facts(baseline_ledger(5, 15), model)


def test_frozen_ledger_is_immutable():
    led = baseline_ledger(4, 12)
    for frozen in (led, GonalityLedger(4, 12)):  # a bare ledger is frozen when made
        assert frozen.frozen
        with pytest.raises(RuntimeError, match="thaw"):
            frozen.propagate([2], [2])
    twin = close(4, 12, [(2, 6, 8, "probe")], led)
    assert twin is not led and twin.frozen and led.frozen
    assert led.entry(2).lo == 5 and twin.entry(2).lo == 6


def test_thaw_copies_every_list_and_freezes_in_place():
    base = baseline_ledger(4, 40)
    before = base.entries()
    twin = base.thaw()
    assert not twin.frozen and twin.entries() == before
    for side in ("_lo", "_hi", "_lo_tag", "_hi_tag"):
        assert getattr(twin, side) is not getattr(base, side)
    twin._lo[39] = twin._hi[39] = 80  # a write through the copy, as oracle_check makes
    assert base.entries() == before and twin.entry(39).lo == 119
    assert twin.freeze() is twin and twin.frozen
    refined = close(4, 40, [(2, 6, 8, "probe")], twin)
    assert refined.entry(2).lo == 6 and refined.entry(39).lo == 119 and twin.entry(2).lo == 5


def test_close_refuses_an_unfrozen_base():
    # a closure shares its base's lists, so a base its owner can still write
    # through would change a frozen ledger under its holder
    thawed = baseline_ledger(4, 12).thaw()
    with pytest.raises(InvalidInput, match="frozen base"):
        close(4, 12, [(3, 1, 11, "probe")], thawed)


def test_bare_ledger_is_closed():
    # the trivial floor d_r >= r and the gonal ceiling need no closure
    bare = GonalityLedger(4, 12)
    assert rows(bare) == [(r, r, 4 * r, False, ("trivial", "gonal-ceiling"))
                          for r in range(1, 15)]
    assert bare.entries() == close(4, 12, []).entries()


def test_entries_beyond_the_window():
    led = baseline_ledger(4, 12)
    e = led.entry(20)
    assert (e.lo, e.hi, e.exact) == (32, 32, True)
    assert e.provenance == ("riemann-roch",)
    with pytest.raises(InvalidInput):
        led.entry(0)


def test_assumption_crossing_names_both_tags():
    led = baseline_ledger(4, 12)
    with pytest.raises(ContradictionError) as info:
        with_assumptions(led, [(2, 9)])
    exc = info.value
    assert (exc.index, exc.lo, exc.hi) == (2, 9, 8)
    assert (exc.lo_tag, exc.hi_tag) == ("assume", "gonal-ceiling")
    assert str(exc) == "d_2: lower bound 9 [assume] exceeds upper bound 8 [gonal-ceiling]"


def test_assumption_below_lower_bound():
    led = baseline_ledger(4, 12)
    with pytest.raises(ContradictionError) as info:
        with_assumptions(led, [(11, 21)])
    exc = info.value
    assert (exc.lo, exc.hi) == (22, 21)
    assert exc.lo_tag == "canonical" and exc.hi_tag == "assume"


def test_assumptions_beyond_the_window():
    led = baseline_ledger(4, 12)
    # matching the known tail is a no-op
    assert with_assumptions(led, [(20, 32)]).entry(20).exact
    with pytest.raises(ContradictionError) as info:
        with_assumptions(led, [(20, 33)])
    assert (info.value.lo_tag, info.value.hi_tag) == ("assume", "riemann-roch")
    with pytest.raises(ContradictionError) as info:
        with_assumptions(led, [(20, 31)])
    assert (info.value.lo_tag, info.value.hi_tag) == ("riemann-roch", "assume")
    with pytest.raises(InvalidInput):
        with_assumptions(led, [(0, 4)])


def test_close_at_the_edges():
    with pytest.raises(InvalidInput):
        close(4, 12, [(0, 1, 4, "probe")])
    # past the window d_20 is the tail 20 + 12 = 32
    with pytest.raises(ContradictionError) as info:
        close(4, 12, [(20, 1, 31, "probe")])
    assert (info.value.lo_tag, info.value.hi_tag) == ("riemann-roch", "probe")
    with pytest.raises(ContradictionError) as info:
        close(4, 12, [(20, 33, 80, "probe")])
    assert (info.value.lo_tag, info.value.hi_tag) == ("probe", "riemann-roch")
    led = close(4, 12, [(20, 32, 32, "probe")])
    assert rows(led) == rows(GonalityLedger(4, 12))
    assert led.entry(20).provenance == ("riemann-roch",)
    with pytest.raises(InvalidInput, match="base ledger is for"):
        close(4, 13, [], led)


def test_helpers_leave_their_base_untouched():
    base = baseline_ledger(4, 12)
    before = base.entries()
    (model,) = [m for m in classify_extremal(13, 5) if m.kind is ModelKind.TYPE_III]
    assert (model.gamma, model.g) == (4, 12)
    assert apply_extremal_facts(base, model).exact_value(6) == 16
    assert with_assumptions(base, [(3, 6)]).exact_value(3) == 6
    with pytest.raises(ContradictionError):
        with_assumptions(base, [(3, 6), (2, 9)])
    with pytest.raises(InvalidInput):
        with_assumptions(base, [(3, 6), (0, 4)])
    assert base.entries() == before and base.frozen


def test_consistent_assumptions_refine():
    led = baseline_ledger(2, 9)
    rng = random.Random(1729)
    for _ in range(50):
        pairs = [(r, min(2 * r, r + 9)) for r in rng.sample(range(1, 12), 4)]
        refined = with_assumptions(led, pairs)
        for e in refined.entries():
            true = min(2 * e.index, e.index + 9)
            assert e.lo <= true <= e.hi


def test_slope_verdict_table():
    def verdict(d, r, gamma):
        model = [m for m in classify_extremal(d, r) if m.gamma == gamma][0]
        return slope_verdict(model)

    v = verdict(13, 5, 4)
    assert v.status is Status.VIOLATED and v.tag == "dual-projection"
    v = verdict(14, 5, 4)
    assert v.status is Status.VIOLATED and v.tag == "degree-3r-1"
    v = verdict(12, 4, 4)
    assert v.status is Status.HOLDS and v.tag == "band"
    v = verdict(10, 4, 4)
    assert v.status is Status.HOLDS and v.tag == "fourgonal-10-4"
    v = verdict(13, 5, 3)
    assert v.status is Status.HOLDS and v.tag == "low-gonality"
    v = verdict(7, 3, 4)  # 3r-2 at r=3 falls through the split
    assert v.status is Status.UNDETERMINED and v.tag == "open"
    v = verdict(14, 5, 6)  # plane septic model, r=5 ends a Noether block
    assert v.status is Status.VIOLATED and v.tag == "noether-block"
    v = verdict(21, 6, 4)
    assert v.status is Status.HOLDS and v.tag == "band"


def test_fourgonal_10_4_states_the_residual_bound():
    # K minus the gonal pencil is a g^{g-gamma+1}_{2g-2-gamma}: on the
    # genus-9 fourgonal model a g^5_12, so the reason's d_5 bound is 12
    model = [m for m in classify_extremal(10, 4) if m.gamma == 4][0]
    g, gamma = model.g, model.gamma
    assert (g, gamma) == (9, 4)
    stated = re.search(r"d_5<=(\d+)", slope_verdict(model).reason)
    assert stated is not None and int(stated[1]) == 2 * g - 2 - gamma


def test_slope_run_keeps_its_verdict_up_to_its_end():
    # scroll models of one kind, r and gamma at any degree: each keeps the
    # verdict of its run up to the run's end, and an endless run far past it
    for r in range(3, 13):
        base = classify_extremal(2 * r + 1, r)[-1]
        for gamma in range(2, 10):
            for d in range(2 * r + 1, 8 * r):
                verdict, end = slope_run(d, r, gamma, None)
                assert end is None or end > d
                for later in range(d, end or 10 * r):
                    model = base._replace(d=later, gamma=gamma)
                    assert slope_verdict(model) is verdict, (r, gamma, d)


def test_verdict_reasons_are_comma_free():
    for d, r, gamma in ((13, 5, 4), (14, 5, 4), (12, 4, 4), (10, 4, 4),
                        (13, 5, 3), (7, 3, 4), (14, 5, 6), (26, 6, 5)):
        model = [m for m in classify_extremal(d, r) if m.gamma == gamma][0]
        v = slope_verdict(model)
        assert "," not in v.reason and "," not in v.tag
    for k in range(5, 16):
        g = (k - 1) * (k - 2) // 2
        for r in range(1, g + 3):
            v = plane_slope_verdict(k, r)
            assert "," not in v.reason and "," not in v.tag, (k, r, v)
    for family in FAMILIES:
        v = known_family_verdict(family)
        assert "," not in v.reason and "," not in v.tag, family


def test_known_family_verdicts():
    v = known_family_verdict("general_fourgonal")
    assert v.status is Status.HOLDS and v.tag == "known-family"
    assert v.reason == "every slope inequality holds for general fourgonal curves"
    assert known_family_verdict("hyperelliptic").status is Status.HOLDS
    with pytest.raises(InvalidInput):
        known_family_verdict("plane")


def test_plane_curve_sequence():
    assert plane_curve_gonality(7, 1) == 6
    assert plane_curve_gonality(7, 2) == 7
    assert plane_curve_gonality(7, 5) == 14
    g = 15  # degree 7 plane curve
    seq = [plane_curve_gonality(7, r) for r in range(1, g + 3)]
    assert all(a < b for a, b in zip(seq, seq[1:]))
    assert seq[g - 2] == 2 * g - 2
    assert seq[g - 1] == 2 * g and seq[g] == 2 * g + 1
    with pytest.raises(UnsupportedInput):
        plane_curve_gonality(4, 1)
    with pytest.raises(InvalidInput):
        plane_curve_gonality(7, 0)


def test_plane_slope_verdicts():
    v = plane_slope_verdict(7, 3)
    assert v.status is Status.HOLDS and v.tag == "noether-step"
    v = plane_slope_verdict(7, 5)  # alpha=2 <= 3 ends a block
    assert v.status is Status.VIOLATED and v.tag == "noether-block"
    v = plane_slope_verdict(5, 5)  # alpha=2 > k-4=1, so r = 5 = g-1
    assert v.status is Status.HOLDS and v.tag == "canonical-tail"
    with pytest.raises(UnsupportedInput):
        plane_slope_verdict(3, 2)


def test_plane_tail_is_tagged_riemann_roch():
    # from r = g on the sequence is r + g, the ledger's riemann-roch fact
    for k in range(5, 16):
        g = (k - 1) * (k - 2) // 2
        for r in range(g, g + 3):
            v = plane_slope_verdict(k, r)
            assert (v.status, v.tag) == (Status.HOLDS, "riemann-roch"), (k, r)
            assert plane_curve_gonality(k, r) == r + g


def test_plane_slope_verdicts_match_the_sequence():
    verdicts = wrong = 0
    for k in range(5, 61):
        g = (k - 1) * (k - 2) // 2
        seq = [None] + [plane_curve_gonality(k, r) for r in range(1, g + 7)]
        for r in range(1, g + 6):
            holds = (r + 1) * seq[r] >= r * seq[r + 1]
            want = Status.HOLDS if holds else Status.VIOLATED
            verdicts += 1
            wrong += plane_slope_verdict(k, r).status is not want
    assert (verdicts, wrong) == (34496, 0)


def test_verylast_smallest_surface():
    led, sweep = verylast_sequence(3)
    assert led.frozen and (led.gamma, led.g) == (4, 15)
    assert [row.record() for row in sweep] == [
        {"a": 0, "r": 4, "degree": 12, "eps": 2},
    ]
    assert led.exact_value(3) == 11 and led.exact_value(4) == 12
    e5 = led.entry(5)
    assert (e5.lo, e5.hi) == (13, 15)
    assert e5.provenance == ("extremal-degree", "gonal-residual")


def test_verylast_three_embeddings():
    led, sweep = verylast_sequence(7)
    assert (led.gamma, led.g) == (4, 39)
    assert [(row.a, row.r, row.degree, row.eps) for row in sweep] == [
        (0, 8, 28, 6), (1, 10, 32, 4), (2, 12, 36, 2),
    ]
    assert [led.exact_value(r) for r in range(7, 13)] == [27, 28, 31, 32, 35, 36]
    assert led.entry(9).provenance == ("extremal-drop", "gonal-residual")
    e13 = led.entry(13)
    assert (e13.lo, e13.hi, e13.exact) == (37, 39, False)


@pytest.mark.parametrize("n", range(3, 41))
def test_unisecant_embedding_is_the_row_past_the_sweep(n):
    # embed_extremal's beta for 4*C0 + 4n*L is n+abar+1, one past the last
    # row: two ranks up, four degrees up, the remainder two down
    _, sweep = verylast_sequence(n)
    last = sweep[-1]
    res = embed_extremal(4, 4 * n, n)
    assert res.scroll.beta == n + last.a + 1
    assert (res.r, res.d, res.eps) == (last.r + 2, last.degree + 4, last.eps - 2)
    m = res.model
    assert (m.kind, m.gamma, m.g, m.r, m.d) == (ModelKind.TYPE_III, 4, 6 * n - 3, res.r, res.d)


def test_verylast_slope_window():
    assert tally(foursecant_sweep((3, 4, 5, 8, 11))) == (56, [])


def test_verylast_validation():
    with pytest.raises(UnsupportedInput):
        verylast_sequence(2)


def test_raw_ledger_matches_baseline():
    facts = [(r, 1, 4 * r, "gonal-ceiling") for r in range(1, 15)]
    facts += [(1, 4, 4, "gonality"), (11, 22, 22, "canonical")]
    facts += [(r, r + 12, r + 12, "riemann-roch") for r in range(12, 15)]
    assert rows(close(4, 12, facts)) == rows(baseline_ledger(4, 12))
