"""The ledger closure: termination, agreement with the full-rescan
reference, closure after every call, pinned output, and soundness
against every sequence the rules allow."""

import gc
import hashlib
import math
import random
import statistics
import subprocess
import sys
import tracemalloc

import pytest

from extremalcurves import (
    ContradictionError,
    ExtremalModel,
    GonalityLedger,
    InvalidInput,
    ModelKind,
    UnsupportedInput,
    apply_extremal_facts,
    baseline_ledger,
    classify_extremal,
    close,
    plane_curve_gonality,
    verylast_sequence,
    with_assumptions,
)
from extremalcurves import gonality
from child_env import child_env
from reference_closure import reference_propagate, stepwise_propagate


def test_closure_terminates_when_bounds_cross():
    # hi[5] = 3 < 5: the full-rescan loop ratchets hi down forever here;
    # the fact itself crosses the trivial floor lo[5] = 5
    code = (
        "from extremalcurves import ContradictionError, close\n"
        "try:\n"
        "    close(4, 10, [(5, 1, 3, 'x')])\n"
        "except ContradictionError as exc:\n"
        "    print(exc.index, exc.lo_tag, exc.hi_tag)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5 trivial x\n"


def _intervals(gamma, g, *batches):
    """The intervals after one ``close`` per batch of facts, each onto the
    last.  (Tags may differ: a fact that only equals a bound an earlier
    batch derived leaves that bound's tag.)"""
    led = None
    for facts in batches:
        led = close(gamma, g, facts, led)
    return [(e.lo, e.hi) for e in led.entries()]


def test_facts_split_across_closes_match_one_close():
    """Compares intervals only: a fact equal to a bound that an earlier close
    derived leaves that bound's tag, so tags depend on the batching."""
    for gamma in range(2, 9):
        for g in range(max(3, 2 * gamma - 3), 60):
            seeds = gonality._baseline_facts(gamma, g)
            whole = _intervals(gamma, g, seeds)
            for cut in range(len(seeds) + 1):
                assert _intervals(gamma, g, seeds[:cut], seeds[cut:]) == whole, (gamma, g, cut)


# -- differential tests against the reference closures ----------------------


def _crossing(exc):
    return exc.index, exc.lo, exc.hi, exc.lo_tag, exc.hi_tag


def _absolute(offsets):
    """The bounds a ledger keeps as offsets from their index, r + v."""
    return [r + v for r, v in enumerate(offsets)]


@pytest.fixture
def against_reference(monkeypatch):
    """Make every propagate call also run both references on copies of the
    arrays and require the same outcome: the arrays of each, or the
    stepwise closure's crossing exactly; count the outcomes."""
    closure = GonalityLedger.propagate
    tally = {"identical": 0, "contradicted": 0}

    def propagate(led, *logs):
        want = [_absolute(led._lo), _absolute(led._hi), list(led._lo_tag), list(led._hi_tag)]
        steps = [list(a) for a in want]
        try:
            reference_propagate(*want, led.max_index)
            expected = None
        except ContradictionError as exc:
            expected = exc
        try:
            stepwise_propagate(*steps, led.max_index, *logs)
            crossing = None
        except ContradictionError as exc:
            crossing = _crossing(exc)
        assert (crossing is None) == (expected is None), (crossing, expected)
        try:
            closure(led, *logs)
        except ContradictionError as exc:
            assert expected is not None, "only the new closure found a crossing"
            assert _crossing(exc) == crossing
            tally["contradicted"] += 1
            raise
        assert expected is None, f"the new closure missed {expected}"
        got = [_absolute(led._lo), _absolute(led._hi), led._lo_tag, led._hi_tag]
        assert got == want == steps
        tally["identical"] += 1
        return led

    monkeypatch.setattr(GonalityLedger, "propagate", propagate)
    return tally


def _assume_inside(rng, led):
    """One to three distinct indices, each pinned to a value in its interval."""
    picks = rng.sample(range(1, led.max_index + 1), rng.randint(1, 3))
    return [(r, rng.randint(led.entry(r).lo, led.entry(r).hi)) for r in picks]


def _closure_grid():
    """Seeded baselines with assumptions, larger bare baselines, the
    foursecant sweeps and assumptions on them, plane curves with every
    third true value asserted, and plane models folded onto plane
    baselines, then refined."""
    rng = random.Random(20220527)
    for gamma in range(2, 9):
        for g in range(max(3, 2 * gamma - 3), 70):  # gamma <= (g+3)//2
            try:
                base = baseline_ledger(gamma, g)
            except ContradictionError:
                continue
            for _ in range(3):
                try:
                    with_assumptions(base, _assume_inside(rng, base))
                except ContradictionError:
                    pass
    for gamma in range(3, 9):  # most of the log lies above t after the chain pass
        for g in range(70, 201, 10):
            baseline_ledger(gamma, g)
    for n in range(3, 41):  # closures from a base that is no baseline
        led, _ = verylast_sequence(n)
        for _ in range(3):
            try:
                with_assumptions(led, _assume_inside(rng, led))
            except ContradictionError:
                pass
    for k in range(5, 30):
        g = (k - 1) * (k - 2) // 2
        base = baseline_ledger(k - 1, g)
        truth = [(r, plane_curve_gonality(k, r)) for r in range(1, base.max_index + 1, 3)]
        with_assumptions(base, truth)
    for k in range(6, 30):  # r = 5 and d = 2k >= 2r+1
        model = ExtremalModel(ModelKind.PLANE_VERONESE, 2 * k, 5)
        folded = apply_extremal_facts(baseline_ledger(model.gamma, model.g), model)
        try:
            with_assumptions(folded, _assume_inside(rng, folded))
        except ContradictionError:
            pass


def test_closure_matches_full_rescan(against_reference):
    _closure_grid()
    print(f"closure vs reference: {against_reference}")
    assert against_reference["identical"] > 1200
    assert against_reference["contradicted"] > 800


def _refine_inside(rng, led):
    """One to four one-sided facts at distinct indices, each to a value
    inside the current interval, so no fact raises; every hi stays at or
    above its index."""
    facts = []
    for r in rng.sample(range(1, led.max_index + 1), rng.randint(1, 4)):
        e = led.entry(r)
        if rng.random() < 0.5:
            facts.append((r, 1, rng.randint(e.lo, e.hi), rng.choice("abc")))
        else:
            facts.append((r, rng.randint(e.lo, e.hi), r * led.gamma, rng.choice("xyz")))
    return facts


def test_random_refinements_match_full_rescan(against_reference):
    rng = random.Random(4)
    for g in range(3, 61):
        for _ in range(25):
            led = GonalityLedger(rng.randint(2, (g + 3) // 2), g)
            try:
                for _ in range(rng.randint(1, 8)):
                    led = close(led.gamma, led.g, _refine_inside(rng, led), led)
            except ContradictionError:
                pass
    print(f"random refinements vs reference: {against_reference}")
    assert against_reference["identical"] > 1500
    assert against_reference["contradicted"] > 700


# each case: facts closed on a bare (8, 20) ledger, and the entry at the
# first index named, or the crossing (index, lo, hi, lo_tag, hi_tag), it gives
MULTI_FACT = {
    "lower walk crosses a lowered hi mid-walk":
        ([(2, 12, 16, "a"), (6, 1, 14, "b")], (6, 16, 14, "a", "b")),
    "lower walk crosses at its first step":
        ([(2, 12, 16, "a"), (3, 1, 12, "b")], (3, 13, 12, "a", "b")),
    "lower walk hands over at the next raise":
        ([(2, 12, 16, "a"), (4, 13, 32, "b")], (4, 14, 32, False, ("a", "gonal-ceiling"))),
    "hand-over crosses at the next raise":
        ([(2, 12, 16, "a"), (4, 13, 13, "b")], (4, 14, 13, "a", "b")),
    "chain walk lowers hi onto lo":
        ([(5, 12, 40, "a"), (6, 1, 13, "b")], (5, 12, 12, True, ("a", "b"))),
    "chain walk hands over at the next fall":
        ([(6, 1, 40, "a"), (10, 1, 30, "b")], (6, 6, 26, False, ("trivial", "b"))),
    "duplicate indices":
        ([(3, 10, 24, "a"), (3, 11, 24, "b"), (3, 1, 20, "c"), (3, 1, 18, "d")],
         (3, 11, 18, False, ("b", "d"))),
}


@pytest.mark.parametrize("facts, want", MULTI_FACT.values(), ids=list(MULTI_FACT))
def test_multi_fact_walks_match_stepwise(against_reference, facts, want):
    # a chain walk has no crossing case: after the lower pass lo <= hi at
    # every index and lo is strictly increasing, so hi[i] - (i - r) >= lo[r]
    try:
        got = tuple(close(8, 20, facts).entry(want[0]))
    except ContradictionError as exc:
        got = _crossing(exc)
    assert got == want


# -- the closure is closed after every call, and scans no split it need not --


@pytest.fixture
def closure_guard(monkeypatch):
    """On entry to every propagate call, require the premise of the walks'
    bisections: lo - r and hi - r nondecreasing between logged indices, that
    is lo[r] < lo[r+1] unless lo[r] rose and hi[r] < hi[r+1] unless hi[r+1]
    fell.  After it, require lo and lo's tags unchanged if no lo rose, hi
    and hi's tags unchanged if no hi fell (the premise on which ``close``
    shares its base's lists), lo and hi strictly increasing, hi[u] - hi[u-1]
    <= hi[1] (the premise of the gonal-line lemma that bounds each scan
    from below) and, for g <= 70, hi[s+t] <= hi[s] + hi[t] by brute force.
    During the call, require that no index is scanned twice and none at a
    slope-one step hi[t] = hi[t-1] + 1, and that each scan's least split
    sum is at least the previous scan's plus the steps between them (the
    premise of the scan floor); count the split sums the scans evaluate.
    The ledger keeps its bounds as offsets from their index, and a split
    sum at t as the offset from t; each is read here as r + v (sums: t + v)."""
    closure = GonalityLedger.propagate
    split_sums = gonality._split_sums
    scanned = {}  # t -> that scan's least split sum, in scan order
    tally = {"closed": 0, "scans": 0, "sums": 0}

    def scan(hi, t, start):
        assert hi[t] + t != hi[t - 1] + (t - 1) + 1, f"scan of the slope-one step {t}"
        assert t not in scanned, f"index {t} scanned twice in one closure"
        offsets = list(split_sums(hi, t, start))
        sums = [t + v for v in offsets]
        if scanned:
            t0, floor = next(reversed(scanned.items()))
            assert min(sums) >= floor + t - t0, f"the scan at {t} sinks below the floor of {t0}"
        scanned[t] = min(sums)
        tally["sums"] += len(sums)
        return offsets

    def propagate(led, raised, moved):
        lo, hi, top = _absolute(led._lo), _absolute(led._hi), led.max_index
        rose, fell = set(raised), set(moved)
        assert all(lo[r] < lo[r + 1] for r in range(1, top) if r not in rose)
        assert all(hi[r] < hi[r + 1] for r in range(1, top) if r + 1 not in fell)
        # a side with no logged index stays as it was: close shares it with the base
        still = {side: list(getattr(led, side)) for side, log in
                 (("_lo", raised), ("_lo_tag", raised), ("_hi", moved), ("_hi_tag", moved))
                 if not log}
        scanned.clear()
        closure(led, raised, moved)
        assert all(getattr(led, side) == was for side, was in still.items()), sorted(still)
        lo, hi = _absolute(led._lo), _absolute(led._hi)
        assert all(lo[r] < lo[r + 1] and hi[r] < hi[r + 1] for r in range(1, top))
        assert all(hi[u] - hi[u - 1] <= hi[1] for u in range(2, top + 1))
        if led.g <= 70:
            assert all(hi[s + t] <= hi[s] + hi[t]
                       for s in range(1, top) for t in range(s, top + 1 - s))
        tally["closed"] += 1
        tally["scans"] += len(scanned)
        return led

    monkeypatch.setattr(gonality, "_split_sums", scan)
    monkeypatch.setattr(GonalityLedger, "propagate", propagate)
    return tally


def test_every_closure_is_closed(closure_guard):
    # 24 of the grid's 572 baseline calls repeat a held (gamma, g) and close
    # nothing; building each anew made 1,276 closures, 3,021 scans and
    # 107,291 sums
    _closure_grid()
    assert closure_guard == {"closed": 1252, "scans": 2997, "sums": 105655}


@pytest.mark.parametrize("gamma", range(3, 9))
def test_baseline_closure_scans_at_most_one_index(closure_guard, gamma):
    # the lowest index a seed lowers is g-1, and above it only the step into
    # the tail at g is not a slope-one step
    baseline_ledger(gamma, 600)
    assert closure_guard["scans"] <= 1


def test_foursecant_closure_scans_few_indices(closure_guard):
    # the first scan's floor rules out every later one; one scan per t
    # made 67 here
    verylast_sequence(100)
    assert closure_guard["scans"] == 1


@pytest.mark.parametrize("n, per_t_sums", [(30, 159), (100, 1321)])
def test_foursecant_closure_scans_from_the_gonal_line(closure_guard, n, per_t_sums):
    # a split beats s = 1 only with both sides below the line x*hi[1], so
    # the one scan starts at the sweep's n, and its floor rules out every
    # later t: one sum; one scan per t made per_t_sums here, and scans over
    # every split from s = 1 made 1,081 and 11,090
    verylast_sequence(n)
    assert closure_guard["sums"] == 1 < per_t_sums


def test_split_sums_do_not_grow_with_n(closure_guard):
    # the work ladder for scans: one scan of the split s = n at t = 2n,
    # whose floor rules out the rest; one scan per t made 167, 333, 667 and
    # 1,333 scans of 7,471, 28,721, 113,221 and 448,221 sums here
    counts = []
    for n in (250, 500, 1000, 2000):
        closure_guard.update(scans=0, sums=0)
        verylast_sequence(n)
        counts.append((closure_guard["scans"], closure_guard["sums"]))
    assert counts == [(1, 1)] * 4


@pytest.fixture
def sweep_work(monkeypatch):
    """Count the closure's bisections over the ledger's lo and hi (the z0
    search and every ``bisect_left``/``bisect_right`` on them, not those on
    the log of lowered indices) and the sweep's ``profile`` calls."""
    from extremalcurves import extremal

    tally = {"bisections": 0, "profiles": 0}
    closure = GonalityLedger.propagate
    bounds = []  # the lo and hi of the ledger being closed

    def propagate(led, *logs):
        bounds[:] = led._lo, led._hi
        return closure(led, *logs)

    def counted(name, module, func, over_bounds=False):
        def wrapper(a, *args, **kwargs):
            tally[name] += not over_bounds or any(a is b for b in bounds)
            return func(a, *args, **kwargs)
        monkeypatch.setattr(module, func.__name__, wrapper)

    monkeypatch.setattr(GonalityLedger, "propagate", propagate)
    counted("bisections", gonality, gonality._first_past)
    counted("bisections", gonality, gonality.bisect_left, over_bounds=True)
    counted("bisections", gonality, gonality.bisect_right, over_bounds=True)
    counted("profiles", extremal, extremal.profile)
    return tally


def test_bisections_and_profiles_do_not_grow_with_n(sweep_work):
    # the work ladder for the sweep's overheads: the closure bisects 6 times
    # at every n (one z0 search, two lower walks' ends by ``bisect_left``,
    # one chain walk's start and two run jumps by ``bisect_right``), and each
    # sweep row goes through ``profile`` once; a z0 bisection wherever t//2
    # grew made 129, 254, 504 and 1,004 bisections here, and profiling each
    # image twice made 2 calls per row
    tally = sweep_work
    counts = []
    for n in (250, 500, 1000, 2000):
        tally.update(bisections=0, profiles=0)
        _, rows = verylast_sequence(n)
        counts.append((tally["bisections"], tally["profiles"] - len(rows)))
    assert counts == [(6, 0)] * 4


def test_a_repeated_sweep_does_no_work(closure_guard, sweep_work):
    # the work ladder for the held sweeps: a repeated n makes no split sum,
    # no bisection and no ``profile`` call, where its first call made 1, 6
    # and one per row (the ladders above); building it again repeated them.
    # 512 is the largest held n
    counts = []
    for n in (64, 128, 256, 512):
        verylast_sequence(n)
        closure_guard.update(sums=0)
        sweep_work.update(bisections=0, profiles=0)
        verylast_sequence(n)
        counts.append((closure_guard["sums"], sweep_work["bisections"], sweep_work["profiles"]))
    assert counts == [(0, 0, 0)] * 4


def test_a_repeated_sweep_is_the_value_it_built():
    led, rows = verylast_sequence(30)
    again = verylast_sequence(30)
    assert again[0] is led and again[1] is rows
    assert led.frozen and isinstance(rows, tuple)


def _sweep_value(sweep):
    led, rows = sweep
    return led.entries(), rows


def test_failed_sweeps_are_not_held():
    for _ in range(3):
        with pytest.raises(UnsupportedInput, match="n >= 3"):
            verylast_sequence(2)
    verylast_sequence(7)
    with pytest.raises(TypeError):
        verylast_sequence(7.0)
    assert gonality._held.cache_info().currsize == 1


def test_a_repeated_baseline_does_no_work(closure_guard):
    # the work ladder for the held baselines: a repeated (gamma, g) closes
    # nothing, where its first call made one closure of 34, 67, 134, 267 and
    # 512 sums; building it again repeated them.  3,069 is the largest held g
    counts = []
    for g in (200, 400, 800, 1600, 3069):
        baseline_ledger(4, g)
        closure_guard.update(closed=0, sums=0)
        baseline_ledger(4, g)
        counts.append((closure_guard["closed"], closure_guard["sums"]))
    assert counts == [(0, 0)] * 5


def test_a_baseline_over_the_ceiling_is_built_anew():
    # a baseline of at most _HELD_INDICES indices (g + 3) is held; one index
    # more and it is never held
    g = gonality._HELD_INDICES - 3
    assert g == 3069
    held = baseline_ledger(4, g)
    assert baseline_ledger(4, g) is held and held.frozen
    first, again = baseline_ledger(4, g + 1), baseline_ledger(4, g + 1)
    assert again is not first
    assert again.entries() == first.entries()
    assert baseline_ledger(4, g) is held


def test_a_sweep_over_the_ceiling_is_built_anew():
    # a sweep of at most _HELD_INDICES indices (6n) is held; one n more and
    # it is never held
    n = gonality._HELD_INDICES // 6
    assert n == 512
    held = verylast_sequence(n)
    assert verylast_sequence(n) is held
    first, again = verylast_sequence(n + 1), verylast_sequence(n + 1)
    assert again[0] is not first[0] and again[1] is not first[1]
    assert _sweep_value(again) == _sweep_value(first)
    assert verylast_sequence(n) is held


def test_failed_baselines_are_not_held():
    for _ in range(3):
        with pytest.raises(InvalidInput, match="Brill-Noether maximum"):
            baseline_ledger(4, 4)
    baseline_ledger(4, 12)
    with pytest.raises(TypeError):
        baseline_ledger(4.0, 12)
    assert gonality._held.cache_info().currsize == 1


def _fill_the_memo(calls):
    # makes the calls, one more than the memo holds, so the last drops the
    # least recently used.  tracemalloc reads what the memo keeps after every
    # call; each reading must stay below its estimate of 128 bytes per index
    k = gonality._held.cache_info().maxsize
    assert (k, len(calls)) == (48, 49)
    verylast_sequence(3)  # the package's imports and the tag memo's first
    baseline_ledger(2, 3)  # entries out of the reading
    gonality._held.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        readings = []
        for i, (build, args, _) in enumerate(calls):
            build(*args)
            gc.collect()
            readings.append((tracemalloc.get_traced_memory()[0] - before,
                             sum(size for *_, size in calls[max(0, i + 1 - k):i + 1])))
    finally:
        tracemalloc.stop()
    assert gonality._held.cache_info().currsize == k
    assert all(held <= gonality._INDEX_BYTES * indices for held, indices in readings)
    top = gonality._HELD_INDICES
    assert max(held for held, _ in readings) <= k * top * gonality._INDEX_BYTES == 18 << 20


def test_held_baselines_stay_under_the_ceiling():
    # the largest held baselines, g = 3,069, one for each gamma
    top = gonality._HELD_INDICES
    _fill_the_memo([(baseline_ledger, (gamma, top - 3), top) for gamma in range(2, 51)])


def test_held_sweeps_stay_under_the_ceiling():
    # the largest held sweeps, from n = 512 down
    top = gonality._HELD_INDICES // 6
    _fill_the_memo([(verylast_sequence, (n,), 6 * n) for n in range(top, top - 49, -1)])


def test_a_mixed_cycle_within_the_memo_closes_nothing_again(closure_guard):
    # baselines and sweeps share one memo of 48: a round of 40 sweeps and 8
    # baselines is held in full, whatever its mix, so its repeat closes no
    # ledger
    def one_round():
        for n in range(3, 43):
            verylast_sequence(n)
        for g in range(50, 450, 50):
            baseline_ledger(4, g)

    one_round()
    assert closure_guard["closed"] == 48
    closure_guard.update(closed=0)
    one_round()
    assert closure_guard["closed"] == 0


def test_a_baseline_holds_few_bytes_per_index():
    # a walk writes one repeated offset, so most of lo and hi share a few
    # ints: tracemalloc reads about 43 bytes per index here, where one int
    # per bound read 96.  g = 100,000 is past the memo, so nothing else holds it
    g = 100_000
    baseline_ledger(4, 12)  # the tag memo's first entries out of the reading
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        led = baseline_ledger(4, g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert led.max_index + 1 == g + 3
    assert held <= 56 * (g + 3)


def test_a_held_baseline_outlives_what_is_built_on_it():
    # a refine, the plane fold and a contradiction each close onto it
    model = ExtremalModel(ModelKind.PLANE_VERONESE, 58, 5)
    gamma, g = model.gamma, model.g
    base = baseline_ledger(gamma, g)
    with_assumptions(base, [(r, plane_curve_gonality(29, r)) for r in (5, 100, 300)])
    apply_extremal_facts(base, model)
    with pytest.raises(ContradictionError):
        with_assumptions(base, [(10, 10 * gamma + 1)])
    assert baseline_ledger(gamma, g) is base
    assert base.entries() == gonality._baseline(gamma, g).entries()


def _outcome(gamma, g, facts, base):
    """``facts`` closed onto base: the entries (intervals and tags), or the crossing."""
    try:
        return close(gamma, g, facts, base).entries()
    except ContradictionError as exc:
        return _crossing(exc)


def _what_ifs(base):
    """Named fact lists onto base: true values; lo-only and hi-only facts,
    alone, together and with a crossing fact after them; a fact that
    crosses either side as it is applied; and two facts, each consistent
    alone, that cross only in ``propagate`` (None where no index has room)."""
    gamma, g, top = base.gamma, base.g, base.max_index
    entries = base.entries()
    true = [(e.index, e.lo, e.hi, "assume") for e in entries if e.exact]
    if gamma == 2:  # hyperelliptic: d_r = 2r below the canonical entry
        true += [(r, 2 * r, 2 * r, "hyperelliptic") for r in range(1, g - 1)]
    wide = [e for e in entries if e.hi - e.lo >= 2]
    lo_only = [(e.index, e.lo + 1, e.index * gamma, "lo-only") for e in wide[::3]]
    hi_only = [(e.index, 1, e.hi - 1, "hi-only") for e in wide[1::3]]
    mid = entries[top // 2]
    above = [(mid.index, mid.hi + 1, mid.hi + 1, "cross")]
    below = [(mid.index, 1, mid.lo - 1, "cross")]
    pair = None
    for r in range(top // 2, top):
        v = entries[r].lo  # lo[r+1]: d_r = d_{r+1} = v breaks strict increase
        if entries[r - 1].lo <= v <= entries[r - 1].hi:
            pair = [(r, v, v, "left"), (r + 1, v, v, "right")]
            break
    return {"true": true, "lo-only": lo_only, "hi-only": hi_only,
            "both": lo_only + hi_only, "lo-then-cross": lo_only + above,
            "hi-then-cross": hi_only + below, "crosses-above": above,
            "crosses-below": below, "propagate-pair": pair}


def test_what_ifs_on_a_held_base_match_a_fresh_base():
    # close shares the base's lists and copies a side only before its first
    # write, so each what-if must read as it does on a baseline built anew,
    # and the held base must never change
    kinds = {}
    for gamma in range(2, 9):
        for g in range(max(3, 2 * gamma - 3), 81):  # gamma <= (g+3)//2
            try:
                base = baseline_ledger(gamma, g)
            except ContradictionError:
                continue
            held = base.entries()
            what_ifs = _what_ifs(base)
            for kind, facts in what_ifs.items():
                if facts is None:
                    continue
                if kind == "propagate-pair":
                    if any(isinstance(_outcome(gamma, g, [f], base), tuple) for f in facts):
                        continue  # one fact crosses alone: not the case wanted
                fresh = gonality._baseline(gamma, g)
                got = _outcome(gamma, g, facts, base)
                assert got == _outcome(gamma, g, facts, fresh), (gamma, g, kind)
                assert base.entries() == held, (gamma, g, kind)
                kinds.setdefault(kind, set()).add(type(got).__name__)
                if kind in ("lo-only", "hi-only") and isinstance(got, list):
                    # a what-if onto a what-if shares and copies as well
                    onto = close(gamma, g, facts, base)
                    then = what_ifs["hi-only" if kind == "lo-only" else "lo-only"]
                    before = onto.entries()
                    assert (_outcome(gamma, g, then, onto)
                            == _outcome(gamma, g, then, close(gamma, g, facts, fresh)))
                    assert onto.entries() == before and base.entries() == held
    # every kind but the crossings succeeds somewhere; the crossings always fail
    crossings = {"lo-then-cross", "hi-then-cross", "crosses-above", "crosses-below",
                 "propagate-pair"}
    assert all(kinds[k] == {"tuple"} for k in crossings), kinds
    assert all("list" in kinds[k] for k in kinds.keys() - crossings), kinds


@pytest.mark.parametrize("gamma", [2, 4])
def test_a_what_if_that_tightens_nothing_copies_nothing(gamma):
    # the base's lists are shared, not copied: copying all four made 96.6 KB here
    base = baseline_ledger(gamma, 3000)
    facts = [(1, gamma), (2999, 5998)]
    with_assumptions(base, facts)
    tracemalloc.start()
    try:
        led = with_assumptions(base, facts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert led.entries() == base.entries()
    assert peak < 1024


@pytest.mark.parametrize("gamma", [2, 4])
@pytest.mark.parametrize("value", [1, 12000])  # below lo and above hi at 1500
def test_a_what_if_that_crosses_raises_before_it_copies(gamma, value):
    # copying one side would take 24 KB here; the error and its traceback about 1.5 KB
    base = baseline_ledger(gamma, 3000)
    with pytest.raises(ContradictionError):
        with_assumptions(base, [(1500, value)])
    tracemalloc.start()
    try:
        with pytest.raises(ContradictionError):
            with_assumptions(base, [(1500, value)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_tag_memo_stays_bounded():
    # every fact at N + 2i lowers hi there by i+1 under its own caller tag,
    # and the s = 1 split joins that tag with hi[1]'s at N + 2i + 1: one new
    # join per fact, K of them, while the memo keeps at most its bound.
    # Below 2N no split has two lowered sides, so every join is of two tags.
    k = 10_000
    n = 2 * k + 1
    facts = [(n + 2 * i, 1, 4 * (n + 2 * i) - (i + 1), f"caller-{i}") for i in range(k)]
    info = gonality._join_tags.cache_info()
    assert info.maxsize is not None
    led = close(4, 2 * n - 3, facts)
    assert led.entry(n + 1).provenance == ("trivial", "caller-0+gonal-ceiling")
    after = gonality._join_tags.cache_info()
    assert after.misses - info.misses > k > info.maxsize
    assert after.currsize <= info.maxsize


def test_plane_refine_scans_few_splits(closure_guard):
    # k = 58 (g = 1,596) with three seeded true values asserted: one scan
    # per t made 10 scans of 2,890 sums here
    base = baseline_ledger(57, 1596)
    rs = sorted(random.Random(58).sample(range(2, 1598), 3))
    closure_guard.update(scans=0, sums=0)
    with_assumptions(base, [(r, plane_curve_gonality(58, r)) for r in rs])
    assert (closure_guard["scans"], closure_guard["sums"]) == (1, 183)


@pytest.fixture
def tightenings(monkeypatch):
    """Count the closure's one-index tightenings, ``_raise_lo`` plus
    ``_lower_hi`` calls; a walk's slice writes are not counted."""
    tally = [0]
    for name in ("_raise_lo", "_lower_hi"):
        method = getattr(GonalityLedger, name)

        def counted(led, *args, method=method):
            tally[0] += 1
            return method(led, *args)

        monkeypatch.setattr(GonalityLedger, name, counted)
    return tally


def test_tightenings_do_not_grow_with_genus(tightenings):
    # the work ladder: walks over runs leave 9 one-index tightenings at
    # every g, the seeds' own; one index per step made 338, 671, 1,338 and
    # 2,671 here
    counts = []
    for g in (200, 400, 800, 1600):
        tightenings[0] = 0
        baseline_ledger(4, g)
        counts.append(tightenings[0])
    assert counts == [9, 9, 9, 9]


def test_plane_refine_tightens_few_indices(tightenings):
    # k = 58 (g = 1,596) with three true values asserted: one index per
    # step made 2,888 tightenings here, nearly all in the chain pass
    base = baseline_ledger(57, 1596)
    tightenings[0] = 0
    with_assumptions(base, [(r, plane_curve_gonality(58, r)) for r in (100, 700, 1300)])
    assert tightenings[0] == 110


def test_what_if_bisections_do_not_grow_with_genus(closure_guard, sweep_work):
    # the work ladder for what-if refines: two true values asserted on a
    # hyperelliptic baseline make 2 bisections (the two lower walks' ends)
    # and no scan at every g
    counts = []
    for g in (200, 400, 800, 1600):
        base = baseline_ledger(2, g)
        closure_guard.update(scans=0)
        sweep_work.update(bisections=0)
        with_assumptions(base, [(g // 4, g // 2), (g // 2, g)])
        counts.append((sweep_work["bisections"], closure_guard["scans"]))
    assert counts == [(2, 0)] * 4


def test_plane_fold_sums_grow_at_most_linearly(closure_guard):
    # the work ladder for the plane fold: its split sums grow with g at a
    # log-log slope of 1.07, fitted over k = 15 to 58 (g = 91 to 1,596)
    gs, sums = [], []
    for k in (15, 21, 29, 41, 58):
        model = ExtremalModel(ModelKind.PLANE_VERONESE, 2 * k, 5)
        base = baseline_ledger(model.gamma, model.g)
        closure_guard.update(sums=0)
        apply_extremal_facts(base, model)
        gs.append(model.g)
        sums.append(closure_guard["sums"])
    assert sums == [54, 142, 287, 598, 1188]
    fit = statistics.linear_regression([math.log(g) for g in gs], [math.log(s) for s in sums])
    assert fit.slope <= 1.1


# -- the closure's output is pinned -------------------------------------------


def _pinned_grid():
    """Every ledger and contradiction message of a fixed grid: baselines
    with in-interval assumptions, every extremal model folded onto its
    baseline, the foursecant sweeps with assumptions, and plane baselines
    with every third true value asserted."""
    rng = random.Random(20221019)

    def refine(base, sets):
        for _ in range(sets):
            try:
                yield with_assumptions(base, _assume_inside(rng, base))
            except ContradictionError as exc:
                yield exc

    for gamma in range(2, 9):
        for g in range(max(3, 2 * gamma - 3), 60):  # gamma <= (g+3)//2
            base = baseline_ledger(gamma, g)
            yield base
            yield from refine(base, 12)
    for r in range(3, 12):
        for d in range(2 * r + 1, 6 * r):
            for model in classify_extremal(d, r):
                try:
                    yield apply_extremal_facts(baseline_ledger(model.gamma, model.g), model)
                except ContradictionError as exc:
                    yield exc
    for n in range(3, 200):
        led, _ = verylast_sequence(n)
        yield led
        yield from refine(led, 2)
    for k in range(5, 40):
        base = baseline_ledger(k - 1, (k - 1) * (k - 2) // 2)
        truth = [(r, plane_curve_gonality(k, r)) for r in range(1, base.max_index + 1, 3)]
        yield with_assumptions(base, truth)


def test_closure_output_is_pinned():
    # every entry (bounds, exactness, tags) and every contradiction message;
    # a change to the closure's mechanics must leave this digest as it is
    digest = hashlib.sha256()
    counts = {"ledgers": 0, "contradictions": 0}
    for item in _pinned_grid():
        if isinstance(item, ContradictionError):
            counts["contradictions"] += 1
            digest.update(f"! {item}\n".encode())
        else:
            counts["ledgers"] += 1
            for e in item.entries():
                digest.update(f"{tuple(e)}\n".encode())
    assert counts == PINNED_COUNTS
    assert digest.hexdigest() == PINNED_SHA256


PINNED_COUNTS = {"ledgers": 3040, "contradictions": 2675}
PINNED_SHA256 = "cba5b944395a6417012d754d5c79d8fb6fd604fbbc131bae8a1f15b6cfa731b3"


# -- brute-force soundness oracle --------------------------------------------


def _allowed_sequences(gamma, g):
    """Every strictly increasing d_1..d_{g+2} with d_1 = gamma,
    d_{g-1} = 2g-2, d_r = r+g for r >= g, d_r <= r*gamma and
    d_{a+b} <= d_a + d_b."""
    top = g + 2
    pinned = {1: gamma, g - 1: 2 * g - 2, **{r: r + g for r in range(g, top + 1)}}
    d = [0] * (top + 1)
    found = []

    def extend(r):
        if r > top:
            found.append(tuple(d))
            return
        hi = min([r * gamma] + [d[a] + d[r - a] for a in range(1, r // 2 + 1)])
        for v in [pinned[r]] if r in pinned else range(d[r - 1] + 1, hi + 1):
            if d[r - 1] < v <= hi:
                d[r] = v
                extend(r + 1)

    extend(1)
    return found


def _contains(led, seqs):
    return all(led.entry(r).lo <= seq[r] <= led.entry(r).hi
               for seq in seqs for r in range(1, led.max_index + 1))


def test_ledger_holds_every_allowed_sequence():
    rng = random.Random(8)
    gaps = []
    contradicted = 0
    for gamma in range(2, 6):
        for g in range(max(3, 2 * gamma - 3), 9):  # gamma <= (g+3)//2
            seqs = _allowed_sequences(gamma, g)
            try:
                base = baseline_ledger(gamma, g)
            except ContradictionError:
                assert not seqs, (gamma, g)
                continue
            assert _contains(base, seqs), (gamma, g)
            if seqs:
                gaps.append(sum(
                    min(s[r] for s in seqs) - base.entry(r).lo
                    + base.entry(r).hi - max(s[r] for s in seqs)
                    for r in range(1, base.max_index + 1)))
            for _ in range(20):
                pairs = _assume_inside(rng, base)
                fitting = [s for s in seqs if all(s[r] == v for r, v in pairs)]
                try:
                    led = with_assumptions(base, pairs)
                except ContradictionError:
                    assert not fitting, (gamma, g, pairs)
                    contradicted += 1
                    continue
                assert _contains(led, fitting), (gamma, g, pairs)
    print(f"baseline endpoint gap per ledger: {gaps};"
          f" {contradicted} assumption sets contradicted")
    assert contradicted
