"""The ledger closure: termination, agreement with the full-rescan
reference, closure after every call, pinned output, and soundness
against every sequence the rules allow."""

import hashlib
import random
import subprocess
import sys

import pytest

from extremalcurves import (
    ContradictionError,
    ExtremalModel,
    GonalityLedger,
    ModelKind,
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
from reference_closure import reference_propagate


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
    for gamma in range(2, 9):
        for g in range(max(3, 2 * gamma - 3), 60):
            seeds = gonality._baseline_facts(gamma, g)
            whole = _intervals(gamma, g, seeds)
            for cut in range(len(seeds) + 1):
                assert _intervals(gamma, g, seeds[:cut], seeds[cut:]) == whole, (gamma, g, cut)


# -- differential test against the full-rescan reference --------------------


@pytest.fixture
def against_reference(monkeypatch):
    """Make every propagate call also run the reference on a copy of the
    arrays and require the same outcome; count the outcomes."""
    closure = GonalityLedger.propagate
    tally = {"identical": 0, "contradicted": 0}

    def propagate(led, *logs):
        want = [list(a) for a in (led._lo, led._hi, led._lo_tag, led._hi_tag)]
        try:
            reference_propagate(*want, led.max_index)
            expected = None
        except ContradictionError as exc:
            expected = exc
        try:
            closure(led, *logs)
        except ContradictionError:
            assert expected is not None, "only the new closure found a crossing"
            tally["contradicted"] += 1
            raise
        assert expected is None, f"the new closure missed {expected}"
        assert [led._lo, led._hi, led._lo_tag, led._hi_tag] == want
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


# -- the closure is closed after every call, and scans no split it need not --


@pytest.fixture
def closure_guard(monkeypatch):
    """After every propagate call, require lo and hi strictly increasing,
    hi[u] - hi[u-1] <= hi[1] (the premise of the gonal-line lemma that
    bounds each scan from below) and, for g <= 70, hi[s+t] <= hi[s] + hi[t]
    by brute force.  During the call, require that no index is scanned
    twice and none at a slope-one step hi[t] = hi[t-1] + 1; count the
    split sums the scans evaluate."""
    closure = GonalityLedger.propagate
    split_sums = gonality._split_sums
    scanned = set()
    tally = {"closed": 0, "scans": 0, "sums": 0}

    def scan(hi, t, start):
        assert hi[t] != hi[t - 1] + 1, f"scan of the slope-one step {t}"
        assert t not in scanned, f"index {t} scanned twice in one closure"
        scanned.add(t)
        sums = list(split_sums(hi, t, start))
        tally["sums"] += len(sums)
        return sums

    def propagate(led, *logs):
        scanned.clear()
        closure(led, *logs)
        lo, hi, top = led._lo, led._hi, led.max_index
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
    _closure_grid()
    assert closure_guard == {"closed": 1276, "scans": 4911, "sums": 152766}


@pytest.mark.parametrize("gamma", range(3, 9))
def test_baseline_closure_scans_at_most_one_index(closure_guard, gamma):
    # the lowest index a seed lowers is g-1, and above it only the step into
    # the tail at g is not a slope-one step
    baseline_ledger(gamma, 600)
    assert closure_guard["scans"] <= 1


def test_foursecant_closure_scans_few_indices(closure_guard):
    verylast_sequence(100)
    assert closure_guard["scans"] <= 102


@pytest.mark.parametrize("n, sums", [(30, 159), (100, 1321)])
def test_foursecant_closure_scans_from_the_gonal_line(closure_guard, n, sums):
    # a split beats s = 1 only with both sides below the line x*hi[1], so
    # the scans start at the sweep's n; scans over every split from s = 1
    # evaluated 1,081 and 11,090 sums here
    verylast_sequence(n)
    assert closure_guard["sums"] == sums


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
