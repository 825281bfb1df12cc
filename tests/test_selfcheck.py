"""Mutation guard: every check group rejects a corrupted engine.

Each group is run on its default cases with one engine function it calls
replaced by a wrong one; the group must then report a failure.  A group
that checks nothing (or stops looking at the engine) fails here.  Then
``run_selfcheck`` must tally a failing group as the one that failed.
"""

import pytest

from extremalcurves import InvalidInput, SlopeVerdict, Status
from extremalcurves import selfcheck
from extremalcurves.selfcheck import GROUPS, tally

OPEN = SlopeVerdict(Status.UNDETERMINED, "corrupted", "a corrupted engine")


def _short_sweep(real):
    def sweep(n):
        led, rows = real(n)
        return led, rows[:-1]

    return sweep


# group -> (engine name the group calls, corruption of the real function)
CORRUPTIONS = {
    "bilinearity": ("intersect", lambda real: lambda x, y: real(x, y) + 1),
    "adjunction_parity": ("formal_genus", lambda real: lambda x: real(x) + 1),
    "genus_closed_form": ("adjunction_genus", lambda real: lambda x: real(x) + 1),
    "embedding": ("embed_extremal",
                  lambda real: lambda *a: real(*a)._replace(hypothesis_met=False)),
    "classified_classes": ("verify_extremal_class", lambda real: lambda h, l, s: True),
    "profile_round_trip": ("profile", lambda real: lambda d, r: real(d, r)._replace(pi=0)),
    "plane_sequences": ("plane_curve_gonality", lambda real: lambda k, r: real(k, r) + 1),
    "foursecant_sweep": ("verylast_sequence", _short_sweep),
    "band_verdicts": ("slope_verdict", lambda real: lambda model: OPEN),
    "boundary_verdicts": ("slope_verdict", lambda real: lambda model: OPEN),
    "no_degenerate_models": (
        "classify_extremal", lambda real: lambda d, r: [real(d, r)[0]._replace(m=1, eps=0)]),
}


def test_every_group_has_a_corruption():
    assert sorted(CORRUPTIONS) == sorted(GROUPS)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_rejects_corrupted_engine(name, monkeypatch):
    count, failures = tally(GROUPS[name]())
    assert count > 0 and failures == []
    engine, corrupt = CORRUPTIONS[name]
    monkeypatch.setattr(selfcheck, engine, corrupt(getattr(selfcheck, engine)))
    _, failures = tally(GROUPS[name]())
    assert failures


def _fake_groups(monkeypatch):
    monkeypatch.setattr(selfcheck, "GROUPS",
                        {"fake": lambda: iter([(True, "fine"), (False, "broke")])})


def _raising_embedding(monkeypatch):
    def broken(*args):
        raise InvalidInput("boom")

    monkeypatch.setattr(selfcheck, "embed_extremal", broken)


@pytest.mark.parametrize("patch, failing, failures", [
    (_fake_groups, "fake", ["broke"]),
    (_raising_embedding, "embedding", ["group embedding raised InvalidInput: boom"]),
], ids=["fake_groups", "raising_embedding"])
def test_run_selfcheck_tallies_each_group(monkeypatch, patch, failing, failures):
    patch(monkeypatch)
    count, messages, groups = selfcheck.run_selfcheck()
    assert messages == failures
    assert [name for name, _, _ in groups] == list(selfcheck.GROUPS)
    assert sum(checks for _, checks, _ in groups) == count
    assert sum(failed for *_, failed in groups) == len(messages)
    assert [name for name, _, failed in groups if failed] == [failing]
