"""Mutation guard: every check group rejects a corrupted engine.

Each group is run on its default cases with one engine function it calls
replaced by a wrong one; the group must then report a failure.  A group
that checks nothing (or stops looking at the engine) fails here.
"""

import pytest

from extremalcurves import SlopeVerdict, Status
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
