"""Degree profiles, the maximal-genus bound, and the Brill-Noether number."""

import pytest

from extremalcurves import InvalidInput, brill_noether, profile
from extremalcurves.selfcheck import profile_round_trip, tally


@pytest.mark.parametrize(
    "d,r,m,eps,pi",
    [
        (10, 4, 3, 0, 9),
        (13, 5, 3, 0, 12),
        (16, 6, 3, 0, 15),
        (14, 5, 3, 1, 15),
        (12, 4, 3, 2, 15),
        (21, 6, 4, 0, 30),
        (9, 4, 2, 2, 7),
        (7, 3, 3, 0, 6),
    ],
)
def test_profile_values(d, r, m, eps, pi):
    p = profile(d, r)
    assert (p.d, p.r, p.m, p.eps, p.pi) == (d, r, m, eps, pi)


def test_strict_threshold():
    profile(9, 4)
    with pytest.raises(InvalidInput):
        profile(8, 4)
    with pytest.raises(InvalidInput):
        profile(10, 2)


def test_lenient_threshold():
    p = profile(8, 4, strict=False)
    assert (p.m, p.eps, p.pi) == (2, 1, 5)
    p = profile(5, 4, strict=False)
    assert (p.m, p.eps, p.pi) == (1, 1, 1)
    with pytest.raises(InvalidInput):
        profile(4, 4, strict=False)


def test_profile_round_trip_grid():
    windows = [(d, r) for r in range(3, 31) for d in range(2 * r + 1, 8 * r)]
    assert tally(profile_round_trip(windows)) == (5488, [])


def test_genus_bound_monotone_in_degree():
    for r in range(3, 12):
        values = [profile(d, r).pi for d in range(2 * r + 1, 6 * r)]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_genus_bound_on_divisible_line():
    # at eps = 0 the bound is the pure binomial term
    for r in range(3, 12):
        for m in range(3, 8):
            d = m * (r - 1) + 1
            p = profile(d, r)
            assert p.eps == 0
            assert p.pi == m * (m - 1) // 2 * (r - 1)


def test_brill_noether_values():
    assert brill_noether(10, 4, 9) == -6
    assert brill_noether(9, 3, 12) == -12
    assert brill_noether(12, 4, 8) == 8
    assert brill_noether(3 * 7 - 2, 7, 3 * 7 - 3) == -(7 - 1) * (7 - 2)


def test_brill_noether_validation():
    with pytest.raises(InvalidInput):
        brill_noether(10, 0, 9)
    with pytest.raises(InvalidInput):
        brill_noether(10, 4, -1)
