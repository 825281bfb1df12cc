"""Degree/genus bookkeeping for curves in P^r.

Splitting d - 1 = m*(r-1) + eps with 0 <= eps <= r-2 gives the ratio m
and remainder eps that drive the maximal-genus bound

    pi(d, r) = m * ( (m-1)*(r-1)/2 + eps ).

m*(m-1) is always even, so the bound is computed exactly in integers.
A curve whose genus attains pi(d, r) is called extremal.  Strict mode
keeps to the regime d >= 2r+1 where the bound machinery is meaningful;
lenient mode accepts d >= r+1 and is used for raw ratio/remainder reads.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidInput


class CurveProfile(namedtuple("CurveProfile", "d r m eps pi")):
    """The (m, eps) split of (d, r) together with the genus bound pi."""

    __slots__ = ()


def max_genus(m: int, eps: int, r: int) -> int:
    """The bound pi(d, r) from the split d - 1 = m*(r-1) + eps."""
    return (m * (m - 1) // 2) * (r - 1) + m * eps


def plane_genus(k: int) -> int:
    """Genus (k-1)(k-2)/2 of a smooth plane curve of degree k, which is pi(k, 2)."""
    return (k - 1) * (k - 2) // 2


def profile(d: int, r: int, strict: bool = True) -> CurveProfile:
    """Ratio, remainder and maximal genus for degree d in P^r.

    Strict mode requires d >= 2r+1; lenient mode accepts d >= r+1.
    """
    if r < 3:
        raise InvalidInput(f"need r >= 3, got r={r}")
    if strict and d < 2 * r + 1:
        raise InvalidInput(f"extremal curves need d >= 2r+1 = {2 * r + 1}, got d={d}")
    if d < r + 1:
        raise InvalidInput(f"need d >= {r + 1} in lenient mode, got d={d}")
    m, eps = divmod(d - 1, r - 1)
    return CurveProfile(d, r, m, eps, max_genus(m, eps, r))


def brill_noether(d: int, r: int, g: int) -> int:
    """The Brill-Noether number rho = g - (r+1)*(g - d + r)."""
    if r < 1:
        raise InvalidInput(f"need r >= 1, got r={r}")
    if g < 0:
        raise InvalidInput(f"need g >= 0, got g={g}")
    return g - (r + 1) * (g - d + r)

