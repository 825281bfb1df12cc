"""Slope-inequality verdicts: the values and the rules that decide them.

A verdict is always three-valued: the r-th slope inequality
d_r / r >= d_{r+1} / (r+1) either provably holds, is provably violated,
or is left open.  Undetermined is a first-class answer, never an error.

``slope_verdict`` decides it for an extremal model from (d, r, gamma)
alone, ``plane_slope_verdict`` for a smooth plane curve from its
Noether split, and ``known_family_verdict`` for a named family.  None of
them needs the gonality ledger, so a scan of verdicts never loads it.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import isqrt

from .castelnuovo import plane_genus
from .errors import InvalidInput, UnsupportedInput


class Status(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    UNDETERMINED = "undetermined"

    def __str__(self) -> str:  # serialization token
        # _value_ is a plain attribute; the .value property costs about five
        # times as much, and a scan renders one token per record
        return self._value_


class SlopeVerdict(namedtuple("SlopeVerdict", "status tag reason")):
    """A status plus the fact it rests on.

    ``tag`` is a stable machine-readable label for the deciding fact;
    ``reason`` is one comma-free human-readable sentence.
    """

    __slots__ = ()

    def record(self) -> dict:
        return {"status": self.status.value, "tag": self.tag, "reason": self.reason}


# the verdicts slope_verdict returns outside the plane branch, one object each
_LOW_GONALITY = SlopeVerdict(
    Status.HOLDS,
    "low-gonality",
    "gonality at most 3: the full sequence is known and slope-monotone",
)
_FOURGONAL_10_4 = SlopeVerdict(
    Status.HOLDS,
    "fourgonal-10-4",
    "the genus-9 fourgonal space model has d_4=10 and d_5=13;"
    " no slope violation fits",
)
_DUAL_PROJECTION = SlopeVerdict(
    Status.VIOLATED,
    "dual-projection",
    "double projection pins d_{r+1} = 3r+1 while d_r <= 3r-2;"
    " the r-th slope fails",
)
_DEGREE_3R_1 = SlopeVerdict(
    Status.VIOLATED,
    "degree-3r-1",
    "degree 3r-1 extremal curves violate the r-th slope inequality",
)
_BAND = SlopeVerdict(
    Status.HOLDS,
    "band",
    "degree sits in the band r*(gamma-1) <= d <= gamma*(r-1)+1 where"
    " the residual pencil argument closes the inequality",
)
_OPEN = SlopeVerdict(
    Status.UNDETERMINED,
    "open",
    "outside every certified range; no verdict is known",
)


def slope_verdict(model: ExtremalModel) -> SlopeVerdict:
    """Three-valued verdict on the r-th slope inequality for an extremal model.

    Decision order (first match wins): low gonality, plane models, the
    fourgonal degree-(3r-2) split, degree 3r-1, the harmless band
    r*(gamma-1) <= d <= gamma*(r-1)+1, otherwise Undetermined.  Every
    verdict but the plane one is a shared constant.
    """
    r, d, gamma = model.r, model.d, model.gamma
    if gamma <= 3:
        return _LOW_GONALITY
    if model.k is not None:  # the plane model of degree k
        return plane_slope_verdict(model.k, r)
    if gamma == 4 and d == 3 * r - 2:
        if r == 4:
            return _FOURGONAL_10_4
        if r >= 5:
            return _DUAL_PROJECTION
    if d == 3 * r - 1:
        return _DEGREE_3R_1
    if r * (gamma - 1) <= d <= gamma * (r - 1) + 1:
        return _BAND
    return _OPEN


def known_family_verdict(family: str) -> SlopeVerdict:
    """Verdicts for curve families whose whole sequence behavior is known.

    Only reachable by naming the family explicitly; nothing infers these
    from (d, r, gamma).
    """
    families = ("hyperelliptic", "trigonal", "bielliptic", "general_fourgonal")
    if family not in families:
        raise InvalidInput(f"unknown curve family {family!r}; pick one of {families}")
    return SlopeVerdict(
        Status.HOLDS,
        "known-family",
        f"every slope inequality holds for {family.replace('_', ' ')} curves",
    )


# -- smooth plane curves ---------------------------------------------------


def _noether_split(r: int) -> tuple[int, int]:
    """The unique (alpha, beta) with r = alpha*(alpha+3)/2 - beta, 0 <= beta <= alpha.

    The blocks [alpha*(alpha+1)/2, alpha*(alpha+3)/2] tile the positive
    integers, so alpha is the largest value with alpha*(alpha+1)/2 <= r.
    """
    alpha = (isqrt(8 * r + 1) - 1) // 2
    beta = alpha * (alpha + 3) // 2 - r
    return alpha, beta


def plane_curve_gonality(k: int, r: int) -> int:
    """The r-th gonality of a smooth plane curve of degree k >= 5.

    Below the genus the sequence is alpha*k - beta on the Noether split
    of r; from r = g on it is the known tail r + g.
    """
    if k < 5:
        raise UnsupportedInput(f"plane-curve sequences need degree k >= 5, got {k}")
    if r < 1:
        raise InvalidInput(f"need r >= 1, got {r}")
    g = plane_genus(k)
    if r >= g:
        return r + g
    alpha, beta = _noether_split(r)
    return alpha * k - beta


def plane_slope_verdict(k: int, r: int) -> SlopeVerdict:
    """Slope verdict for a smooth plane curve of degree k at index r.

    Inside a Noether block (beta != 0) the step is one and the inequality
    holds; on a block boundary it fails when alpha <= k-4, and otherwise
    r >= g-1, where the steps are 2 then 1 and it holds (equality at g-1).
    """
    if k < 5:
        raise UnsupportedInput(f"plane-curve sequences need degree k >= 5, got {k}")
    if r < 1:
        raise InvalidInput(f"need r >= 1, got {r}")
    alpha, beta = _noether_split(r)
    if beta != 0:
        return SlopeVerdict(
            Status.HOLDS,
            "noether-step",
            f"index {r} sits inside a Noether block (beta={beta});"
            " the next step is one and the inequality holds",
        )
    if alpha <= k - 4:
        return SlopeVerdict(
            Status.VIOLATED,
            "noether-block",
            f"index {r} ends a Noether block (beta=0 and alpha={alpha} <= k-4);"
            " the next step jumps and the inequality fails",
        )
    return SlopeVerdict(
        Status.HOLDS,
        "canonical-tail",
        f"index {r} ends a Noether block with alpha={alpha} > k-4, so r >= g-1;"
        " from d_{g-1} = 2g-2 the steps are 2, then 1, and the inequality holds",
    )
