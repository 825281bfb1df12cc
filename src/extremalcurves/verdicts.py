"""Slope-inequality verdicts: the values and the rules that decide them.

A verdict is always three-valued: the r-th slope inequality
d_r / r >= d_{r+1} / (r+1) either provably holds, is provably violated,
or is left open.  Undetermined is a first-class answer, never an error.

``slope_run`` decides it for an extremal model from (d, r, gamma) alone
per run of degrees (``slope_verdict`` at one degree), ``plane_slope_verdict``
for a smooth plane curve from its Noether split, and
``known_family_verdict`` for a named family.  None of them needs the
gonality ledger, so a scan of verdicts never loads it.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import isqrt

from .castelnuovo import plane_genus
from .errors import InvalidInput, UnsupportedInput, need_int


class Status(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    UNDETERMINED = "undetermined"

    def __str__(self) -> str:  # serialization token
        return self._value_  # a plain attribute, unlike the .value property


class SlopeVerdict(namedtuple("SlopeVerdict", "status tag reason")):
    """A status plus the fact it rests on.

    ``tag`` is a stable machine-readable label for the deciding fact;
    ``reason`` is one comma-free human-readable sentence.
    """

    __slots__ = ()

    def record(self) -> dict:
        return {"status": str(self.status), "tag": self.tag, "reason": self.reason}


# the verdicts slope_run returns outside the plane branch, one object each
_LOW_GONALITY = SlopeVerdict(
    Status.HOLDS, "low-gonality",
    "gonality at most 3: the full sequence is known and slope-monotone")
_FOURGONAL_10_4 = SlopeVerdict(
    Status.HOLDS, "fourgonal-10-4",
    "the genus-9 fourgonal space model has d_4=10 and d_5<=12 by K minus the gonal"
    " pencil; no slope violation fits")
_DUAL_PROJECTION = SlopeVerdict(
    Status.VIOLATED, "dual-projection",
    "double projection pins d_{r+1} = 3r+1 while d_r <= 3r-2; the r-th slope fails")
_DEGREE_3R_1 = SlopeVerdict(
    Status.VIOLATED, "degree-3r-1",
    "degree 3r-1 extremal curves violate the r-th slope inequality")
_BAND = SlopeVerdict(
    Status.HOLDS, "band",
    "degree sits in the band r*(gamma-1) <= d <= gamma*(r-1)+1 where"
    " the residual pencil argument closes the inequality")
_OPEN = SlopeVerdict(
    Status.UNDETERMINED, "open", "outside every certified range; no verdict is known")


def slope_verdict(model: ExtremalModel) -> SlopeVerdict:
    """Three-valued verdict on the r-th slope inequality for an extremal model."""
    return slope_run(model)[0]


def slope_run(model: ExtremalModel) -> tuple[SlopeVerdict, int | None]:
    """The slope verdict of ``model`` and the degree where its run ends
    (None: no end): the models of its kind, r and gamma from ``model.d``
    up to there have it.  Decision list, first match wins: low gonality,
    plane models (a run of one degree), the band r*(gamma-1) <= d <=
    gamma*(r-1)+1, the fourgonal degree-(3r-2) split, degree 3r-1, else
    Undetermined.  The band starts at 3r or above for gamma >= 4, so a run
    ends where d reaches 3r-2, 3r-1 or the band, or leaves one of them."""
    d, r, gamma = model.d, model.r, model.gamma
    if gamma <= 3:
        return _LOW_GONALITY, None
    if model.k is not None:  # the plane model of degree k
        return plane_slope_verdict(model.k, r), d + 1
    band, top = r * (gamma - 1), gamma * (r - 1) + 1
    if band <= d <= top:
        return _BAND, top + 1
    if d == 3 * r - 2 and gamma == 4 and r >= 4:
        return (_FOURGONAL_10_4 if r == 4 else _DUAL_PROJECTION), d + 1
    if d == 3 * r - 1:
        return _DEGREE_3R_1, d + 1
    # open up to the next degree where a rule above starts: 3r-2, 3r-1, the band
    return _OPEN, (3 * r - 2 if d < 3 * r - 2 else d + 1 if d < 3 * r
                   else band if d < band else None)


# the families whose whole sequence behavior is known, ``slope --family``'s choices
FAMILIES = ("hyperelliptic", "trigonal", "bielliptic", "general_fourgonal")


def known_family_verdict(family: str) -> SlopeVerdict:
    """Verdicts for curve families whose whole sequence behavior is known.

    Only reachable by naming the family explicitly; nothing infers these
    from (d, r, gamma).
    """
    if family not in FAMILIES:
        raise InvalidInput(f"unknown curve family {family!r}; pick one of {FAMILIES}")
    return SlopeVerdict(
        Status.HOLDS,
        "known-family",
        f"every slope inequality holds for {family.replace('_', ' ')} curves",
    )


# -- smooth plane curves ---------------------------------------------------


def _noether_split(k: int, r: int) -> tuple[int, int]:
    """The unique (alpha, beta) with r = alpha*(alpha+3)/2 - beta, 0 <= beta <= alpha.

    The blocks [alpha*(alpha+1)/2, alpha*(alpha+3)/2] tile the positive
    integers, so alpha is the largest value with alpha*(alpha+1)/2 <= r.
    Refuses an argument that is not an int first, then a plane degree
    k < 5, then r < 1.
    """
    need_int(k=k, r=r)
    if k < 5:
        raise UnsupportedInput(f"plane-curve sequences need degree k >= 5, got {k}")
    if r < 1:
        raise InvalidInput(f"need r >= 1, got {r}")
    alpha = (isqrt(8 * r + 1) - 1) // 2
    beta = alpha * (alpha + 3) // 2 - r
    return alpha, beta


def plane_curve_gonality(k: int, r: int) -> int:
    """The r-th gonality of a smooth plane curve of degree k >= 5.

    Below the genus the sequence is alpha*k - beta on the Noether split
    of r; from r = g on it is the known tail r + g.
    """
    alpha, beta = _noether_split(k, r)
    g = plane_genus(k)
    if r >= g:
        return r + g
    return alpha * k - beta


def plane_slope_verdict(k: int, r: int) -> SlopeVerdict:
    """Slope verdict for a smooth plane curve of degree k at index r.

    From r = g on, in the Riemann-Roch tail r + g, every step is one and it
    holds.  Inside a Noether block (beta != 0) the step is one and it holds;
    on a block boundary it fails when alpha <= k-4, and otherwise r = g-1,
    where the steps are 2 then 1 and it holds with equality.
    """
    alpha, beta = _noether_split(k, r)
    if r >= (g := plane_genus(k)):
        return SlopeVerdict(Status.HOLDS, "riemann-roch", f"index {r} >= g={g} lies in"
                            " the Riemann-Roch tail d_r = r+g where every step is one")
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
        f"index {r} = g-1 ends a Noether block with alpha={alpha} > k-4"
        " and from d_{g-1} = 2g-2 the steps are 2 then 1 so the inequality holds",
    )
