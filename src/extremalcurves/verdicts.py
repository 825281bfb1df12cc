"""Slope-inequality verdict values.

A verdict is always three-valued: the r-th slope inequality
d_r / r >= d_{r+1} / (r+1) either provably holds, is provably violated,
or is left open.  Undetermined is a first-class answer, never an error.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum


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
