"""Gonality-sequence intervals, slope verdicts, and the two worked families.

For a curve of gonality gamma and genus g, the ledger keeps one integer
interval [lo, hi] per index r, certain to contain the r-th gonality d_r,
with a provenance tag on each side.  Baseline seeds:

    d_1 = gamma,   d_{g-1} = 2g-2,   d_r = r+g for r >= g,   d_r <= r*gamma.

A new ledger starts at the gonal ceiling hi[r] = r*gamma.  Seeds and
extremal-curve facts sharpen individual entries, and two rules close the
system to a fixed point:

    strict increase   lo[r+1] >= lo[r] + 1,   hi[r] <= hi[r+1] - 1
    subadditivity     hi[r+s] <= hi[r] + hi[s]      (r+s <= g+2)

No rule derives an upper bound from a lower one, so the lower fixed point
is one ascending pass.  The upper one is one descending chain pass, which
leaves hi strictly increasing, then one ascending subadditivity pass.
That pass keeps hi strictly increasing and closes each t for good: with
t-1 closed and hi strictly increasing below t, every split has

    hi[s] + hi[t-s] >= hi[s] + hi[t-1-s] + 1 >= hi[t-1] + 1

(for s = t-1 because hi[1] >= lo[1] >= 1), so a tightening at t keeps
hi[t] above hi[t-1], and a slope-one step hi[t] = hi[t-1] + 1 cannot be
beaten and is skipped without a scan.  A second round would tighten
nothing.

Every tightening of hi[r] is appended to a change log and checked
against lo[r] at once, and every tightening of lo[r] is checked against
hi[r].  The ceiling is additive and strictly increasing, so it is
already closed, and so is every ledger a closure finishes (which clears
the log).  A split hi[s] + hi[t-s] can therefore beat hi[t] only if one
of its sides is in the log.  Both sides are at least 1, so both lie
below t, and a logged index at or above t is never a side.  The pass
keeps the logged indices below t in ascending order, counting those it
lowers itself: a t with none is skipped, a t with more than about t/4 of
them scans every split, and any other t checks just the splits with a
logged side.  Candidates are tried in ascending s with a strict ``<``,
so the bounds and their tags are those of a full rescan.  Upper bounds
only fall, and a crossing stops the closure, so every hi[r] stays at or
above lo[r].  A crossing raises a ``ContradictionError`` naming the
provenance tags on both sides.

Ledgers are single-owner and mutable while built, then frozen; frozen
ledgers are immutable and safe to share.  The derived-fact helpers below
(``apply_extremal_facts``, ``with_assumptions``, ``verylast_sequence``)
all return new frozen ledgers.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt
from operator import add

from .castelnuovo import plane_genus, profile
from .errors import ContradictionError, InvalidInput, UnsupportedInput
from .verdicts import SlopeVerdict, Status


class GonalityEntry(namedtuple("GonalityEntry", "index lo hi exact provenance")):
    """One closed interval lo <= d_index <= hi with its provenance tags
    (a tuple of strings)."""

    __slots__ = ()


class GonalityLedger:
    """Interval ledger for the gonality sequence of a (gamma, g) curve.

    Needs g >= 3 and 2 <= gamma <= (g+3)//2, the Brill-Noether maximum.
    Indices 1..g+2 are materialized; entries past the end are the known
    tail d_r = r + g."""

    __slots__ = (
        "gamma", "g", "max_index", "_lo", "_hi", "_lo_tag", "_hi_tag", "_moved", "_frozen"
    )

    def __init__(self, gamma: int, g: int):
        if gamma < 2:
            raise InvalidInput(f"need gamma >= 2, got {gamma}")
        if g < 3:
            raise InvalidInput(f"need g >= 3, got {g}")
        if gamma > (g + 3) // 2:
            raise InvalidInput(
                f"no curve of genus {g} has gonality {gamma}:"
                f" the Brill-Noether maximum is {(g + 3) // 2}"
            )
        self.gamma = gamma
        self.g = g
        self.max_index = g + 2
        size = self.max_index + 1  # index 0 unused
        self._lo = [1] * size
        self._hi = [r * gamma for r in range(size)]
        self._lo_tag = ["trivial"] * size
        self._hi_tag = ["gonal-ceiling"] * size
        self._moved: list[int] = []  # indices whose hi fell since the last closure
        self._frozen = False

    # -- construction -------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "GonalityLedger":
        self._frozen = True
        return self

    def thaw(self) -> "GonalityLedger":
        """A mutable copy; the receiver is untouched."""
        twin = GonalityLedger.__new__(GonalityLedger)
        twin.gamma = self.gamma
        twin.g = self.g
        twin.max_index = self.max_index
        twin._lo = list(self._lo)
        twin._hi = list(self._hi)
        twin._lo_tag = list(self._lo_tag)
        twin._hi_tag = list(self._hi_tag)
        twin._moved = list(self._moved)
        twin._frozen = False
        return twin

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError("ledger is frozen; thaw() a copy to refine it")

    def _check_index(self, r: int) -> None:
        if not 1 <= r <= self.max_index:
            raise InvalidInput(
                f"index {r} outside the tracked range 1..{self.max_index}"
            )

    def set_lo(self, r: int, value: int, tag: str) -> None:
        self._check_mutable()
        self._check_index(r)
        if value > self._lo[r]:
            self._raise_lo(r, value, tag)

    def set_hi(self, r: int, value: int, tag: str) -> None:
        self._check_mutable()
        self._check_index(r)
        if value < self._hi[r]:
            self._lower_hi(r, value, tag)

    def set_exact(self, r: int, value: int, tag: str) -> None:
        self.set_lo(r, value, tag)
        self.set_hi(r, value, tag)

    def _raise_lo(self, r: int, value: int, tag: str) -> None:
        """Tighten lo[r] to value, checking it against hi[r]."""
        self._lo[r] = value
        self._lo_tag[r] = tag
        if value > self._hi[r]:
            raise ContradictionError(r, value, self._hi[r], tag, self._hi_tag[r])

    def _lower_hi(self, r: int, value: int, tag: str) -> None:
        """Tighten hi[r] to value, logging r and checking it against lo[r]."""
        self._hi[r] = value
        self._hi_tag[r] = tag
        self._moved.append(r)
        if value < self._lo[r]:
            raise ContradictionError(r, self._lo[r], value, self._lo_tag[r], tag)

    def propagate(self) -> "GonalityLedger":
        """Close the intervals under strict increase and subadditivity:
        one ascending lo pass, one descending chain pass (hi becomes
        strictly increasing) and one ascending subadditivity pass.  With
        t-1 closed, every split has hi[s] + hi[t-s] >= hi[t-1] + 1, so no
        second round is needed and slope-one steps are skipped unscanned.
        Both sides of a split of t lie below t, so only the logged indices
        below t count: with none, t is skipped; with more than about t/4,
        every split is scanned; else only the splits with a logged side."""
        self._check_mutable()
        lo, hi = self._lo, self._hi
        lo_tag, hi_tag = self._lo_tag, self._hi_tag
        top = self.max_index
        for r in range(1, top):  # lower bounds: one ascending pass suffices
            v = lo[r] + 1
            if v > lo[r + 1]:
                self._raise_lo(r + 1, v, lo_tag[r])
        for r in range(top - 1, 0, -1):  # hi[r] <= hi[r+1] - 1
            v = hi[r + 1] - 1
            if v < hi[r]:
                self._lower_hi(r, v, hi_tag[r + 1])
        logged = set(self._moved)
        below = []  # the logged indices below t, ascending
        for t in range(2, top + 1):  # hi[t] <= hi[s] + hi[t-s]
            if t - 1 in logged:
                below.append(t - 1)
            if not below or hi[t] == hi[t - 1] + 1:
                continue  # no logged side, or a slope-one step no split can beat
            best = hi[t]
            split = 0
            if 4 * len(below) > t:  # many logged: scan every split
                sums = list(_split_sums(hi, t))
                low = min(sums)
                if low < best:
                    best = low
                    split = sums.index(low) + 1
            else:  # only a split with a logged side can beat hi[t]
                for s in sorted({i if 2 * i <= t else t - i for i in below}):
                    v = hi[s] + hi[t - s]
                    if v < best:
                        best = v
                        split = s
            if split:
                self._lower_hi(t, best, _join_tags(hi_tag[split], hi_tag[t - split]))
                logged.add(t)
        self._moved.clear()
        return self

    # -- queries -------------------------------------------------------

    def entry(self, r: int) -> GonalityEntry:
        if r < 1:
            raise InvalidInput(f"need index >= 1, got {r}")
        if r > self.max_index:
            # beyond the materialized window the sequence is the known tail
            return GonalityEntry(r, r + self.g, r + self.g, True, ("riemann-roch",))
        lo, hi = self._lo[r], self._hi[r]
        tags = (self._lo_tag[r],)
        if self._hi_tag[r] != self._lo_tag[r]:
            tags = (self._lo_tag[r], self._hi_tag[r])
        return GonalityEntry(r, lo, hi, lo == hi, tags)

    def entries(self) -> list[GonalityEntry]:
        return [self.entry(r) for r in range(1, self.max_index + 1)]

    def exact_value(self, r: int) -> int | None:
        e = self.entry(r)
        return e.lo if e.exact else None


def _split_sums(hi: list[int], t: int):
    """hi[s] + hi[t-s] for s = 1..t//2, in that order."""
    return map(add, hi[1 : t // 2 + 1], hi[t - 1 : (t - 1) // 2 : -1])


def _join_tags(t1: str, t2: str) -> str:
    if t1 == t2:
        return t1
    parts = sorted(set(t1.split("+")) | set(t2.split("+")))
    return "+".join(parts)


def baseline_ledger(gamma: int, g: int) -> GonalityLedger:
    """The frozen ledger seeded with the classical facts alone."""
    led = GonalityLedger(gamma, g)
    led.set_exact(1, gamma, "gonality")
    led.set_exact(g - 1, 2 * g - 2, "canonical")
    for r in range(g, led.max_index + 1):
        led.set_exact(r, r + g, "riemann-roch")
    return led.propagate().freeze()


def _seed_extremal_facts(led: GonalityLedger, model: ExtremalModel) -> None:
    """Seed (without propagating) the exact entries an extremal model pins.

    Degree d >= 3r-1 pins d_{r-1} = d-1, and for gonality >= 4 also
    d_r = d plus, away from plane models, hi_{r+1} <= d + gamma - 1.
    Fourgonal models of degree exactly 3r-2 with r >= 5 pin
    d_{r+1} = 3r+1.
    """
    r, d, gamma = model.r, model.d, model.gamma
    if d >= 3 * r - 1:
        led.set_exact(r - 1, d - 1, "extremal-drop")
        if gamma >= 4:
            led.set_exact(r, d, "extremal-degree")
            if model.k is None:  # away from plane models
                led.set_hi(r + 1, d + gamma - 1, "gonal-residual")
    if gamma == 4 and d == 3 * r - 2 and r >= 5:
        led.set_exact(r + 1, 3 * r + 1, "dual-projection")


def apply_extremal_facts(ledger: GonalityLedger, model: ExtremalModel) -> GonalityLedger:
    """A new frozen ledger with the model's exact facts folded in."""
    if ledger.gamma != model.gamma or ledger.g != model.g:
        raise InvalidInput(
            f"ledger is for (gamma={ledger.gamma}, g={ledger.g}) but the model"
            f" has (gamma={model.gamma}, g={model.g})"
        )
    led = ledger.thaw()
    _seed_extremal_facts(led, model)
    return led.propagate().freeze()


def with_assumptions(ledger: GonalityLedger,
                     assumptions: list[tuple[int, int]]) -> GonalityLedger:
    """A new frozen ledger with hypothetical exact values asserted.

    Useful for what-if checks; crossing a derived bound raises a
    ``ContradictionError`` naming the tag ``assume`` and the bound's tag.
    """
    led = ledger.thaw()
    for r, value in assumptions:
        if r < 1:
            raise InvalidInput(f"need index >= 1, got {r}")
        if r > led.max_index:
            known = r + led.g
            if value != known:  # the tail is already exact out here
                if value > known:
                    raise ContradictionError(r, value, known, "assume", "riemann-roch")
                raise ContradictionError(r, known, value, "riemann-roch", "assume")
            continue
        led.set_exact(r, value, "assume")
    return led.propagate().freeze()


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


# -- the foursecant family on a Hirzebruch surface -------------------------


class VerylastRow(namedtuple("VerylastRow", "a r degree eps")):
    """One unisecant re-embedding in the sweep: |C0 + (n+a)*L| puts the
    curve in P^r with r = n+2a+1, degree 4(n+a) and remainder n-2a-1."""

    __slots__ = ()

    def record(self) -> dict:
        return {"a": self.a, "r": self.r, "degree": self.degree, "eps": self.eps}


def verylast_sequence(n: int) -> tuple[GonalityLedger, list[VerylastRow]]:
    """Ledger and sweep report for the class 4*C0 + 4n*L on the surface n >= 3.

    The curve has genus 6n-3 and gonality 4.  Each a in
    0..floor((n-3)/2) re-embeds it as an extremal curve of degree 4(n+a)
    in P^{n+2a+1}; folding those models' exact facts into one ledger
    pins d_{n+2a} = 4(n+a)-1 and d_{n+2a+1} = 4(n+a) across the sweep
    and bounds the first entry after it by 4(n+abar)+3.
    """
    from .extremal import ExtremalModel, ModelKind, gonality_from_class
    from .lattice import DivisorClass, adjunction_genus

    if n < 3:
        raise UnsupportedInput(f"the foursecant sweep needs n >= 3, got {n}")
    x = DivisorClass(n, 4, 4 * n)
    g = adjunction_genus(x)
    gamma = gonality_from_class(x)
    if (g, gamma) != (6 * n - 3, 4):
        raise ArithmeticError(f"foursecant invariants broke for {x}: g={g} gamma={gamma}")
    led = baseline_ledger(gamma, g).thaw()
    rows = []
    for a in range((n - 3) // 2 + 1):
        r_a = n + 2 * a + 1
        delta_a = 4 * (n + a)
        prof = profile(delta_a, r_a)
        if (prof.m, prof.eps, prof.pi) != (3, n - 2 * a - 1, g):
            raise ArithmeticError(
                f"re-embedding a={a} is not extremal: m={prof.m} eps={prof.eps}"
                f" pi={prof.pi} g={g}"
            )
        model = ExtremalModel(ModelKind.TYPE_III, delta_a, r_a, gamma=gamma, g=g,
                              scroll_class=(4, -4 * a))
        rows.append(VerylastRow(a=a, r=r_a, degree=delta_a, eps=prof.eps))
        _seed_extremal_facts(led, model)
    led.propagate().freeze()
    return led, rows
