"""Gonality-sequence intervals and the foursecant family.

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

A ledger is its seed facts closed once.  Seeds are facts (index, lo, hi,
tag): the classical values, the entries an extremal model pins, or
what-if assumptions.  ``tighten`` applies facts in order to a ledger
under construction; ``_close`` applies them to a copy of a frozen base,
closes the copy with ``propagate`` and freezes it.  Frozen ledgers are
immutable and safe to share, and every helper below returns a new one
and leaves its base untouched.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from .errors import ContradictionError, InvalidInput, UnsupportedInput
# the verdicts live in ``verdicts``; callers that name them through this
# module (perfbench times ``gonality.slope_verdict``) still find them here
from .verdicts import (
    known_family_verdict,
    plane_curve_gonality,
    plane_slope_verdict,
    slope_verdict,
)


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

    def tighten(self, facts) -> "GonalityLedger":
        """Apply each fact (r, lo, hi, tag) in order: raise lo[r] to lo, then
        lower hi[r] to hi, each checked against the other side.  A one-sided
        fact passes lo = 1 or hi = r*gamma.  Past the window d_r is the tail
        r + g, and a fact there is checked against it under ``riemann-roch``."""
        self._check_mutable()
        for r, lo, hi, tag in facts:
            if r < 1:
                raise InvalidInput(f"need index >= 1, got {r}")
            if r > self.max_index:
                known = r + self.g
                if lo > known:
                    raise ContradictionError(r, lo, known, tag, "riemann-roch")
                if hi < known:
                    raise ContradictionError(r, known, hi, "riemann-roch", tag)
                continue
            if lo > self._lo[r]:
                self._raise_lo(r, lo, tag)
            if hi < self._hi[r]:
                self._lower_hi(r, hi, tag)
        return self

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
        """Close the intervals under strict increase and subadditivity in
        the three passes the module docstring proves sufficient."""
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


def _close(base: GonalityLedger, facts) -> GonalityLedger:
    """A new frozen ledger: the facts applied to a copy of base, closed."""
    return base.thaw().tighten(facts).propagate().freeze()


def baseline_ledger(gamma: int, g: int) -> GonalityLedger:
    """The frozen ledger seeded with the classical facts alone."""
    seeds = [(1, gamma, gamma, "gonality"), (g - 1, 2 * g - 2, 2 * g - 2, "canonical")]
    seeds += [(r, r + g, r + g, "riemann-roch") for r in range(g, g + 3)]
    return GonalityLedger(gamma, g).tighten(seeds).propagate().freeze()


def _extremal_facts(model: ExtremalModel) -> list[tuple[int, int, int, str]]:
    """The facts an extremal model pins.

    Degree d >= 3r-1 pins d_{r-1} = d-1, and for gonality >= 4 also
    d_r = d plus, away from plane models, hi_{r+1} <= d + gamma - 1.
    Fourgonal models of degree exactly 3r-2 with r >= 5 pin
    d_{r+1} = 3r+1.
    """
    r, d, gamma = model.r, model.d, model.gamma
    facts = []
    if d >= 3 * r - 1:
        facts.append((r - 1, d - 1, d - 1, "extremal-drop"))
        if gamma >= 4:
            facts.append((r, d, d, "extremal-degree"))
            if model.k is None:  # away from plane models
                facts.append((r + 1, 1, d + gamma - 1, "gonal-residual"))
    if gamma == 4 and d == 3 * r - 2 and r >= 5:
        facts.append((r + 1, 3 * r + 1, 3 * r + 1, "dual-projection"))
    return facts


def apply_extremal_facts(ledger: GonalityLedger, model: ExtremalModel) -> GonalityLedger:
    """A new frozen ledger with the model's exact facts folded in."""
    if ledger.gamma != model.gamma or ledger.g != model.g:
        raise InvalidInput(
            f"ledger is for (gamma={ledger.gamma}, g={ledger.g}) but the model"
            f" has (gamma={model.gamma}, g={model.g})"
        )
    return _close(ledger, _extremal_facts(model))


def with_assumptions(ledger: GonalityLedger,
                     assumptions: list[tuple[int, int]]) -> GonalityLedger:
    """A new frozen ledger with hypothetical exact values asserted.

    Useful for what-if checks; crossing a derived bound raises a
    ``ContradictionError`` naming the tag ``assume`` and the bound's tag.
    """
    return _close(ledger, [(r, value, value, "assume") for r, value in assumptions])


# -- the foursecant family on a Hirzebruch surface -------------------------


class VerylastRow(namedtuple("VerylastRow", "a r degree eps")):
    """One unisecant re-embedding in the sweep: |C0 + (n+a)*L| puts the
    curve in P^r with r = n+2a+1, degree 4(n+a) and remainder n-2a-1."""

    __slots__ = ()

    def record(self) -> dict:
        return {"a": self.a, "r": self.r, "degree": self.degree, "eps": self.eps}


def verylast_sequence(n: int) -> tuple[GonalityLedger, list[VerylastRow]]:
    """Ledger and sweep report for the class 4*C0 + 4n*L on the surface n >= 3.

    The curve has genus 6n-3 and gonality 4.  Each a in 0..floor((n-3)/2)
    re-embeds it by |C0 + (n+a)*L|, as ``embed_extremal`` does; the image's
    profile gives the type-III model of its degree and rank, whose gamma,
    genus and scroll class must be the lattice's.  Folding those models'
    exact facts into one ledger pins d_{n+2a} = 4(n+a)-1 and
    d_{n+2a+1} = 4(n+a) across the sweep and bounds the first entry after
    it by 4(n+abar)+3.
    """
    from .extremal import ExtremalModel, ModelKind, _unisecant_image
    from .lattice import DivisorClass, adjunction_genus, class_in_HL, gonality_from_class

    if n < 3:
        raise UnsupportedInput(f"the foursecant sweep needs n >= 3, got {n}")
    x = DivisorClass(n, 4, 4 * n)
    g = adjunction_genus(x)
    gamma = gonality_from_class(x)
    if (g, gamma) != (6 * n - 3, 4):
        raise ArithmeticError(f"foursecant invariants broke for {x}: g={g} gamma={gamma}")
    base = baseline_ledger(gamma, g)  # before the sweep: an n too large fails here
    rows, facts = [], []
    for a in range((n - 3) // 2 + 1):
        scroll, prof = _unisecant_image(x, n + a)
        model = ExtremalModel(ModelKind.TYPE_III, prof.d, prof.r)
        want = (gamma, g, class_in_HL(x, scroll))
        if (model.gamma, model.g, model.scroll_class) != want:
            raise ArithmeticError(
                f"re-embedding a={a} is not extremal: the model is {model}, but"
                f" the lattice gives (gamma, g, scroll_class)={want}"
            )
        rows.append(VerylastRow(a=a, r=model.r, degree=model.d, eps=model.eps))
        facts += _extremal_facts(model)
    return _close(base, facts), rows
