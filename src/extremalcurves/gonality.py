"""Gonality-sequence intervals and the foursecant family.

For a curve of gonality gamma and genus g, the ledger keeps one integer
interval [lo, hi] per index r, certain to contain the r-th gonality d_r,
with a provenance tag on each side.  Baseline seeds:

    d_1 = gamma,   d_{g-1} = 2g-2,   d_r = r+g for r >= g,   d_r <= r*gamma.

A new ledger starts at the trivial floor lo[r] = r and the gonal ceiling
hi[r] = r*gamma.  Seeds and extremal-curve facts sharpen individual
entries, and two rules close the system to a fixed point:

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

The closure costs what changed.  ``close`` applies the facts to a
closed base, checks each new bound against the other side at once, and
logs every index whose lo it raises and every index whose hi it lowers.
A new ledger is a closed base: lo = r is strictly increasing, and the
ceiling is additive and strictly increasing.  ``propagate`` closes from
those two logs, which live only in that one ``close`` call, so every
ledger outside it is closed.  Above a closed base a strict-increase
pair (r, r+1) can fail only where lo[r] rose or hi[r+1] fell.  So the
lower pass walks up from each raised index in ascending order, and the
chain pass down from each lowered index in descending order, and each
walk stops at the first pair that already holds: the base held every
pair beyond it, and nothing beyond it has moved.  The walks make the
same tightenings as full passes, in the same order, so a crossing names
the same index and tags.

A split hi[s] + hi[t-s] can beat hi[t] only if one of its sides fell:
a split of two unmoved sides sums to at least the closed base's hi[t],
and hi[t] has only fallen since.  Both sides are at least 1, so both
lie below t.  Let m be the lowest index whose hi a fact lowered.  Below
m only the chain pass lowers hi, in one unbroken run down from m, and
it leaves each index r it lowers at hi[r+1] - 1.  So every t from just
above the lowest index it lowers up to m is a slope-one step, and every
t below has only unmoved sides.  The subadditivity pass therefore
starts at m + 1, and a closure with no such fact ends after the lower
pass.  Every t the pass reaches that is not a slope-one step gets one
scan, over the splits that can win (below).

The gonal-line lemma bounds that scan from below.  Write

    Delta(u) = hi[u] - hi[u-1],   D(x) = x*hi[1] - hi[x],

the drop of hi below the line through hi[1].  When the pass reaches t,
hi is closed below t, so subadditivity at (1, u-1) gives
Delta(u) <= hi[1] for u < t: D(1) = 0 and D never decreases on 1..t-1.
For 1 <= s <= t/2,

    hi[s] + hi[t-s] = t*hi[1] - D(s) - D(t-s),
    hi[1] + hi[t-1] = t*hi[1] - D(t-1),

and D(t-s) <= D(t-1), so the split s sums to less than the split 1 only
if D(s) > 0, that is only if s >= z0, the first x with hi[x] < x*hi[1].
The pass tries s = 1 first and then the splits in [z0, t/2] in ascending
s, each with a strict ``<``.  A split it skips sums to at least the
s = 1 sum, so the first split to attain the least sum below hi[t] is
never one it skips: the pass finds the split a scan over every split
finds, and with it the bound and its tag.  D is monotone, so z0 is
found by bisection, once per pass; in the foursecant sweep z0 = n.
Upper bounds only fall, and a crossing stops the closure, so every
hi[r] stays at or above lo[r].  A crossing raises a
``ContradictionError`` naming the provenance tags on both sides.

A ledger is its seed facts closed once.  Seeds are facts (index, lo, hi,
tag): the classical values, the entries an extremal model pins, or
what-if assumptions.  ``close`` is the one builder: it applies facts
in order to a new ledger or to a copy of a frozen base, closes the
result with ``propagate`` and freezes it.  ``baseline_ledger`` and
``verylast_sequence`` close the classical seeds (plus the sweep's facts)
on a new ledger; ``apply_extremal_facts`` and ``with_assumptions`` close
their facts onto a base.  Frozen ledgers are immutable and safe to
share, and every helper below returns a new one and leaves its base
untouched.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import chain
from operator import add

from .errors import ContradictionError, InvalidInput, UnsupportedInput
# the verdicts live in ``verdicts``; perfbench times this name through
# this module, as ``gonality.slope_verdict``
from .verdicts import slope_verdict


class GonalityEntry(namedtuple("GonalityEntry", "index lo hi exact provenance")):
    """One closed interval lo <= d_index <= hi with its provenance tags
    (a tuple of strings)."""

    __slots__ = ()


class GonalityLedger:
    """Interval ledger for the gonality sequence of a (gamma, g) curve.

    Needs g >= 3 and 2 <= gamma <= (g+3)//2, the Brill-Noether maximum.
    Indices 1..g+2 are materialized; entries past the end are the known
    tail d_r = r + g."""

    __slots__ = ("gamma", "g", "max_index", "_lo", "_hi", "_lo_tag", "_hi_tag", "_frozen")

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
        self._lo = list(range(size))  # d_r >= r: closed, as is the ceiling
        self._hi = list(range(0, size * gamma, gamma))
        self._lo_tag = ["trivial"] * size
        self._hi_tag = ["gonal-ceiling"] * size
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
        twin._frozen = False
        return twin

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError("ledger is frozen; thaw() a copy to refine it")

    def _raise_lo(self, r: int, value: int, tag: str) -> None:
        """Tighten lo[r] to value, checking it against hi[r]."""
        self._lo[r] = value
        self._lo_tag[r] = tag
        if value > self._hi[r]:
            raise ContradictionError(r, value, self._hi[r], tag, self._hi_tag[r])

    def _lower_hi(self, r: int, value: int, tag: str) -> None:
        """Tighten hi[r] to value, checking it against lo[r]."""
        self._hi[r] = value
        self._hi_tag[r] = tag
        if value < self._lo[r]:
            raise ContradictionError(r, self._lo[r], value, self._lo_tag[r], tag)

    def propagate(self, raised: list[int], moved: list[int]) -> "GonalityLedger":
        """Close the intervals under strict increase and subadditivity, given
        the indices whose lo rose (raised) and whose hi fell (moved) since
        the ledger was closed, as the module docstring proves sufficient."""
        self._check_mutable()
        lo, hi = self._lo, self._hi
        lo_tag, hi_tag = self._lo_tag, self._hi_tag
        top = self.max_index
        for i in sorted(raised):  # lo[r+1] >= lo[r] + 1, up from each raise
            for r in range(i, top):
                v = lo[r] + 1
                if v <= lo[r + 1]:
                    break
                self._raise_lo(r + 1, v, lo_tag[r])
        if not moved:
            return self
        for i in sorted(moved, reverse=True):  # hi[r] <= hi[r+1] - 1, down
            for r in range(i - 1, 0, -1):
                v = hi[r + 1] - 1
                if v >= hi[r]:
                    break
                self._lower_hi(r, v, hi_tag[r + 1])
        h1 = hi[1]
        z = 1  # the first x with hi[x] < x*hi[1] once found, else a lower bound
        for t in range(min(moved) + 1, top + 1):  # hi[t] <= hi[s] + hi[t-s]
            if hi[t] == hi[t - 1] + 1:
                continue  # a slope-one step no split can beat
            best = hi[t]
            split = 0
            if h1 + hi[t - 1] < best:  # the split s = 1 goes first
                best = h1 + hi[t - 1]
                split = 1
            half = t // 2
            if z <= half and hi[z] >= z * h1:  # z0 not found yet
                z = _below_gonal_line(hi, z, half)
            if z <= half:  # only a split s >= z0 can beat s = 1
                sums = list(_split_sums(hi, t, z))
                low = min(sums)
                if low < best:
                    best = low
                    split = sums.index(low) + z
            if split:
                self._lower_hi(t, best, _join_tags(hi_tag[split], hi_tag[t - split]))
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


def _split_sums(hi: list[int], t: int, start: int):
    """hi[s] + hi[t-s] for s = start..t//2, in that order."""
    return map(add, hi[start : t // 2 + 1], hi[t - start : (t - 1) // 2 : -1])


def _below_gonal_line(hi: list[int], start: int, stop: int) -> int:
    """The first x in start..stop with hi[x] < x*hi[1], else stop + 1.  Where
    hi is closed, that condition is monotone in x, so bisection finds it.
    (Out of ``propagate`` because a lambda there would make its hot locals
    closure cells.)"""
    h1 = hi[1]
    return bisect_left(range(start, stop + 1), True, key=lambda x: x * h1 > hi[x]) + start


def _join_tags(t1: str, t2: str) -> str:
    if t1 == t2:
        return t1
    parts = sorted(set(t1.split("+")) | set(t2.split("+")))
    return "+".join(parts)


def close(gamma: int, g: int, facts, base: GonalityLedger | None = None) -> GonalityLedger:
    """A new frozen ledger: a new (gamma, g) ledger, or a copy of base, with
    the facts applied in order and closed.  ``facts`` is read only once that
    ledger is made.

    Each fact (r, lo, hi, tag) raises lo[r] to lo, then lowers hi[r] to hi,
    each checked against the other side; a one-sided fact passes lo = 1 or
    hi = r*gamma.  Past the window d_r is the tail r + g, and a fact there
    is checked against it under ``riemann-roch``."""
    if base is not None and (base.gamma, base.g) != (gamma, g):
        raise InvalidInput(f"the base ledger is for (gamma, g) = ({base.gamma}, {base.g}),"
                           f" not ({gamma}, {g})")
    led = GonalityLedger(gamma, g) if base is None else base.thaw()
    raised, moved = [], []  # the indices whose lo rose and whose hi fell
    for r, lo, hi, tag in facts:
        if r < 1:
            raise InvalidInput(f"need index >= 1, got {r}")
        if r > led.max_index:
            known = r + g
            if lo > known:
                raise ContradictionError(r, lo, known, tag, "riemann-roch")
            if hi < known:
                raise ContradictionError(r, known, hi, "riemann-roch", tag)
            continue
        if lo > led._lo[r]:
            raised.append(r)
            led._raise_lo(r, lo, tag)
        if hi < led._hi[r]:
            moved.append(r)
            led._lower_hi(r, hi, tag)
    return led.propagate(raised, moved).freeze()


def _baseline_facts(gamma: int, g: int) -> list[tuple[int, int, int, str]]:
    """The classical seeds: the gonality, the canonical entry and the
    Riemann-Roch tail."""
    seeds = [(1, gamma, gamma, "gonality"), (g - 1, 2 * g - 2, 2 * g - 2, "canonical")]
    seeds += [(r, r + g, r + g, "riemann-roch") for r in range(g, g + 3)]
    return seeds


def baseline_ledger(gamma: int, g: int) -> GonalityLedger:
    """The frozen ledger seeded with the classical facts alone."""
    return close(gamma, g, _baseline_facts(gamma, g))


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
    """A new frozen ledger with the model's exact facts folded in; the
    ledger must be for the model's (gamma, g)."""
    return close(model.gamma, model.g, _extremal_facts(model), ledger)


def with_assumptions(ledger: GonalityLedger,
                     assumptions: list[tuple[int, int]]) -> GonalityLedger:
    """A new frozen ledger with hypothetical exact values asserted.

    Useful for what-if checks; crossing a derived bound raises a
    ``ContradictionError`` naming the tag ``assume`` and the bound's tag.
    """
    facts = [(r, value, value, "assume") for r, value in assumptions]
    return close(ledger.gamma, ledger.g, facts, ledger)


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
    from .extremal import ExtremalModel, ModelKind, _unisecant_images
    from .lattice import DivisorClass, adjunction_genus, class_in_HL, gonality_from_class

    if n < 3:
        raise UnsupportedInput(f"the foursecant sweep needs n >= 3, got {n}")
    x = DivisorClass(n, 4, 4 * n)
    g = adjunction_genus(x)
    gamma = gonality_from_class(x)
    if (g, gamma) != (6 * n - 3, 4):
        raise ArithmeticError(f"foursecant invariants broke for {x}: g={g} gamma={gamma}")
    rows = []

    def sweep_facts():
        abar = (n - 3) // 2
        for a, (scroll, prof) in enumerate(_unisecant_images(x, range(n, n + abar + 1))):
            model = ExtremalModel(ModelKind.TYPE_III, prof.d, prof.r)
            want = (gamma, g, class_in_HL(x, scroll))
            if (model.gamma, model.g, model.scroll_class) != want:
                raise ArithmeticError(
                    f"re-embedding a={a} is not extremal: the model is {model}, but"
                    f" the lattice gives (gamma, g, scroll_class)={want}"
                )
            rows.append(VerylastRow(a=a, r=model.r, degree=model.d, eps=model.eps))
            yield from _extremal_facts(model)

    # ``close`` builds the ledger first: an n too large fails before the sweep
    return close(gamma, g, chain(_baseline_facts(gamma, g), sweep_facts())), rows
