"""Catalogue of checks that recompute core facts two independent ways.

Each group states one fact: a plain function of its cases that yields
one ``(ok, message)`` pair per check of a closed form, a round trip or
an invariant against the engine; only a failed check's message is read.
Its default cases are the grid the command line ``selfcheck`` runs; the
test suite runs the same groups on its own grids.  The count is deterministic (fixed grids, fixed seed).
``run_selfcheck`` runs the grid, tallied per group; ``run_group`` makes an
engine error raised in a group one failed check, so the others still run.
"""

from __future__ import annotations

import random
from itertools import product

from .castelnuovo import profile
from .errors import ContradictionError, DomainError, InvalidInput
from .extremal import classify_extremal, embed_extremal, verify_extremal_class
from .gonality import verylast_sequence
from .lattice import (
    DivisorClass,
    adjunction_genus,
    canonical_class,
    class_in_HL,
    formal_genus,
    intersect,
    scroll_from_rn,
)
from .verdicts import Status, plane_curve_gonality, plane_slope_verdict, slope_verdict


def random_triples(seed: int, count: int, n_max: int, bound: int, scale: int) -> tuple:
    """Cases (x, y, z, scale) of random classes with coefficients up to bound."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(0, n_max)
        x, y, z = (DivisorClass(n, rng.randint(-bound, bound), rng.randint(-bound, bound))
                   for _ in range(3))
        cases.append((x, y, z, scale))
    return tuple(cases)


def bilinearity(cases=random_triples(20210614, 200, 6, 9, 3)):
    """The intersection pairing is symmetric, additive and homogeneous."""
    for x, y, z, c in cases:  # a message only for a failed check
        ok = intersect(x, y) == intersect(y, x)
        yield ok, "" if ok else f"symmetry broke at {x}, {y}"
        ok = intersect(x + y, z) == intersect(x, z) + intersect(y, z)
        yield ok, "" if ok else f"additivity broke at {x}, {y}, {z}"
        ok = intersect(c * x, y) == c * intersect(x, y)
        yield ok, "" if ok else f"scaling broke at {x}, {y}"


def adjunction_parity(classes=tuple(product(range(7), range(-15, 16), range(-15, 16)))):
    """(K + X).X = 2(ab - a - b) - n*a(a-1) for X = (n, a, b), and the formal
    genus is ab - a - b + 1 - n*a(a-1)/2.

    The pairing is even for every class: 2(ab - a - b) is even, and so is
    a(a-1), a product of two consecutive integers.  So half the pairing
    plus one is an integer, and ``formal_genus`` may assert the parity.
    """
    for n, a, b in classes:  # a message only for a failed check: 6,727 classes
        x = DivisorClass(n, a, b)
        half, twist = a * b - a - b, n * a * (a - 1)
        ok = intersect(canonical_class(n) + x, x) == 2 * half - twist
        yield ok, "" if ok else f"adjunction pairing off its closed form at {x}"
        ok = formal_genus(x) == half + 1 - twist // 2
        yield ok, "" if ok else f"formal genus off its closed form at {x}"


def genus_closed_form(classes=tuple((n, a, b) for n in range(7) for a in range(2, 9)
                                    for b in range(a * n + 1, a * n + 10))):
    """The adjunction genus of a smoothable (n, a, b) is (b-1)(a-1) - n*a(a-1)/2."""
    for n, a, b in classes:
        x = DivisorClass(n, a, b)
        ok = adjunction_genus(x) == (b - 1) * (a - 1) - n * a * (a - 1) // 2
        yield ok, "" if ok else f"genus closed form broke at {x}"


def embedding(cases=tuple(
        (gamma, lam, n) for n in range(5) for gamma in range(3, 8)
        # lam >= gamma keeps gamma the ruling degree on the product surface
        for floor in [max(gamma * n + 1, gamma, -(-gamma * (gamma + n - 2) // 2))]
        for lam in range(floor, floor + 6))):
    """Each gamma*C0 + lam*L embeds at pi(d, r) with its ratio and remainder, as a
    model of its own class exactly when d >= 2r+1; gamma = 3 lands at d = 2r-1."""
    for gamma, lam, n in cases:
        res, at = embed_extremal(gamma, lam, n), f"({gamma},{lam},{n})"
        yield (res.hypothesis_met and (res.model is None) == (res.d < 2 * res.r + 1),
               f"hypothesis or regime lost at {at}")
        yield (res.profile.m == gamma - 1 and res.profile.eps == res.eps
               and res.genus == res.profile.pi, f"embedding not extremal at {at}")
        if gamma == 3:
            yield res.d == 2 * res.r - 1, f"gamma=3 embedding off d=2r-1 at {at}"
        else:
            x = DivisorClass(n, gamma, lam)
            yield (class_in_HL(x, res.scroll) == getattr(res.model, "scroll_class", None),
                   f"scroll class mismatch at {at}")


def classified_classes(windows=tuple((d, r) for r in range(3, 13)
                                     for d in range(2 * r + 1, 4 * r + 1))):
    """Classified scroll classes exist and verify by adjunction; bisecants do not."""
    for d, r in windows:
        scroll = scroll_from_rn(r, (r + 1) % 2)
        classes = [m.scroll_class for m in classify_extremal(d, r) if m.scroll_class]
        yield bool(classes), f"no scroll model classified at d={d} r={r}"
        for h, l in classes:
            yield (verify_extremal_class(h, l, scroll),
                   f"classified class {h}H{l:+d}L fails verification at d={d} r={r}")
        yield (not verify_extremal_class(2, d - 2 * (r - 1), scroll),
               f"bisecant class passed verification at d={d} r={r}")


def profile_round_trip(windows=tuple((d, r) for r in range(3, 31, 3)
                                     for d in range(2 * r + 1, 10 * r + 1))):
    """profile(d, r) splits d-1 = m(r-1) + eps and restates pi(d, r)."""
    for d, r in windows:
        p = profile(d, r)
        yield (d - 1 == p.m * (r - 1) + p.eps and 0 <= p.eps <= r - 2,
               f"profile division broke at d={d} r={r}")
        yield (p.pi == p.m * (p.m - 1) // 2 * (r - 1) + p.m * p.eps,
               f"genus bound formula broke at d={d} r={r}")


def plane_sequences(degrees=range(5, 13)):
    """Plane curves of degree k: d_1, d_2, d_5 = k-1, k, 2k, strict increase
    to d_{g-1} = 2g-2, and a violated slope at r = 5 from k = 6 on."""
    for k in degrees:
        g = (k - 1) * (k - 2) // 2
        seq = [plane_curve_gonality(k, r) for r in range(1, g + 4)]
        yield ((seq[0], seq[1], seq[4]) == (k - 1, k, 2 * k),
               f"plane sequence start broke at k={k}")
        yield (all(a < b for a, b in zip(seq, seq[1:])),
               f"plane sequence not strictly increasing at k={k}")
        yield seq[g - 2] == 2 * g - 2, f"plane canonical entry broke at k={k}"
        if k >= 6:
            yield (plane_slope_verdict(k, 5).status is Status.VIOLATED,
                   f"plane slope verdict at r=5 broke at k={k}")


def foursecant_sweep(ns=range(3, 16)):
    """The sweep on F_n: genus 6n-3, one extremal re-embedding per a <= abar
    pinning two entries, exact entries increasing and <= 4r, and a run that
    keeps the slope inequality up to d = 4(n+abar), then hi 4(n+abar)+3."""
    for n in ns:
        led, rows = verylast_sequence(n)
        g, abar = 6 * n - 3, (n - 3) // 2
        yield (led.gamma, led.g) == (4, g), f"foursecant invariants broke at n={n}"
        yield len(rows) == abar + 1, f"foursecant sweep length broke at n={n}"
        exact = [(e.index, e.lo) for e in led.entries() if e.exact]
        yield (all(a < b for (_, a), (_, b) in zip(exact, exact[1:]))
               and all(v <= 4 * r for r, v in exact),
               f"foursecant exact entries broke at n={n}")
        for row in rows:
            p = profile(row.degree, row.r)
            yield (led.exact_value(row.r) == row.degree
                   and led.exact_value(row.r - 1) == row.degree - 1
                   and (p.m, p.eps, p.pi) == (3, n - 2 * row.a - 1, g),
                   f"foursecant ledger entries broke at n={n} a={row.a}")
        last = n + 2 * abar + 1
        for r in range(n, last + 1):
            d_r = led.exact_value(r)
            yield (d_r is not None and r * led.entry(r + 1).hi <= (r + 1) * d_r,
                   f"foursecant slope window broke at n={n} r={r}")
        yield (led.exact_value(last) == 4 * (n + abar)
               and led.entry(last + 1).hi == 4 * (n + abar) + 3,
               f"foursecant run end broke at n={n}")


def band_verdicts(cases=tuple((gamma, r) for gamma in range(4, 9) for r in range(4, 21))):
    """The harmless band r(gamma-1) <= d <= gamma(r-1)+1 is empty exactly
    below r = gamma-1, and every gamma-gonal model in it holds."""
    for gamma, r in cases:
        top = gamma * (r - 1) + 1
        yield ((r * (gamma - 1) > top) == (r < gamma - 1),
               f"band emptiness broke at gamma={gamma} r={r}")
        for d in range(r * (gamma - 1), top + 1):
            for model in classify_extremal(d, r):
                if model.gamma == gamma:
                    yield (slope_verdict(model).status is Status.HOLDS,
                           f"band verdict broke at gamma={gamma} d={d} r={r}")


def boundary_verdicts(ranks=range(3, 21)):
    """Fourgonal models at d = 3r-1 violate the slope inequality; at
    d = 3r-2 (r >= 4) they hold at r = 4 only."""
    for r in ranks:
        for model in classify_extremal(3 * r - 1, r):
            if model.gamma == 4:
                yield (slope_verdict(model).status is Status.VIOLATED,
                       f"degree 3r-1 verdict broke at r={r}")
        if r >= 4:
            want = Status.HOLDS if r == 4 else Status.VIOLATED
            for model in classify_extremal(3 * r - 2, r):
                if model.gamma == 4:
                    yield (slope_verdict(model).status is want,
                           f"degree 3r-2 verdict broke at r={r}")


def no_degenerate_models(windows=tuple((d, r) for r in range(3, 13)
                                       for d in range(2 * r + 1, 5 * r + 1))):
    """No degenerate rational model (eps = 0, m = 1) ever classifies."""
    for d, r in windows:
        for model in classify_extremal(d, r):
            yield (not (model.eps == 0 and model.m == 1),
                   f"degenerate model emitted at d={d} r={r}")


GROUPS = {group.__name__: group for group in (
    bilinearity, adjunction_parity, genus_closed_form, embedding, classified_classes,
    profile_round_trip, plane_sequences, foursecant_sweep, band_verdicts,
    boundary_verdicts, no_degenerate_models)}


def tally(checks) -> tuple[int, list[str]]:
    """(number of checks, failure messages) of a stream of (ok, message) pairs."""
    count, failures = 0, []
    for ok, msg in checks:
        count += 1
        if not ok:
            failures.append(msg)
    return count, failures


def run_group(name: str, group):
    """The checks of one group on its default cases.  An engine error the
    group raises ends it as one failed check naming the group and the
    error, so the groups after it still run."""
    try:
        yield from group()
    except (InvalidInput, DomainError, ContradictionError, ArithmeticError) as exc:
        yield False, f"group {name} raised {type(exc).__name__}: {exc}"


def run_selfcheck() -> tuple[int, list[str], list[tuple[str, int, int]]]:
    """(number of checks, failure messages, per group (name, checks, failed))
    of every group on its default cases, the groups in ``GROUPS`` order."""
    groups, failures = [], []
    for name, group in GROUPS.items():
        checks, failed = tally(run_group(name, group))
        groups.append((name, checks, len(failed)))
        failures += failed
    return sum(checks for _, checks, _ in groups), failures, groups
