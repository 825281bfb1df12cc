"""The ledger closure as it was before the run walks: the test references.

``reference_propagate`` is the old ``GonalityLedger.propagate`` loop,
copied verbatim but run on bare arrays.  Every round re-scans all
O(g^2) subadditive splits, and crossings are checked once, after the
loop.  The differential test runs it on the same seeded arrays as the
package's closure and requires identical results.  The loop does not
terminate once some hi[r] falls below r (it ratchets hi down without
bound), so callers feed it only states where hi[r] >= r.

``stepwise_propagate`` is the closure from the change logs as it was
before its walks became bisections: one index per strict-increase step,
each checked against the other side as it is written, and every t of
the subadditivity pass visited.  Its crossings are the ones the package
must raise, with the same index, bounds and tags.
"""

from bisect import bisect_left
from operator import add

from extremalcurves import ContradictionError


def _join_tags(t1: str, t2: str) -> str:
    if t1 == t2:
        return t1
    parts = sorted(set(t1.split("+")) | set(t2.split("+")))
    return "+".join(parts)


def reference_propagate(lo, hi, lo_tag, hi_tag, top):
    """Close lo/hi (index 0 unused, 1..top tracked) in place."""
    for r in range(1, top):  # lower bounds: one ascending pass suffices
        v = lo[r] + 1
        if v > lo[r + 1]:
            lo[r + 1] = v
            lo_tag[r + 1] = lo_tag[r]
    changed = True
    while changed:
        changed = False
        for r in range(top - 1, 0, -1):  # hi[r] <= hi[r+1] - 1
            v = hi[r + 1] - 1
            if v < hi[r]:
                hi[r] = v
                hi_tag[r] = hi_tag[r + 1]
                changed = True
        for t in range(2, top + 1):  # hi[t] <= hi[s] + hi[t-s]
            best = hi[t]
            split = 0
            for s in range(1, t // 2 + 1):
                v = hi[s] + hi[t - s]
                if v < best:
                    best = v
                    split = s
            if split:
                hi[t] = best
                hi_tag[t] = _join_tags(hi_tag[split], hi_tag[t - split])
                changed = True
    for r in range(1, top + 1):
        if lo[r] > hi[r]:
            raise ContradictionError(r, lo[r], hi[r], lo_tag[r], hi_tag[r])


def _split_sums(hi, t, start):
    return map(add, hi[start : t // 2 + 1], hi[t - start : (t - 1) // 2 : -1])


def _below_gonal_line(hi, start, stop):
    h1 = hi[1]
    return bisect_left(range(start, stop + 1), True, key=lambda x: x * h1 > hi[x]) + start


def stepwise_propagate(lo, hi, lo_tag, hi_tag, top, raised, moved):
    """Close lo/hi (index 0 unused, 1..top tracked) in place, given the
    indices whose lo rose and whose hi fell since they were closed."""

    def raise_lo(r, value, tag):
        lo[r] = value
        lo_tag[r] = tag
        if value > hi[r]:
            raise ContradictionError(r, value, hi[r], tag, hi_tag[r])

    def lower_hi(r, value, tag):
        hi[r] = value
        hi_tag[r] = tag
        if value < lo[r]:
            raise ContradictionError(r, lo[r], value, lo_tag[r], tag)

    for i in sorted(raised):  # lo[r+1] >= lo[r] + 1, up from each raise
        for r in range(i, top):
            v = lo[r] + 1
            if v <= lo[r + 1]:
                break
            raise_lo(r + 1, v, lo_tag[r])
    if not moved:
        return
    for i in sorted(moved, reverse=True):  # hi[r] <= hi[r+1] - 1, down
        for r in range(i - 1, 0, -1):
            v = hi[r + 1] - 1
            if v >= hi[r]:
                break
            lower_hi(r, v, hi_tag[r + 1])
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
            lower_hi(t, best, _join_tags(hi_tag[split], hi_tag[t - split]))
