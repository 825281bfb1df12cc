"""The ledger closure as it was before the change log: the test reference.

``reference_propagate`` is the old ``GonalityLedger.propagate`` loop,
copied verbatim but run on bare arrays.  Every round re-scans all
O(g^2) subadditive splits, and crossings are checked once, after the
loop.  The differential test runs it on the same seeded arrays as the
package's closure and requires identical results.  The loop does not
terminate once some hi[r] falls below r (it ratchets hi down without
bound), so callers feed it only states where hi[r] >= r.
"""

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
