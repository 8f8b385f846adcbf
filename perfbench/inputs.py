"""Benchmark inputs, built without the package under test.

The search hits and the pair count come from this file's own scan: every
a^2 * b^3 up to the limit goes into a set (duplicates collapse, so no
squarefree bookkeeping is needed), each window (n, n + d_max] is bounded
with bisect, and the third terms are found by one set intersection per
window.  The scan is pinned to the published counts and record minima, so
a broken generator stops the run before anything is timed.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction

SEARCH_LIMIT = 10**8
SEARCH_DMAX = 10**6
SEARCH_VALUES = 21_044
SEARCH_HITS = 25_602
SEARCH_MINIMA = ((1, 24), (8, 28), (36, 36), (72, 28), (343, 49), (1728, 36),
                 (729000, 316))

PELL_VERIFY_MS = range(1, 51)
PELL_SCREEN_MS = range(51, 201)
PELL_SCREEN_PINNED = (65, 77)  # completed screen items; this set may only grow


def powerful_upto(limit: int) -> list[int]:
    """Sorted powerful numbers <= limit, as the set of all a^2 * b^3."""
    out = set()
    b = 1
    while b**3 <= limit:
        b3 = b**3
        out.update(a * a * b3 for a in range(1, math.isqrt(limit // b3) + 1))
        b += 1
    return sorted(out)


def record_minima(hits):
    """Running strict minima of d / sqrt(n), compared exactly as d^2 / n."""
    out, best = [], None
    for n, d in hits:
        r = Fraction(d * d, n)
        if best is None or r < best:
            best = r
            out.append((n, d))
    return tuple(out)


def checked_search_hits():
    """(pairs scanned, sorted 3-AP hits (n, d)) of the flagship scan,
    asserted against its pinned counts and record minima."""
    values = powerful_upto(SEARCH_LIMIT)
    members = set(values)
    pairs = 0
    hits = []
    for i, n in enumerate(values):
        j = bisect.bisect_right(values, n + SEARCH_DMAX, i + 1)
        window = values[i + 1:j]
        pairs += len(window)
        for third in sorted(members.intersection([2 * v - n for v in window])):
            hits.append((n, (third - n) // 2))
    if len(values) != SEARCH_VALUES or len(hits) != SEARCH_HITS:
        raise RuntimeError(f"generator drift: {len(values)} values, {len(hits)} hits")
    if record_minima(hits) != SEARCH_MINIMA:
        raise RuntimeError(f"generator drift: minima {record_minima(hits)}")
    return pairs, hits


def permuted(items, seed: int) -> list:
    """items in an order fixed by seed."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
