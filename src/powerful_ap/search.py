"""Exhaustive enumeration of powerful numbers and AP discovery among them.

The table generator walks n = a^2 * b^3 over squarefree b (sieve up to
limit^(1/3), a-loop innermost), which hits every powerful number exactly
once.  AP search bounds each start N's window N < N+d <= N+d_max by
bisection and finds the third terms 2(N+d) - N among the table with one
C-level set intersection per window, so no Python code runs per pair.
An even start scans only even middle terms: an even powerful number is
divisible by 4, so an odd middle term would give a third term that is
2 mod 4, which is never powerful.  Output is sorted by (N, d), and
arith.sqrt_ratios takes each start's square root once for all of its
ratios d/sqrt(N).  A table is always enumerated afresh: enumeration is
faster than reading the same values back from a file.  Search builds no
witnesses: a record is a bare (N, d, k) with its ratio, and
constructions.witness_from_terms re-proves its terms when a caller needs
receipts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from itertools import repeat
from operator import sub

from .arith import integer_nth_root, sqrt_ratios
from .errors import CapacityExceeded, InvalidInput

# Soft memory guard: ~2.173*sqrt(limit) values expected, each a Python int.
DEFAULT_MAX_VALUES = 5_000_000


@dataclass(frozen=True)
class APRecord:
    """A k-term AP of powerful numbers found by search: N, N+d, .., N+(k-1)d.

    ratio_half is d / sqrt(N); for 3-APs that is the quantity whose record
    minima probe how small a difference a progression can have.
    """

    n: int
    d: int
    k: int
    ratio_half: Decimal

    def terms(self) -> tuple[int, ...]:
        return tuple(self.n + i * self.d for i in range(self.k))


class PowerfulTable:
    """All powerful numbers up to `limit`, sorted, with O(1) membership."""

    __slots__ = ("limit", "values", "_members")

    def __init__(self, limit: int, values: tuple[int, ...]):
        if limit < 1:
            raise InvalidInput(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self.values = values
        self._members: frozenset[int] | None = None

    @property
    def members(self) -> frozenset[int]:
        if self._members is None:
            self._members = frozenset(self.values)
        return self._members

    def __contains__(self, n: int) -> bool:
        return n in self.members

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"PowerfulTable(limit={self.limit}, count={len(self.values)})"


def _squarefree_flags(bound: int) -> bytearray:
    """flags[i] == 1 iff i is squarefree, for 0 <= i <= bound."""
    flags = bytearray([1]) * (bound + 1)
    if bound >= 0:
        flags[0] = 0
    for q in range(2, math.isqrt(bound) + 1):
        step = q * q
        flags[step :: step] = bytearray(len(range(step, bound + 1, step)))
    return flags


def enumerate_powerful(limit: int) -> PowerfulTable:
    """Build the sorted table of all powerful numbers <= limit.

    Raises CapacityExceeded before allocating anything if the expected
    table size (about 2.173*sqrt(limit)) is over DEFAULT_MAX_VALUES.
    """
    if limit < 1:
        raise InvalidInput(f"limit must be >= 1, got {limit}")
    estimate = (22 * math.isqrt(limit)) // 10 + 16
    if estimate > DEFAULT_MAX_VALUES:
        raise CapacityExceeded(
            f"expect about {estimate} powerful numbers up to {limit}, "
            f"over the cap of {DEFAULT_MAX_VALUES}"
        )
    bmax = integer_nth_root(limit, 3)
    flags = _squarefree_flags(bmax)
    values = []
    for b in range(1, bmax + 1):
        if flags[b]:
            b3 = b * b * b
            values.extend(a * a * b3 for a in range(1, math.isqrt(limit // b3) + 1))
    values.sort()
    # (a, b) -> a^2*b^3 is injective for squarefree b, so a repeat means
    # the generator is broken, not the input.
    for i in range(1, len(values)):
        if values[i] == values[i - 1]:
            raise AssertionError(f"duplicate powerful value {values[i]}")
    return PowerfulTable(limit, tuple(values))


# ----------------------------------------------------------------- AP search

def find_kaps(table: PowerfulTable, k: int, d_max: int) -> list[APRecord]:
    """All (N, d) with d <= d_max and N, N+d, ..., N+(k-1)d in the table.

    Exhaustive within the window: for each start N, bisection bounds the
    window of second terms N+d <= N+d_max, and one C-level intersection of
    the table with {2v - N : v in window} yields every third term.  An even
    start scans a list of the even values only: for N = 0 mod 4 and an odd
    v, 2v - N is 2 mod 4, so that third term can only be in the table if
    the table holds a value that is 2 mod 4.  No powerful number is, so
    every even N of a table without one is 0 mod 4; a table with one (only
    hand-made tables) has even starts scan all values.
    The few 3-AP candidates are then probed for terms 3..k-1.  The cost is
    one O(log n) bisection per table value plus C-speed work proportional
    to the pairs in the windows.  A progression of length > k shows up
    once per starting term, which keeps the k=4 output consistent with its
    sub-3-APs.  Sorted by (N, d); one square root per start serves all of
    its ratios.
    """
    if k < 3:
        raise InvalidInput(f"k must be >= 3, got {k}")
    if d_max < 0:
        raise InvalidInput(f"d_max must be >= 0, got {d_max}")
    values, members = table.values, table.members
    evens = [v for v in values if v % 2 == 0]
    if any(v % 4 == 2 for v in evens):
        evens = values
    pairs = []
    # odd starts against every value, then even starts against `evens`
    for scan, parity in ((values, 1), (evens, 0)):
        doubled = [2 * v for v in scan]
        for i, n in enumerate(scan):
            if n % 2 != parity:
                continue
            j = bisect_right(scan, n + d_max, i + 1)
            for third in members.intersection(map(sub, doubled[i + 1 : j], repeat(n))):
                d = (third - n) // 2
                if k == 3 or all(n + t * d in members for t in range(3, k)):
                    pairs.append((n, d))
    pairs.sort()
    return [APRecord(n, d, k, ratio)
            for (n, d), ratio in zip(pairs, sqrt_ratios(pairs))]


def consecutive_check(table: PowerfulTable) -> list[tuple[int, ...]]:
    """Maximal runs of consecutive powerful numbers with length >= 2.

    A run of length 3 would refute the expectation that n and n+1 are
    never both powerful alongside n+2; none is known, so any such run in
    the output is a finding to report loudly.
    """
    members = table.members
    runs = []
    for v in table.values:
        if v - 1 in members:
            continue  # not the start of a run
        length = 1
        while v + length in members:
            length += 1
        if length >= 2:
            runs.append(tuple(range(v, v + length)))
    return runs


def record_min_ratio(records: list[APRecord]) -> list[APRecord]:
    """Running strict minima of d/sqrt(N), in (N, d) scan order.

    Each output entry had the smallest ratio seen so far when it appeared;
    the ratio column is therefore non-increasing.  Ratios are compared
    exactly, d^2 * N' < d'^2 * N against the last minimum (N', d'), since
    two distinct ratios of large N can agree in all 50 reported digits.
    """
    out: list[APRecord] = []
    for rec in records:
        if not out or rec.d * rec.d * out[-1].n < out[-1].d * out[-1].d * rec.n:
            out.append(rec)
    return out

